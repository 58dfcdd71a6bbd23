"""Dataset container, feature schema, year splits, and the bit-exact on-disk format.

A dataset directory holds four files: ``manifest``, the JSON codec form of
``FeatureSchema`` (task, bands with ids, names and modalities, time steps with
ids and labels, class count and names or null), plus three binary payloads
``values.bin`` / ``targets.bin`` / ``years.bin``. Every payload starts with
the magic bytes ``MMTS``, a u32 little-endian format version, and the array
dimensions as u32 little-endian (N,T,B for values; N for the others), followed
by row-major IEEE-754 f32 little-endian data (u32 for years).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .codec import decode, decode_enums, encode
from .errors import ConfigError, DatasetError

MAGIC = b"MMTS"
FORMAT_VERSION = 1


class Task(str, Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


@dataclass(frozen=True)
class Band:
    """One input channel: a stable id, a display name, and its modality."""

    id: int
    name: str
    modality: str


@dataclass(frozen=True)
class TimeStep:
    """One temporal instance: a stable id and a display label."""

    id: int
    label: str


@dataclass(frozen=True)
class FeatureSchema:
    """Names and identity of every band and time step of a dataset.

    Stable ids never renumber: deleting band 3 from ids {0..5} leaves
    {0,1,2,4,5}, so deletion-curve records always reference features of the
    original schema.
    """

    bands: tuple[Band, ...]
    timesteps: tuple[TimeStep, ...]
    task: Task
    n_classes: int | None = None
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        decode_enums(self)
        object.__setattr__(self, "bands", tuple(self.bands))
        object.__setattr__(self, "timesteps", tuple(self.timesteps))
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(self.class_names))
        if not self.bands:
            raise DatasetError("schema needs at least one band")
        if not self.timesteps:
            raise DatasetError("schema needs at least one time step")
        _check_strictly_increasing(list(self.band_ids), "band ids")
        _check_strictly_increasing(list(self.step_ids), "step ids")
        if self.task is Task.CLASSIFICATION:
            if self.n_classes is None or self.n_classes < 2:
                raise DatasetError("classification requires n_classes >= 2")
            if self.class_names is not None and len(self.class_names) != self.n_classes:
                raise DatasetError("class_names length must equal n_classes")
        elif self.n_classes is not None:
            raise DatasetError("regression schema must not declare n_classes")

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def n_timesteps(self) -> int:
        return len(self.timesteps)

    @property
    def band_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.bands)

    @property
    def step_ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self.timesteps)


def _check_strictly_increasing(ids: list[int], what: str) -> None:
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise DatasetError(f"{what} must be strictly increasing and unique: {ids}")


def _frozen_array(arr, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TensorDataset:
    """Samples x time-steps x bands array with schema, targets, and year tags.

    Immutable after construction; every operation below returns a new dataset.
    """

    schema: FeatureSchema
    values: np.ndarray  # float32 [N, T, B]
    targets: np.ndarray  # float32 [N] (regression) or int64 class indices [N]
    years: np.ndarray  # int64 [N]

    def __post_init__(self):
        values = _frozen_array(self.values, np.float32)
        years = _frozen_array(self.years, np.int64)
        if self.schema.task is Task.CLASSIFICATION:
            targets = np.asarray(self.targets)
            if not np.issubdtype(targets.dtype, np.integer):
                if not np.all(targets == np.round(targets)):
                    raise DatasetError("classification targets must be integral")
            targets = _frozen_array(targets, np.int64)
        else:
            targets = _frozen_array(self.targets, np.float32)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "years", years)

        if values.ndim != 3:
            raise DatasetError(f"values must be [N,T,B], got ndim={values.ndim}")
        n, t, b = values.shape
        if t != self.schema.n_timesteps or b != self.schema.n_bands:
            raise DatasetError(
                f"dimension mismatch: values {values.shape} vs schema "
                f"(T={self.schema.n_timesteps}, B={self.schema.n_bands})"
            )
        if targets.shape != (n,) or years.shape != (n,):
            raise DatasetError("targets and years must both have shape [N]")
        if not np.all(np.isfinite(values)):
            raise DatasetError("values contain non-finite entries")
        if self.schema.task is Task.CLASSIFICATION:
            if n and (targets.min() < 0 or targets.max() >= self.schema.n_classes):
                raise DatasetError("class indices out of range")
        elif not np.all(np.isfinite(targets)):
            raise DatasetError("targets contain non-finite entries")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorDataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.years, other.years)
        )

    def take(self, indices: np.ndarray) -> "TensorDataset":
        """New dataset holding the given rows (indices or a mask), same schema."""
        idx = np.asarray(indices) if len(indices) else np.arange(0)  # [] reads as float64
        return TensorDataset(
            schema=self.schema,
            values=self.values[idx],
            targets=self.targets[idx],
            years=self.years[idx],
        )


@dataclass(frozen=True)
class SplitTriple:
    """Train/validation/test partition with identical schemas."""

    train: TensorDataset
    validation: TensorDataset
    test: TensorDataset

    def __post_init__(self):
        if not (self.train.schema == self.validation.schema == self.test.schema):
            raise DatasetError("split parts must share one schema")

    def map(self, fn) -> "SplitTriple":
        """Apply a dataset-to-dataset function to all three parts."""
        return SplitTriple(fn(self.train), fn(self.validation), fn(self.test))


# ---------------------------------------------------------------------------
# atomic writes


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` to a ``.tmp`` sibling, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data)
    os.replace(tmp, path)


def write_json(path: str | Path, obj) -> None:
    """Atomic, key-sorted, two-space-indented JSON with a final newline."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# binary payloads


def write_payload(path: Path, arr: np.ndarray, kind: str = "f32") -> None:
    """Write one MMTS payload: magic, version, u32 dims, then raw data."""
    if kind == "f32":
        data = np.ascontiguousarray(arr, dtype="<f4")
    elif kind == "u32":
        data = np.ascontiguousarray(arr, dtype="<u4")
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    header = MAGIC + np.array([FORMAT_VERSION, *arr.shape], dtype="<u4").tobytes()
    write_atomic(path, header + data.tobytes())


def read_payload(path: Path, ndim: int, kind: str = "f32") -> np.ndarray:
    """Read one MMTS payload of known rank; validates magic, version, length."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read payload {path}: {exc}") from exc
    head = 4 + 4 + 4 * ndim
    if len(raw) < head or raw[:4] != MAGIC:
        raise DatasetError(f"{path.name}: missing MMTS magic")
    meta = np.frombuffer(raw[4:head], dtype="<u4")
    version, dims = int(meta[0]), tuple(int(d) for d in meta[1:])
    if version != FORMAT_VERSION:
        raise DatasetError(f"{path.name}: unsupported format version {version}")
    count = math.prod(dims)
    dtype = "<f4" if kind == "f32" else "<u4"
    expected = head + 4 * count
    if len(raw) != expected:
        have = (len(raw) - head) // 4
        raise DatasetError(
            f"{path.name}: payload size mismatch, header declares {dims} "
            f"({count} entries) but file holds {have}"
        )
    return np.frombuffer(raw[head:], dtype=dtype).reshape(dims)


# ---------------------------------------------------------------------------
# dataset directory I/O


def save_dataset(d: TensorDataset, path: str | Path) -> None:
    """Write a dataset directory (manifest + three payloads). Bit-exact."""
    if d.n_samples == 0:
        raise DatasetError("empty dataset")
    if not np.all(np.isfinite(d.values)):
        raise DatasetError("values contain non-finite entries")
    if d.schema.task is Task.REGRESSION and not np.all(np.isfinite(d.targets)):
        raise DatasetError("targets contain non-finite entries")
    if d.years.min() < 0 or d.years.max() >= 2**32:
        raise DatasetError("years must fit in u32")

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest", encode(d.schema))
    write_payload(out / "values.bin", d.values, "f32")
    write_payload(out / "targets.bin", d.targets.astype(np.float32), "f32")
    write_payload(out / "years.bin", d.years, "u32")


def load_dataset(path: str | Path) -> TensorDataset:
    """Read a dataset directory; byte-for-byte round-trip with save_dataset."""
    root = Path(path)
    manifest_path = root / "manifest"
    if not manifest_path.is_file():
        raise DatasetError(f"missing manifest in {root}")
    try:
        schema = decode(FeatureSchema, json.loads(manifest_path.read_text()), "manifest")
    except (json.JSONDecodeError, UnicodeDecodeError, ConfigError) as exc:
        raise DatasetError(f"corrupt manifest in {root}: {exc}") from exc

    values = read_payload(root / "values.bin", ndim=3, kind="f32")
    if values.shape[0] == 0:
        raise DatasetError("empty dataset")
    return TensorDataset(
        schema=schema,
        values=values,
        targets=read_payload(root / "targets.bin", ndim=1, kind="f32"),
        years=read_payload(root / "years.bin", ndim=1, kind="u32"),
    )


# ---------------------------------------------------------------------------
# splitting and physical deletion


def split_by_year(
    d: TensorDataset, holdout_years: int = 2, seed: int = 0
) -> SplitTriple:
    """Year-based split: the most recent ``holdout_years`` distinct years are
    held out, shuffled by ``seed``, and divided 50/50 into validation and test
    (odd count: validation gets the extra sample). Everything older trains.
    Validation and test each need one sample, or two for a regression
    dataset, whose R^2 needs two targets.
    """
    distinct = np.unique(d.years)
    if len(distinct) <= holdout_years:
        raise DatasetError(
            f"too few distinct years: need more than {holdout_years}, "
            f"have {len(distinct)}"
        )
    cutoff = distinct[-holdout_years]
    train_idx = np.flatnonzero(d.years < cutoff)
    pool_idx = np.flatnonzero(d.years >= cutoff)
    need = 1 if d.schema.task is Task.CLASSIFICATION else 2
    if len(pool_idx) < 2 * need:
        raise DatasetError(
            f"holdout years {distinct[-holdout_years:].tolist()} hold {len(pool_idx)} "
            f"sample(s); validation and test need at least {need} each"
        )
    rng = np.random.default_rng(seed)
    pool_idx = pool_idx[rng.permutation(len(pool_idx))]
    n_val = (len(pool_idx) + 1) // 2
    return SplitTriple(
        train=d.take(train_idx),
        validation=d.take(pool_idx[:n_val]),
        test=d.take(pool_idx[n_val:]),
    )


def delete_bands(d: TensorDataset, band_ids: Iterable[int]) -> TensorDataset:
    """Physically remove the given bands; survivors keep order and stable ids."""
    return _delete(d, set(band_ids), "bands")


def delete_timesteps(d: TensorDataset, step_ids: Iterable[int]) -> TensorDataset:
    """Physically remove the given time steps; symmetric to delete_bands."""
    return _delete(d, set(step_ids), "timesteps")


# schema field -> (values axis, id noun, feature noun)
_DELETABLE = {
    "bands": (2, "band", "band"),
    "timesteps": (1, "step", "time step"),
}


def _delete(d: TensorDataset, ids: set[int], field: str) -> TensorDataset:
    """The one survivor rule: keep, in order, the features not in ``ids``."""
    if not ids:
        return d
    axis, noun, whole = _DELETABLE[field]
    features = getattr(d.schema, field)
    known = {f.id for f in features}
    for fid in ids:
        if fid not in known:
            raise DatasetError(f"unknown {noun} id {fid}")
    if len(ids) >= len(features):
        raise DatasetError(f"cannot delete every {whole}")
    keep = [i for i, f in enumerate(features) if f.id not in ids]
    return TensorDataset(
        schema=replace(d.schema, **{field: tuple(features[i] for i in keep)}),
        values=np.take(d.values, keep, axis=axis),
        targets=d.targets,
        years=d.years,
    )


def default_schema(
    n_timesteps: int,
    n_bands: int,
    task: Task,
    n_classes: int | None = None,
    modality: str = "synthetic",
) -> FeatureSchema:
    """Convenience schema with generated names, ids 0..K-1."""
    return FeatureSchema(
        bands=tuple(Band(i, f"band{i:02d}", modality) for i in range(n_bands)),
        timesteps=tuple(TimeStep(i, f"t{i:02d}") for i in range(n_timesteps)),
        task=task,
        n_classes=n_classes,
    )
