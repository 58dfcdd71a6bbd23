"""Dataset container, feature schema, year splits, and the bit-exact on-disk format.

A dataset directory holds one file, ``dataset.mmts``, written by one atomic
rename, so a reader sees either the whole old dataset or the whole new one.
Everything in it is little-endian:

- the magic bytes ``MMTS``;
- five u32: the format version, the manifest's byte length, then N, T and B;
- the manifest, the JSON codec form of ``FeatureSchema`` (task, bands with
  ids, names and modalities, time steps with ids and labels, class count and
  names or null), padded with spaces so the arrays start at a multiple of 64
  bytes;
- values f32 [N,T,B], targets f32 [N] and years u32 [N], row-major.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .codec import decode, decode_enums, encode
from .errors import ConfigError, DatasetError

MAGIC = b"MMTS"
FORMAT_VERSION = 2
DATASET_FILE = "dataset.mmts"
_HEAD = 24  # magic, then version, manifest length, N, T, B as u32


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
    """Write ``data`` to a ``.tmp`` sibling, then rename it over ``path``.
    A write or rename that fails removes the sibling and leaves ``path`` as
    it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Atomic, key-sorted, two-space-indented JSON with a final newline."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the dataset file


def save_dataset(d: TensorDataset, path: str | Path) -> None:
    """Write a dataset directory's one file in one atomic rename. Bit-exact."""
    if d.n_samples == 0:
        raise DatasetError("empty dataset")
    if not np.all(np.isfinite(d.values)):
        raise DatasetError("values contain non-finite entries")
    if d.schema.task is Task.REGRESSION and not np.all(np.isfinite(d.targets)):
        raise DatasetError("targets contain non-finite entries")
    if d.years.min() < 0 or d.years.max() >= 2**32:
        raise DatasetError("years must fit in u32")

    manifest = (json.dumps(encode(d.schema), indent=2, sort_keys=True) + "\n").encode()
    manifest += b" " * (-(_HEAD + len(manifest)) % 64)  # the arrays start 64-aligned
    head = np.array([FORMAT_VERSION, len(manifest), *d.shape], dtype="<u4")
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DatasetError(f"cannot make the dataset directory {out}: {exc.strerror}") from exc
    write_atomic(out / DATASET_FILE, b"".join((
        MAGIC, head, manifest,
        np.ascontiguousarray(d.values, dtype="<f4"),
        np.ascontiguousarray(d.targets, dtype="<f4"),
        np.ascontiguousarray(d.years, dtype="<u4"),
    )))


def load_dataset(path: str | Path) -> TensorDataset:
    """Read a dataset directory; byte-for-byte round-trip with save_dataset."""
    root = Path(path)
    file = root / DATASET_FILE
    if not file.is_file():
        raise DatasetError(f"missing {DATASET_FILE} in {root}")
    try:
        raw = file.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {file}: {exc}") from exc
    if len(raw) < _HEAD or raw[:4] != MAGIC:
        raise DatasetError(f"{file}: missing MMTS magic")
    version, size, n, t, b = (int(v) for v in np.frombuffer(raw, "<u4", 5, 4))
    if version != FORMAT_VERSION:
        raise DatasetError(f"{file}: unsupported format version {version}")
    start = _HEAD + size
    expected = start + 4 * (n * t * b + 2 * n)
    if len(raw) != expected:
        raise DatasetError(
            f"{file}: size mismatch, header declares a {size}-byte manifest and "
            f"N={n}, T={t}, B={b} ({expected} bytes) but the file holds {len(raw)}"
        )
    try:
        schema = decode(FeatureSchema, json.loads(raw[_HEAD:start]), "manifest")
    except (json.JSONDecodeError, UnicodeDecodeError, ConfigError) as exc:
        raise DatasetError(f"corrupt manifest in {root}: {exc}") from exc
    if n == 0:
        raise DatasetError("empty dataset")
    cells = n * t * b
    return TensorDataset(
        schema=schema,
        values=np.frombuffer(raw, "<f4", cells, start).reshape(n, t, b),
        targets=np.frombuffer(raw, "<f4", n, start + 4 * cells),
        years=np.frombuffer(raw, "<u4", n, start + 4 * (cells + n)),
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
    dataset, whose R^2 needs two targets. A negative seed is a
    ``DatasetError``.
    """
    if seed < 0:
        raise DatasetError(f"seed must not be negative, got {seed}")
    if holdout_years < 1:
        raise DatasetError(f"holdout_years must be at least 1, not {holdout_years}")
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
) -> FeatureSchema:
    """Convenience schema with generated names, ids 0..K-1."""
    return FeatureSchema(
        bands=tuple(Band(i, f"band{i:02d}", "synthetic") for i in range(n_bands)),
        timesteps=tuple(TimeStep(i, f"t{i:02d}") for i in range(n_timesteps)),
        task=task,
        n_classes=n_classes,
    )
