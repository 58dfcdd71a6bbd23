"""Feature-attribution estimators over grouped inputs, plus the ranking step.

Four estimators: Shapley value sampling (permutation Monte Carlo over feature
groups against a reference input), guided backprop, and the SmoothGrad-squared
and VarGrad ensembles over either base. ``run_estimator`` is the one entry to
all of them. An exact Shapley oracle enumerating all coalitions backs the
sampling estimator for small group counts.

Grouping follows one of two axes: all bands at one time step, or the full
series of one band. Groups carry the schema's stable ids, so rankings stay
meaningful while data shrinks.

The explained scalar is the predicted-class logit for classification (labels
never consulted) and the model output for regression.

Determinism: every sample owns an RNG stream keyed by (seed, sample id), so
results are independent of batching or scheduling. Shapley sampling builds
composites a block of samples at a time, but each sample still draws from its
own stream and gets its own forward call of unchanged shape, so its row does
not depend on the block size or on the batch order. Ensemble noise draws from
streams keyed by (seed, sample id, replica) while the base estimator keeps
the sample's own stream; with zero noise every replica therefore reproduces
the base attribution exactly, which is what the collapse properties assert.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .data import FeatureSchema, Task, TensorDataset
from .engine import DTYPE
from .errors import EstimatorError
from .models import Model

ESTIMATOR_TAGS = ("svs", "gb", "sgs-svs", "sgs-gb", "vargrad-svs", "vargrad-gb")

_FORWARD_CHUNK = 4096
_SVS_BLOCK_ROWS = 1024  # composite rows built per svs block


class GroupingAxis(str, Enum):
    BY_TIMESTEP = "by_timestep"
    BY_BAND = "by_band"


@dataclass(frozen=True)
class FeatureGroups:
    """A partition of the T x B grid into scored groups; ``feature_groups``
    builds the band and time-step ones."""

    axis: GroupingAxis
    ids: tuple[int, ...]
    mask: np.ndarray  # bool [G, T, B]; row g marks group g's cells

    def __post_init__(self):
        if self.mask.ndim != 3 or not (self.mask.sum(axis=0) == 1).all():
            raise EstimatorError("groups must partition the grid")
        if len(self.ids) != len(self.mask):
            raise EstimatorError("one id per group required")

    @property
    def n_groups(self) -> int:
        return len(self.ids)

    @property
    def cell_group(self) -> np.ndarray:
        """Group index of each cell, row-major over the grid: int [T*B]."""
        return self.mask.reshape(self.n_groups, -1).argmax(axis=0)


def feature_groups(
    grid: Union[FeatureSchema, tuple[int, int]], axis: GroupingAxis
) -> FeatureGroups:
    """Grouping over a schema, or over a bare (T, B) grid shape.

    Groups carry the schema's stable ids; over a bare shape they carry grid
    positions. ``axis`` may be given by its value, such as ``"by_band"``.
    """
    axis = GroupingAxis(axis)
    if isinstance(grid, FeatureSchema):
        t, b = grid.n_timesteps, grid.n_bands
        band_ids, step_ids = grid.band_ids, grid.step_ids
    else:
        t, b = grid
        band_ids, step_ids = range(b), range(t)
    if axis is GroupingAxis.BY_BAND:
        ids = band_ids
        mask = np.eye(b, dtype=bool)[:, None, :].repeat(t, axis=1)
    else:
        ids = step_ids
        mask = np.eye(t, dtype=bool)[:, :, None].repeat(b, axis=2)
    return FeatureGroups(axis=axis, ids=tuple(ids), mask=mask)


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class AttributionMatrix:
    sample_ids: tuple[int, ...]
    axis: GroupingAxis
    group_ids: tuple[int, ...]
    scores: np.ndarray  # [n_samples, n_groups] float32
    estimator_tag: str
    stderr: Optional[np.ndarray] = None  # same shape; Monte-Carlo estimators only

    def __post_init__(self):
        expected = (len(self.sample_ids), len(self.group_ids))
        if self.scores.shape != expected:
            raise EstimatorError(
                f"scores shape {self.scores.shape} does not match {expected}"
            )
        if not np.isfinite(self.scores).all():
            raise EstimatorError("attribution scores must be finite")
        if self.estimator_tag not in ESTIMATOR_TAGS:
            raise EstimatorError(f"unknown estimator tag {self.estimator_tag!r}")
        if self.stderr is not None and self.stderr.shape != self.scores.shape:
            raise EstimatorError("stderr shape must match scores")


@dataclass(frozen=True)
class ImportanceRanking:
    """Group ids by descending mean |score|; ties break on ascending id."""

    axis: GroupingAxis
    group_ids: tuple[int, ...]
    scores: tuple[float, ...]  # aggregated, aligned with group_ids

    def top(self, k: int) -> tuple[int, ...]:
        return self.group_ids[:k]

    def bottom(self, k: int) -> tuple[int, ...]:
        return self.group_ids[len(self.group_ids) - k:]

    def to_dict(self) -> dict:
        return {
            "axis": self.axis.value,
            "group_ids": list(self.group_ids),
            "scores": list(self.scores),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ImportanceRanking":
        return cls(
            axis=GroupingAxis(d["axis"]),
            group_ids=tuple(int(g) for g in d["group_ids"]),
            scores=tuple(float(s) for s in d["scores"]),
        )


def aggregate_rank(m: AttributionMatrix) -> ImportanceRanking:
    if m.scores.shape[0] == 0:
        raise EstimatorError("cannot rank an empty attribution matrix")
    means = np.abs(m.scores.astype(np.float64)).mean(axis=0)
    ids = np.asarray(m.group_ids)
    order = np.lexsort((ids, -means))
    return ImportanceRanking(
        axis=m.axis,
        group_ids=tuple(int(ids[i]) for i in order),
        scores=tuple(float(means[i]) for i in order),
    )


# ---------------------------------------------------------------------------
# budget


@dataclass(frozen=True)
class ExplainBudget:
    """Estimator budgets.

    ``n_samples`` of None means min(5000, N_train). A campaign draws its
    explained sample ids once and reuses them across deletion cycles; the
    ensembles' noise range (``cell_span``) is passed per cycle because the
    grid shrinks.
    """

    n_samples: Optional[int] = None
    n_permutations: int = 64
    ensemble_size: int = 15
    noise_scale: float = 0.15

    def __post_init__(self):
        if self.n_samples is not None and self.n_samples < 1:
            raise EstimatorError("n_samples must be positive")
        if self.n_permutations < 1 or self.ensemble_size < 1:
            raise EstimatorError("permutations and ensemble size must be positive")
        if self.noise_scale < 0:
            raise EstimatorError("noise scale cannot be negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExplainBudget":
        return cls(**d)


def mean_baseline(train: TensorDataset) -> np.ndarray:
    """Per-feature training mean, the default reference input."""
    return train.values.mean(axis=0, dtype=np.float64).astype(DTYPE)


def cell_span(train: TensorDataset) -> np.ndarray:
    """Per-cell training min-to-max span, the ensembles' noise range."""
    return (train.values.max(axis=0) - train.values.min(axis=0)).astype(DTYPE)


# ---------------------------------------------------------------------------
# scalar extraction


def _predicted_classes(model: Model, samples: np.ndarray) -> Optional[np.ndarray]:
    if model.spec.head.task is not Task.CLASSIFICATION:
        return None
    preds = []
    for start in range(0, len(samples), _FORWARD_CHUNK):
        out = model.forward(samples[start:start + _FORWARD_CHUNK])
        preds.append(out.argmax(axis=1))
    return np.concatenate(preds)


def _scalar_batch(model: Model, xs: np.ndarray, class_idx: Optional[int]) -> np.ndarray:
    """Explained scalar for a batch sharing one fixed output column."""
    col = 0 if class_idx is None else int(class_idx)
    vals = []
    for start in range(0, len(xs), _FORWARD_CHUNK):
        out = model.forward(xs[start:start + _FORWARD_CHUNK])
        vals.append(out[:, col].astype(np.float64))
    return np.concatenate(vals)


def _check_inputs(
    model: Model,
    samples: np.ndarray,
    baseline: Optional[np.ndarray],
    groups: FeatureGroups,
    noise_range: Optional[np.ndarray] = None,
):
    t, b = model.input_shape
    if groups.mask.shape[1:] != (t, b):
        raise EstimatorError(
            f"groups over {groups.mask.shape[1:]} do not match model input ({t}, {b})"
        )
    if samples.ndim != 3 or samples.shape[1:] != (t, b):
        raise EstimatorError(
            f"samples shape {samples.shape} does not match model input ({t}, {b})"
        )
    for name, cells in (("baseline", baseline), ("noise_range", noise_range)):
        if cells is not None and cells.shape != (t, b):
            raise EstimatorError(
                f"{name} shape {cells.shape} does not match model input ({t}, {b})"
            )


# ---------------------------------------------------------------------------
# Shapley value sampling


def _svs_rows(
    model: Model,
    samples: np.ndarray,
    ids: tuple[int, ...],
    groups: FeatureGroups,
    baseline: np.ndarray,
    n_permutations: int,
    seed: int,
    classes: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample (scores, stderr) over group marginal contributions.

    Composites are built and marginals post-processed for a block of samples
    at a time (about ``_SVS_BLOCK_ROWS`` composite rows). Each sample still
    draws its permutations from its own RNG keyed by (seed, sample id) and
    gets its own forward call over its own P*(G+1) rows, with its explained
    class fixed by ``classes``, so results do not depend on the block size.
    """
    g = groups.n_groups
    p = n_permutations
    n = len(samples)
    rows = p * (g + 1)
    per_block = max(1, _SVS_BLOCK_ROWS // rows)
    cell_group = groups.cell_group
    order = np.tile(np.arange(g), (p, 1))
    prefix = np.arange(g + 1)[:, None]  # prefix k: groups at positions < k
    flat = samples.reshape(n, 1, 1, -1)
    flat_base = baseline.reshape(-1)
    scores = np.empty((n, g), dtype=DTYPE)
    stderr = np.zeros_like(scores)
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        perms = np.stack([
            np.random.default_rng(np.random.SeedSequence([int(seed), int(sid)]))
            .permuted(order, axis=1)
            for sid in ids[lo:hi]
        ])  # [n_block, P, G]
        pos = np.argsort(perms, axis=2)  # pos[i, j, grp] = index of grp in perm j

        # on[i, j, k, cell]: the cell's group lies in the k-th prefix of perm j.
        # C order, or the broadcast picks a layout that reshape must copy.
        on = np.less(pos[..., cell_group][:, :, None, :], prefix, order="C")
        composites = np.where(on, flat[lo:hi], flat_base).reshape(
            hi - lo, rows, *samples.shape[1:]
        )
        values = np.stack([
            _scalar_batch(model, x, None if classes is None else int(classes[i]))
            for i, x in enumerate(composites, start=lo)
        ]).reshape(hi - lo, p, g + 1)
        marginals_by_step = np.diff(values, axis=2)  # in permutation order
        marginals = np.take_along_axis(marginals_by_step, pos, axis=2)  # by group

        scores[lo:hi] = marginals.mean(axis=1)
        if p > 1:
            stderr[lo:hi] = marginals.std(axis=1, ddof=1) / math.sqrt(p)
    return scores, stderr


def exact_shapley(
    model: Model, sample: np.ndarray, groups: FeatureGroups, baseline: np.ndarray
) -> np.ndarray:
    """Exact Shapley scores over all 2^G coalitions; G capped at 12."""
    g = groups.n_groups
    if g > 12:
        raise EstimatorError(f"too many groups for exact enumeration: {g} > 12")
    sample = np.ascontiguousarray(sample, dtype=DTYPE)
    baseline = np.ascontiguousarray(baseline, dtype=DTYPE)
    _check_inputs(model, sample[None], baseline, groups)

    class_idx = _predicted_classes(model, sample[None])
    ci = None if class_idx is None else int(class_idx[0])
    n_sets = 1 << g
    subsets = np.arange(n_sets, dtype=np.int64)
    member = ((subsets[:, None] >> np.arange(g)[None, :]) & 1).astype(bool)  # [S, G]
    cell_on = member[:, groups.cell_group]  # [S, T*B]
    composites = np.where(
        cell_on, sample.reshape(-1), baseline.reshape(-1)
    ).reshape(n_sets, *sample.shape)
    values = _scalar_batch(model, composites, ci)  # [S]

    sizes = member.sum(axis=1)
    fact = [math.factorial(i) for i in range(g + 1)]
    weights = np.array(
        [fact[s] * fact[g - 1 - s] / fact[g] for s in range(g)], dtype=np.float64
    )
    scores = np.zeros(g, dtype=np.float64)
    for grp in range(g):
        without = ~member[:, grp]
        idx = subsets[without]
        w = weights[sizes[without]]
        scores[grp] = np.sum(w * (values[idx | (1 << grp)] - values[idx]))
    return scores.astype(DTYPE)


# ---------------------------------------------------------------------------
# guided backprop


def _gb_rows(
    model: Model,
    samples: np.ndarray,
    groups: FeatureGroups,
    class_idx: Optional[np.ndarray],
) -> np.ndarray:
    """Signed group sums of the guided input gradient, chunked over samples."""
    masks = groups.mask.reshape(groups.n_groups, -1).astype(np.float64)
    rows = []
    for start in range(0, len(samples), _FORWARD_CHUNK):
        chunk = samples[start:start + _FORWARD_CHUNK]
        model.forward(chunk)
        if class_idx is None:
            selector = 0
        else:
            selector = class_idx[start:start + _FORWARD_CHUNK]
        grad = model.graph.backward_guided(selector)
        flat = grad.reshape(len(chunk), -1).astype(np.float64)
        rows.append(flat @ masks.T)
    return np.concatenate(rows).astype(DTYPE)


# ---------------------------------------------------------------------------
# ensembles


def _ensemble_rows(
    kind: str,
    base: str,
    model: Model,
    samples: np.ndarray,
    ids: tuple[int, ...],
    groups: FeatureGroups,
    baseline: Optional[np.ndarray],
    noise_range: Optional[np.ndarray],
    budget: ExplainBudget,
    seed: int,
    classes: Optional[np.ndarray],
) -> np.ndarray:
    """Per sample: the mean of squared replica rows (``kind`` sgs) or the
    variance of replica rows (``kind`` vargrad).

    Each replica runs the base estimator on the full (noised) batch, the same
    shape the plain estimator sees, so the zero-noise collapse is bit-exact.
    The explained class is fixed per sample, not re-chosen per noisy replica.
    """
    t, b = model.input_shape
    sigma = budget.noise_scale
    if sigma > 0:
        if noise_range is None:
            raise EstimatorError("noisy ensembles need a noise_range (see cell_span)")
        scale = (sigma * noise_range).astype(np.float64)
    rows = np.empty(
        (budget.ensemble_size, len(samples), groups.n_groups), dtype=np.float64
    )
    for r in range(budget.ensemble_size):
        if sigma > 0:
            noisy = np.empty_like(samples)
            for i, sid in enumerate(ids):
                noise_rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), int(sid), r])
                )
                noisy[i] = samples[i] + (
                    noise_rng.normal(size=(t, b)) * scale
                ).astype(DTYPE)
        else:
            noisy = samples
        if base == "gb":
            rows[r] = _gb_rows(model, noisy, groups, classes).astype(np.float64)
        else:
            rows[r] = _svs_rows(
                model, noisy, ids, groups, baseline, budget.n_permutations,
                seed, classes,
            )[0].astype(np.float64)
    if kind == "sgs":
        return np.mean(rows * rows, axis=0).astype(DTYPE)
    return np.var(rows, axis=0).astype(DTYPE)


def run_estimator(
    tag: str,
    model: Model,
    samples: np.ndarray,
    groups: FeatureGroups,
    budget: ExplainBudget,
    seed: int,
    baseline: Optional[np.ndarray] = None,
    noise_range: Optional[np.ndarray] = None,
    sample_ids: Optional[Sequence[int]] = None,
) -> AttributionMatrix:
    """Score every sample over ``groups`` with the estimator ``tag`` names.

    ``svs``: each permutation walks groups from the baseline toward the
    sample; a group's marginal contribution is the change in the explained
    scalar when its cells switch from baseline to sample values. Scores
    average over ``budget.n_permutations`` permutations, and the per-entry
    standard error of that Monte-Carlo mean comes with them. ``gb``: signed
    group sums of the guided-backprop input gradient. ``sgs-<base>`` and
    ``vargrad-<base>``: the mean square and the variance of the base scores
    over ``budget.ensemble_size`` replicas, each cell noised with standard
    deviation ``budget.noise_scale`` times its ``noise_range`` entry (a
    ``[T, B]`` array, needed when that scale is positive). Every svs base
    needs a ``baseline``; rows are keyed by ``sample_ids`` (default:
    positions).
    """
    if tag not in ESTIMATOR_TAGS:
        raise EstimatorError(f"unknown estimator tag {tag!r}")
    kind, _, base = tag.rpartition("-")
    if base == "svs" and baseline is None:
        raise EstimatorError("svs needs a baseline")
    samples = np.ascontiguousarray(samples, dtype=DTYPE)
    if baseline is not None:
        baseline = np.ascontiguousarray(baseline, dtype=DTYPE)
    if noise_range is not None:
        noise_range = np.asarray(noise_range, dtype=DTYPE)
    _check_inputs(model, samples, baseline, groups, noise_range)
    ids = tuple(range(len(samples)) if sample_ids is None else map(int, sample_ids))
    if len(ids) != len(samples):
        raise EstimatorError("sample_ids length must match samples")
    classes = _predicted_classes(model, samples)
    stderr = None
    if kind:
        scores = _ensemble_rows(
            kind, base, model, samples, ids, groups, baseline, noise_range, budget,
            seed, classes,
        )
    elif base == "gb":
        scores = _gb_rows(model, samples, groups, classes)
    else:
        scores, stderr = _svs_rows(
            model, samples, ids, groups, baseline, budget.n_permutations, seed,
            classes,
        )
    return AttributionMatrix(
        sample_ids=ids, axis=groups.axis, group_ids=groups.ids,
        scores=scores, estimator_tag=tag, stderr=stderr,
    )
