"""Feature-attribution estimators over grouped inputs, plus the ranking step.

Four estimators: Shapley value sampling (permutation Monte Carlo over feature
groups against a reference input), guided backprop, and the SmoothGrad-squared
and VarGrad ensembles over either base. An exact Shapley oracle enumerating
all coalitions backs the sampling estimator for small group counts.

Grouping follows one of three axes: all bands at one time step, the full
series of one band, or each cell on its own. Band and time-step groups carry
the schema's stable ids so rankings stay meaningful while data shrinks;
singleton ids are row-major positions over the current grid.

The explained scalar is the predicted-class logit for classification (labels
never consulted) and the model output for regression.

Determinism: every sample owns an RNG stream keyed by (seed, sample id), so
results are independent of batching or scheduling. Ensemble noise draws from
streams keyed by (seed, sample id, replica) while the base estimator keeps
the sample's own stream; with zero noise every replica therefore reproduces
the base attribution exactly, which is what the collapse properties assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .data import FeatureSchema, Task, TensorDataset
from .engine import DTYPE
from .errors import EstimatorError
from .models import Model

ESTIMATOR_TAGS = ("svs", "gb", "sgs-svs", "sgs-gb", "vargrad-svs", "vargrad-gb")

_FORWARD_CHUNK = 4096


class GroupingAxis(str, Enum):
    BY_TIMESTEP = "by_timestep"
    BY_BAND = "by_band"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class FeatureGroups:
    """A partition of the T x B grid into scored groups."""

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


def feature_groups(
    grid: Union[FeatureSchema, tuple[int, int]], axis: GroupingAxis
) -> FeatureGroups:
    """Grouping over a schema, or over a bare (T, B) grid shape.

    Band and step groups carry the schema's stable ids; over a bare shape
    they carry grid positions. Singleton ids are row-major positions.
    """
    if isinstance(grid, FeatureSchema):
        t, b = grid.n_timesteps, grid.n_bands
        band_ids, step_ids = grid.band_ids, grid.step_ids
    else:
        t, b = grid
        band_ids, step_ids = range(b), range(t)
    if axis is GroupingAxis.BY_BAND:
        ids = band_ids
        mask = np.eye(b, dtype=bool)[:, None, :].repeat(t, axis=1)
    elif axis is GroupingAxis.BY_TIMESTEP:
        ids = step_ids
        mask = np.eye(t, dtype=bool)[:, :, None].repeat(b, axis=2)
    else:
        ids = range(t * b)
        mask = np.eye(t * b, dtype=bool).reshape(t * b, t, b)
    return FeatureGroups(axis=axis, ids=tuple(ids), mask=mask)


def _resolve_groups(axis_or_groups, model: Model) -> FeatureGroups:
    if isinstance(axis_or_groups, FeatureGroups):
        return axis_or_groups
    return feature_groups(model.input_shape, GroupingAxis(axis_or_groups))


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
    """Estimator budgets; freeze once per experiment against the train split.

    ``n_samples`` of None resolves to min(5000, N_train) at freeze time.
    The frozen sample selection is reused across deletion cycles; the noise
    range (per-cell training min-to-max span) is refreshed per cycle because
    the grid shrinks.
    """

    n_samples: Optional[int] = None
    n_permutations: int = 64
    ensemble_size: int = 15
    noise_scale: float = 0.15
    sample_ids: Optional[tuple[int, ...]] = None
    noise_range: Optional[np.ndarray] = None  # [T, B] float32

    def __post_init__(self):
        if self.n_samples is not None and self.n_samples < 1:
            raise EstimatorError("n_samples must be positive")
        if self.n_permutations < 1 or self.ensemble_size < 1:
            raise EstimatorError("permutations and ensemble size must be positive")
        if self.noise_scale < 0:
            raise EstimatorError("noise scale cannot be negative")

    def freeze(self, train: TensorDataset, seed: int) -> "ExplainBudget":
        """Resolve sample ids (once) and refresh the per-cell noise range."""
        n = train.n_samples
        wanted = min(5000, n) if self.n_samples is None else min(self.n_samples, n)
        ids = self.sample_ids
        if ids is None:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 5]))
            ids = tuple(sorted(int(i) for i in rng.choice(n, size=wanted, replace=False)))
        span = (train.values.max(axis=0) - train.values.min(axis=0)).astype(DTYPE)
        return replace(self, n_samples=len(ids), sample_ids=ids, noise_range=span)

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_permutations": self.n_permutations,
            "ensemble_size": self.ensemble_size,
            "noise_scale": self.noise_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExplainBudget":
        return cls(**d)


def mean_baseline(train: TensorDataset) -> np.ndarray:
    """Per-feature training mean, the default reference input."""
    return train.values.mean(axis=0, dtype=np.float64).astype(DTYPE)


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


def _check_inputs(model: Model, samples: np.ndarray, baseline: Optional[np.ndarray]):
    t, b = model.input_shape
    if samples.ndim != 3 or samples.shape[1:] != (t, b):
        raise EstimatorError(
            f"samples shape {samples.shape} does not match model input ({t}, {b})"
        )
    if baseline is not None and baseline.shape != (t, b):
        raise EstimatorError(
            f"baseline shape {baseline.shape} does not match model input ({t}, {b})"
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

    Each sample's permutations come from an RNG keyed by (seed, sample id),
    and its explained class is fixed by ``classes``.
    """
    g = groups.n_groups
    p = n_permutations
    masks = groups.mask.reshape(g, -1).astype(np.uint8)  # [G, T*B]
    prefix = np.arange(g + 1)[None, :, None]
    flat_base = baseline.reshape(-1)
    scores = np.empty((len(samples), g), dtype=DTYPE)
    stderr = np.zeros_like(scores)
    for i, sid in enumerate(ids):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(sid)]))
        perms = np.empty((p, g), dtype=np.int64)
        for j in range(p):
            perms[j] = rng.permutation(g)
        pos = np.argsort(perms, axis=1)  # pos[j, grp] = index of grp in perm j

        # inclusion[j, k, grp]: group present in the k-th prefix of permutation j
        inclusion = (pos[:, None, :] < prefix).astype(np.uint8)  # [p, G+1, G]
        cell_on = inclusion @ masks  # [p, G+1, T*B] counts in {0, 1}
        composites = np.where(cell_on.astype(bool), samples[i].reshape(-1), flat_base)
        composites = composites.astype(DTYPE).reshape(p * (g + 1), *samples.shape[1:])

        ci = None if classes is None else int(classes[i])
        values = _scalar_batch(model, composites, ci).reshape(p, g + 1)
        marginals_by_step = np.diff(values, axis=1)  # [p, G] in permutation order
        marginals = np.take_along_axis(marginals_by_step, pos, axis=1)  # by group

        scores[i] = marginals.mean(axis=0)
        if p > 1:
            stderr[i] = marginals.std(axis=0, ddof=1) / math.sqrt(p)
    return scores, stderr


def svs(
    model: Model,
    samples: np.ndarray,
    axis: Union[GroupingAxis, FeatureGroups],
    baseline: np.ndarray,
    budget: ExplainBudget,
    seed: int,
    sample_ids: Optional[Sequence[int]] = None,
) -> AttributionMatrix:
    """Permutation-sampling Shapley estimates per sample and group.

    Each permutation walks groups from the baseline toward the sample; a
    group's marginal contribution is the change in the explained scalar when
    its cells switch from baseline to sample values. Scores average over
    ``budget.n_permutations`` permutations; the per-entry standard error of
    that Monte-Carlo mean is returned alongside.
    """
    groups = _resolve_groups(axis, model)
    samples = np.ascontiguousarray(samples, dtype=DTYPE)
    baseline = np.ascontiguousarray(baseline, dtype=DTYPE)
    _check_inputs(model, samples, baseline)
    ids = _resolve_ids(sample_ids, len(samples))
    scores, stderr = _svs_rows(
        model, samples, ids, groups, baseline, budget.n_permutations, seed,
        _predicted_classes(model, samples),
    )
    return AttributionMatrix(
        sample_ids=ids, axis=groups.axis, group_ids=groups.ids,
        scores=scores, estimator_tag="svs", stderr=stderr,
    )


def exact_shapley(
    model: Model,
    sample: np.ndarray,
    axis: Union[GroupingAxis, FeatureGroups],
    baseline: np.ndarray,
) -> np.ndarray:
    """Exact Shapley scores over all 2^G coalitions; G capped at 12."""
    groups = _resolve_groups(axis, model)
    g = groups.n_groups
    if g > 12:
        raise EstimatorError(f"too many groups for exact enumeration: {g} > 12")
    sample = np.ascontiguousarray(sample, dtype=DTYPE)
    baseline = np.ascontiguousarray(baseline, dtype=DTYPE)
    _check_inputs(model, sample[None], baseline)

    class_idx = _predicted_classes(model, sample[None])
    ci = None if class_idx is None else int(class_idx[0])
    masks = groups.mask.reshape(g, -1)
    n_sets = 1 << g
    subsets = np.arange(n_sets, dtype=np.int64)
    member = ((subsets[:, None] >> np.arange(g)[None, :]) & 1).astype(bool)  # [S, G]
    cell_on = member.astype(np.uint8) @ masks.astype(np.uint8)  # [S, T*B]
    composites = np.where(
        cell_on.astype(bool), sample.reshape(-1), baseline.reshape(-1)
    ).astype(DTYPE).reshape(n_sets, *sample.shape)
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


def _resolve_ids(sample_ids, n) -> tuple[int, ...]:
    if sample_ids is None:
        return tuple(range(n))
    ids = tuple(int(s) for s in sample_ids)
    if len(ids) != n:
        raise EstimatorError("sample_ids length must match samples")
    return ids


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


def gb(
    model: Model,
    samples: np.ndarray,
    axis: Union[GroupingAxis, FeatureGroups],
    sample_ids: Optional[Sequence[int]] = None,
) -> AttributionMatrix:
    """Guided-backprop attribution; group score sums the signed cell values."""
    groups = _resolve_groups(axis, model)
    samples = np.ascontiguousarray(samples, dtype=DTYPE)
    _check_inputs(model, samples, None)
    ids = _resolve_ids(sample_ids, len(samples))
    class_idx = _predicted_classes(model, samples)
    scores = _gb_rows(model, samples, groups, class_idx)
    return AttributionMatrix(
        sample_ids=ids, axis=groups.axis, group_ids=groups.ids,
        scores=scores, estimator_tag="gb",
    )


# ---------------------------------------------------------------------------
# ensembles


def _ensemble_rows(
    base: str,
    model: Model,
    samples: np.ndarray,
    groups: FeatureGroups,
    baseline: Optional[np.ndarray],
    budget: ExplainBudget,
    seed: int,
    ids: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample: (mean of squared replica rows, variance of replica rows).

    Each replica runs the base estimator on the full (noised) batch, the same
    shape the plain estimator sees, so the zero-noise collapse is bit-exact.
    """
    if base == "svs" and baseline is None:
        raise EstimatorError("svs base needs a baseline")
    t, b = model.input_shape
    sigma = budget.noise_scale
    if sigma > 0:
        if budget.noise_range is None:
            raise EstimatorError(
                "noisy ensembles need a frozen budget (per-feature noise range)"
            )
        scale = (sigma * budget.noise_range).astype(np.float64)
    # the explained class is fixed per sample, not re-chosen per noisy replica
    classes = _predicted_classes(model, samples)
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
    sq_mean = np.mean(rows * rows, axis=0).astype(DTYPE)
    variance = np.var(rows, axis=0).astype(DTYPE)
    return sq_mean, variance


def run_estimator(
    tag: str,
    model: Model,
    samples: np.ndarray,
    axis: Union[GroupingAxis, FeatureGroups],
    budget: ExplainBudget,
    seed: int,
    baseline: Optional[np.ndarray] = None,
    sample_ids: Optional[Sequence[int]] = None,
) -> AttributionMatrix:
    """Dispatch on an estimator tag (svs, gb, sgs-*, vargrad-*)."""
    if tag == "svs":
        if baseline is None:
            raise EstimatorError("svs needs a baseline")
        return svs(model, samples, axis, baseline, budget, seed, sample_ids)
    if tag == "gb":
        return gb(model, samples, axis, sample_ids)
    if tag.startswith("sgs-") or tag.startswith("vargrad-"):
        kind, base = tag.split("-", 1)
        if base not in ("svs", "gb"):
            raise EstimatorError(f"unknown estimator tag {tag!r}")
        groups = _resolve_groups(axis, model)
        samples = np.ascontiguousarray(samples, dtype=DTYPE)
        _check_inputs(model, samples, baseline)
        ids = _resolve_ids(sample_ids, len(samples))
        sq_mean, variance = _ensemble_rows(
            base, model, samples, groups, baseline, budget, seed, ids
        )
        return AttributionMatrix(
            sample_ids=ids, axis=groups.axis, group_ids=groups.ids,
            scores=sq_mean if kind == "sgs" else variance, estimator_tag=tag,
        )
    raise EstimatorError(f"unknown estimator tag {tag!r}")
