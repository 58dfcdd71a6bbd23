"""Feature-attribution estimators over grouped inputs, plus the ranking step.

Four estimators: Shapley value sampling (permutation Monte Carlo over feature
groups against a reference input), guided backprop, and the SmoothGrad-squared
and VarGrad ensembles over either base. ``run_estimator`` is the one entry to
all of them.

Grouping follows one of two axes: all bands at one time step, or the full
series of one band. Groups carry the schema's stable ids, so rankings stay
meaningful while data shrinks.

The explained scalar is the predicted-class logit for classification (labels
never consulted) and the model output for regression: the argmax column of
the model's output, which is column 0 for a one-column regression head.

``run_estimator`` maps one function over blocks of samples, with the
replicas of the base estimator inside each block: a plain tag is one
noise-free replica, and an ``sgs-`` or ``vargrad-`` tag runs R noised ones
and reduces them per entry by the mean square or the variance. A Shapley
block's permutation plan reads no input value, so its replicas share it, and
each replica builds its rows with one ``np.where`` through it. A sample's
Shapley rows are the baseline, composites 1..G-1 of each of its P
permutations, and the sample: prefixes 0 and G are the same row in every
permutation, so P*(G-1)+2 rows carry all P*(G+1) prefix values. A block's
replicas are reduced to scores in one pass.

Determinism: each sample has one random stream per call, keyed by (seed,
sample id). It draws the sample's permutations first and then each replica's
noise, one replica at a time in replica order. Every forward and guided
backward runs over the fixed-shape tiles of ``models.tiles``, and everything
after it works entry by entry, so a sample's scores depend on the model, its
id and its values alone: not on the other samples, the block size or
``n_samples``. So the blocks may run in the forked lanes of
``lanes.fork_map``, and the bytes are the same in any number of lanes. With
zero noise every replica reproduces the base attribution exactly, which is
what the collapse properties assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .codec import decode
from .data import FeatureSchema, TensorDataset
from .engine import DTYPE
from .errors import EstimatorError
from .lanes import fork_map
from .models import TILE, Model, tiles

ESTIMATOR_TAGS = ("svs", "gb", "sgs-svs", "sgs-gb", "vargrad-svs", "vargrad-gb")

_BLOCK_ROWS = 8 * TILE  # forward rows per block and replica, a memory bound


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


def feature_groups(schema: FeatureSchema, axis: GroupingAxis) -> FeatureGroups:
    """Grouping over a schema's grid; groups carry its stable ids. ``axis``
    may be given by its value, such as ``"by_band"``."""
    axis = decode(GroupingAxis, axis, "axis")
    t, b = schema.n_timesteps, schema.n_bands
    if axis is GroupingAxis.BY_BAND:
        ids = schema.band_ids
        mask = np.eye(b, dtype=bool)[:, None, :].repeat(t, axis=1)
    else:
        ids = schema.step_ids
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
        if not math.isfinite(self.noise_scale):
            raise EstimatorError(f"noise scale must be finite, got {self.noise_scale}")
        if self.noise_scale < 0:
            raise EstimatorError("noise scale cannot be negative")


def mean_baseline(train: TensorDataset) -> np.ndarray:
    """Per-feature training mean, the default reference input."""
    return train.values.mean(axis=0, dtype=np.float64).astype(DTYPE)


def cell_span(train: TensorDataset) -> np.ndarray:
    """Per-cell training min-to-max span, the ensembles' noise range."""
    return (train.values.max(axis=0) - train.values.min(axis=0)).astype(DTYPE)


# ---------------------------------------------------------------------------
# input checks


def _check_inputs(
    model: Model,
    samples: np.ndarray,
    baseline: Optional[np.ndarray],
    groups: FeatureGroups,
    noise_range: Optional[np.ndarray] = None,
):
    t, b = model.graph.input_shape
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
    for name, values in (("samples", samples), ("baseline", baseline),
                         ("noise_range", noise_range)):
        if values is not None and not np.isfinite(values).all():
            raise EstimatorError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# Shapley value sampling


def _svs_plan(streams: list[np.random.Generator], groups: FeatureGroups,
              n_permutations: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's permutation plan, which reads no input value: ``pos``
    [n, P, G], each group's position in each of a sample's P permutations,
    drawn from the sample's stream, and ``on`` bool [n, P*(G-1)+2, T*B],
    whether each cell of each of a sample's rows takes the sample's value
    rather than the baseline's. A sample's rows are the baseline, composites
    1..G-1 of each permutation (composite k takes from the sample the cells
    whose group lies at a position below k), then the sample: prefixes 0 and
    G are one row for every permutation."""
    n, g, cell_group = len(streams), groups.n_groups, groups.cell_group
    order = np.tile(np.arange(g), (n_permutations, 1))
    pos = np.argsort(np.stack([rng.permuted(order, axis=1) for rng in streams]), axis=2)
    on = np.empty((n, n_permutations * (g - 1) + 2, cell_group.size), dtype=bool)
    on[:, 0] = False  # the baseline
    on[:, 1:-1] = (pos[..., cell_group][:, :, None, :] < np.arange(1, g)[:, None]
                   ).reshape(n, -1, cell_group.size)
    on[:, -1] = True  # the sample
    return pos, on


def _svs_values(model: Model, xs: np.ndarray, plan: tuple[np.ndarray, np.ndarray],
                baseline: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The explained scalar at every prefix of the plan's permutations,
    [n, P, G+1], from one ``Model.infer`` over all the block's rows."""
    pos, on = plan
    n, p, g = pos.shape
    rows = np.where(on, xs.reshape(n, 1, -1), baseline.reshape(-1))
    out = model.infer(rows.reshape(-1, *xs.shape[1:])).reshape(n, on.shape[1], -1)
    out = np.take_along_axis(out, classes[:, None, None], axis=2)[..., 0]
    values = np.empty((n, p, g + 1))
    values[:, :, 0] = out[:, :1]
    values[:, :, 1:g] = out[:, 1:-1].reshape(n, p, g - 1)
    values[:, :, g] = out[:, -1:]
    return values


# ---------------------------------------------------------------------------
# guided backprop


def _gb_rows(model: Model, xs: np.ndarray, groups: FeatureGroups,
             classes: np.ndarray) -> np.ndarray:
    """Signed group sums of the guided input gradient of each sample's
    ``classes`` column, from a forward and a guided backward over each of
    the ``tiles`` that ``Model.infer`` forwards; padding rows select 0."""
    masks = groups.mask.reshape(groups.n_groups, -1).astype(np.float64)
    rows = []
    for tile, cls in zip(tiles(xs), tiles(classes)):
        model.graph.forward(tile)
        grad = model.graph.backward_guided(cls)
        rows.append(grad.reshape(len(tile), -1).astype(np.float64) @ masks.T)
    return np.concatenate(rows)[:len(xs)].astype(DTYPE)


# ---------------------------------------------------------------------------
# replicas


def _noise_std(noise_scale: float, noise_range: np.ndarray) -> np.ndarray:
    """The per-cell noise standard deviation ``noise_scale * noise_range``,
    which must stay within float32 range."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = noise_scale * noise_range
    if not np.abs(std).max(initial=0.0) <= np.finfo(DTYPE).max:  # NaN fails too
        raise EstimatorError(f"noise_scale {noise_scale} times noise_range exceeds "
                             "float32's largest value")
    return std


def _noised(samples: np.ndarray, streams: Optional[list[np.random.Generator]],
            scale: Optional[np.ndarray]) -> np.ndarray:
    """The next replica's input: each sample plus Gaussian noise of per-cell
    standard deviation ``scale``, drawn from the sample's stream; ``samples``
    itself without a scale. A noised value beyond float32 range is an
    ``EstimatorError``."""
    if scale is None:
        return samples
    draws = np.stack([rng.normal(size=samples.shape[1:]) for rng in streams])
    try:
        with np.errstate(over="raise"):
            return samples + (draws * scale).astype(DTYPE)
    except FloatingPointError:
        raise EstimatorError("a noised sample leaves float32 range; lower noise_scale"
                             ) from None


def _reduced(kind: str, replicas: np.ndarray) -> np.ndarray:
    """The mean square (``sgs``) or the variance (``vargrad``) of the float32
    replica scores [R, n, G], in float64. Replicas are added in turn, as NumPy
    reduces a stack of more than one entry, so a row's bytes never depend on
    its block."""
    reps = [rows.astype(np.float64) for rows in replicas]
    if kind == "vargrad":
        mean = sum(reps[1:], reps[0]) / len(reps)
        reps = [r - mean for r in reps]
    squares = [r * r for r in reps]
    return sum(squares[1:], squares[0]) / len(reps)


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
    positions). No samples, a non-finite sample, baseline or noise range, a
    noise standard deviation beyond float32 range, a negative sample id or a
    negative seed is an ``EstimatorError``, raised before any forward call;
    so is a noised sample beyond float32 range, when it is drawn, and a
    forked lane that exits without sending its blocks' scores.
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
    std = None if noise_range is None else _noise_std(budget.noise_scale, noise_range)
    if len(samples) == 0:
        raise EstimatorError("samples must hold at least one sample")
    ids = tuple(range(len(samples)) if sample_ids is None else map(int, sample_ids))
    if len(ids) != len(samples):
        raise EstimatorError("sample_ids length must match samples")
    if min(ids) < 0:
        raise EstimatorError(f"sample_ids must not be negative, got {min(ids)}")
    seed = int(seed)
    if seed < 0:
        raise EstimatorError(f"seed must not be negative, got {seed}")
    scale = None
    if kind and budget.noise_scale > 0:
        if std is None:
            raise EstimatorError("noisy ensembles need a noise_range (see cell_span)")
        scale = std.astype(np.float64)
    classes = model.infer(samples).argmax(axis=1)  # fixed across noisy replicas
    p, g = budget.n_permutations, groups.n_groups
    per_block = max(1, _BLOCK_ROWS // (p * (g - 1) + 2 if base == "svs" else 1))

    def block_rows(i: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Block ``i``'s score rows, and its stderr rows for plain ``svs``."""
        block = slice(i * per_block, (i + 1) * per_block)
        cls = classes[block]
        # one stream per sample: the plan draws its permutations first, then
        # each replica draws its noise when it runs
        streams = ([np.random.default_rng(np.random.SeedSequence([seed, sid]))
                    for sid in ids[block]] if base == "svs" or scale is not None else None)
        plan = _svs_plan(streams, groups, p) if base == "svs" else None
        inputs = (_noised(samples[block], streams, scale)
                  for _ in range(budget.ensemble_size if kind else 1))
        stderr = None
        if base == "gb":
            replicas = np.stack([_gb_rows(model, xs, groups, cls) for xs in inputs])
        else:
            values = np.stack([_svs_values(model, xs, plan, baseline, cls)
                               for xs in inputs])
            # [R, n, P, G]: each group's marginal contribution in each permutation
            marginals = np.take_along_axis(np.diff(values, axis=3), plan[0][None], axis=3)
            replicas = marginals.mean(axis=2).astype(DTYPE)
            if tag == "svs":
                stderr = (marginals[0].std(axis=1, ddof=1) / math.sqrt(p) if p > 1
                          else np.zeros(replicas.shape[1:])).astype(DTYPE)
        return (_reduced(kind, replicas) if kind else replicas[0]).astype(DTYPE), stderr

    blocks = fork_map(block_rows, math.ceil(len(ids) / per_block),
                      lambda lost: EstimatorError("an explaining process exited "
                                                  f"without the scores of blocks {lost}"))
    scores = np.concatenate([rows for rows, _ in blocks])
    stderr = np.concatenate([rows for _, rows in blocks]) if tag == "svs" else None
    return AttributionMatrix(
        sample_ids=ids, axis=groups.axis, group_ids=groups.ids,
        scores=scores, estimator_tag=tag, stderr=stderr,
    )
