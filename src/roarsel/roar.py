"""Deletion campaigns: rank groups, remove the extremes, retrain, repeat.

A campaign trains a model on the full grid, scores band or time-step
groups with an attribution estimator, physically deletes the k most (or
least) important groups from every split, rebuilds the model for the
smaller input, and retrains from scratch. The loop runs until one group
survives. The recorded curve answers two questions: which small set of
groups is sufficient to keep the baseline metric, and which groups are
necessary to stay above a chosen floor.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .attribution import (
    ESTIMATOR_TAGS,
    ExplainBudget,
    GroupingAxis,
    ImportanceRanking,
    aggregate_rank,
    cell_span,
    feature_groups,
    mean_baseline,
    run_estimator,
)
from .codec import decode, decode_enums, encode, finite
from .data import SplitTriple, delete_bands, delete_timesteps, write_atomic, write_json
from .errors import ConfigError, CurveError, RoarAborted, RoarselError
from .models import ModelSpec, resize_for_input
from .training import MetricValue, TrainConfig, TrainReport, evaluate, train


CURVE_FORMAT = 2  # part of a curve's fingerprint; bump it when curve bytes change


class DeletionOrder(str, Enum):
    MOST_FIRST = "most_first"
    LEAST_FIRST = "least_first"


_DELETE = {
    GroupingAxis.BY_BAND: delete_bands,
    GroupingAxis.BY_TIMESTEP: delete_timesteps,
}


@dataclass(frozen=True)
class DeletionPlan:
    """What to delete, in which direction, and how to score it.

    ``k`` of None resolves per run: one group per cycle, or ceil(T/20)
    when deleting time steps of a series longer than 30. ``tolerance``
    is the absolute validation-metric slack used by sufficiency queries.
    """

    axis: GroupingAxis
    order: DeletionOrder
    estimator_tag: str = "svs"
    budget: ExplainBudget = field(default_factory=ExplainBudget)
    k: Optional[int] = None
    tolerance: float = 0.02

    def __post_init__(self):
        decode_enums(self)
        if self.estimator_tag not in ESTIMATOR_TAGS:
            raise ConfigError(f"unknown estimator tag {self.estimator_tag!r}")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be at least 1")
        if not finite(self.tolerance):
            raise ConfigError(f"tolerance must be finite, got {self.tolerance}")
        if self.tolerance < 0:
            raise ConfigError("tolerance cannot be negative")

    def step_size(self, n_groups: int) -> int:
        """Groups removed per cycle, given the starting group count."""
        if self.k is not None:
            return self.k
        if self.axis is GroupingAxis.BY_TIMESTEP and n_groups > 30:
            return math.ceil(n_groups / 20)
        return 1


@dataclass(frozen=True)
class CycleRecord:
    """One retrain-and-explain step. Cycle 0 is the untouched baseline.

    ``removed_ids`` are the stable ids deleted going INTO this cycle;
    ``ranking`` is computed on the retrained model and decides the next
    removal.
    """

    cycle: int
    removed_ids: tuple[int, ...]
    remaining: int
    report: TrainReport
    val_metric: MetricValue
    test_metric: MetricValue
    ranking: ImportanceRanking

    def __post_init__(self):
        if self.cycle < 0 or self.remaining < 1:
            raise CurveError("cycle must be >= 0 with at least one group left")
        if len(set(self.removed_ids)) != len(self.removed_ids):
            raise CurveError("removed ids must be unique")
        if len(self.ranking.group_ids) != self.remaining:
            raise CurveError("ranking must cover exactly the remaining groups")
        if self.val_metric != self.report.val_metric:
            raise CurveError("val_metric must equal report.val_metric")


@dataclass(frozen=True)
class DeletionCurve:
    """A campaign's full trace: baseline plus one record per deletion.

    ``fingerprint`` is the sha256 of what the curve was computed from, which
    ``roar --resume`` compares before it reuses a curve file.
    """

    plan: DeletionPlan
    baseline: CycleRecord
    records: tuple[CycleRecord, ...]
    fingerprint: Optional[str] = None

    def __post_init__(self):
        if self.baseline.cycle != 0 or self.baseline.removed_ids:
            raise CurveError("baseline must be cycle 0 with nothing removed")
        if any(r.ranking.axis is not self.plan.axis for r in self.all_records()):
            raise CurveError("ranking axis must match the plan")
        survivors = set(self.baseline.ranking.group_ids)
        remaining = self.baseline.remaining
        for i, rec in enumerate(self.records, start=1):
            if rec.cycle != i:
                raise CurveError("cycle indices must be consecutive")
            removed = set(rec.removed_ids)
            if not removed or not removed <= survivors:
                raise CurveError("each cycle must remove surviving groups")
            survivors -= removed
            if rec.remaining != remaining - len(removed):
                raise CurveError("remaining count must drop by the removal size")
            remaining = rec.remaining
            if set(rec.ranking.group_ids) != survivors:
                raise CurveError("cycle ranking must cover exactly the survivors")

    @property
    def n_groups(self) -> int:
        return self.baseline.remaining

    def all_records(self) -> tuple[CycleRecord, ...]:
        return (self.baseline, *self.records)


# ---------------------------------------------------------------------------
# the campaign loop


def _cycle_seed(seed: int, cycle: int, stream: int) -> int:
    """Per-cycle derived seed; stream 0 builds and trains, stream 1 explains."""
    return int(np.random.SeedSequence([int(seed), int(cycle), stream]).generate_state(1)[0])


def _explained_ids(n_train: int, n_samples: Optional[int], seed: int) -> tuple[int, ...]:
    """The sorted training-sample ids a campaign explains in every cycle:
    ``n_samples`` of them (None: up to 5000), drawn once from the seed."""
    wanted = min(5000, n_train) if n_samples is None else min(n_samples, n_train)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 5]))
    return tuple(sorted(int(i) for i in rng.choice(n_train, size=wanted, replace=False)))


def _run_cycle(
    cur: SplitTriple,
    spec: ModelSpec,
    cfg: TrainConfig,
    plan: DeletionPlan,
    sample_ids: tuple[int, ...],
    seed: int,
    cycle: int,
    removed_ids: tuple[int, ...],
) -> CycleRecord:
    fit_seed = _cycle_seed(seed, cycle, 0)
    model = resize_for_input(spec, cur.train.schema, fit_seed)
    model, report = train(model, cur.train, cur.validation, cfg, fit_seed)
    test = evaluate(model, cur.test)

    groups = feature_groups(cur.train.schema, plan.axis)
    matrix = run_estimator(
        plan.estimator_tag,
        model,
        cur.train.values[np.asarray(sample_ids, dtype=np.int64)],
        groups,
        plan.budget,
        _cycle_seed(seed, cycle, 1),
        baseline=mean_baseline(cur.train),
        noise_range=cell_span(cur.train),
        sample_ids=sample_ids,
    )
    return CycleRecord(
        cycle=cycle,
        removed_ids=removed_ids,
        remaining=groups.n_groups,
        report=report,
        val_metric=report.val_metric,
        test_metric=test,
        ranking=aggregate_rank(matrix),
    )


def run_roar(
    splits: SplitTriple,
    spec: ModelSpec,
    cfg: TrainConfig,
    plan: DeletionPlan,
    seed: int,
    on_cycle: Optional[Callable[[DeletionCurve], None]] = None,
) -> DeletionCurve:
    """Run a deletion campaign until a single group survives.

    Each cycle retrains from fresh weights on the shrunken splits, then
    re-explains the retrained model on the same training samples, drawn
    once from ``seed``; the new ranking alone decides the next removal.
    Deterministic for a given seed. After every cycle, ``on_cycle``
    receives the curve so far, so a caller can checkpoint it; the last
    such curve is returned. Any package error inside a cycle (training
    divergence, constant targets, an estimator failure) aborts the run
    with ``RoarAborted``; a negative seed is a ``ConfigError``, raised first.
    """
    if seed < 0:
        raise ConfigError(f"seed must not be negative, got {seed}")
    step = plan.step_size(feature_groups(splits.train.schema, plan.axis).n_groups)
    sample_ids = _explained_ids(splits.train.n_samples, plan.budget.n_samples, seed)
    records: list[CycleRecord] = []  # records[0] is the baseline
    cur = splits
    removed: tuple[int, ...] = ()
    while True:
        cycle = len(records)
        try:
            record = _run_cycle(cur, spec, cfg, plan, sample_ids, seed, cycle, removed)
        except RoarselError as exc:
            raise RoarAborted(f"cycle {cycle} failed: {exc}") from exc
        records.append(record)
        curve = DeletionCurve(plan, records[0], tuple(records[1:]))
        if on_cycle is not None:
            on_cycle(curve)
        if record.remaining <= 1:
            return curve
        n_del = min(step, record.remaining - 1)
        if plan.order is DeletionOrder.MOST_FIRST:
            removed = record.ranking.top(n_del)
        else:
            removed = record.ranking.bottom(n_del)
        cur = cur.map(lambda d, ids=removed: _DELETE[plan.axis](d, ids))


# ---------------------------------------------------------------------------
# curve queries


def sufficient_set(curve: DeletionCurve) -> tuple[frozenset[int], MetricValue]:
    """Smallest surviving set that keeps the validation metric within
    the plan tolerance of the baseline, and that cycle's metric."""
    if curve.plan.order is not DeletionOrder.LEAST_FIRST:
        raise CurveError("sufficient set needs a least_first curve")
    floor = curve.baseline.val_metric.value - curve.plan.tolerance
    # survivors shrink every cycle, so the last record that keeps the floor
    # ranks the smallest set; the baseline keeps it, as tolerance >= 0
    rec = next((r for r in reversed(curve.records) if r.val_metric.value >= floor),
               curve.baseline)
    return frozenset(rec.ranking.group_ids), rec.val_metric


def necessary_set(curve: DeletionCurve, floor: float) -> frozenset[int]:
    """Groups removed up to the first cycle whose validation metric
    falls below ``floor``; empty if the curve never crosses it."""
    if curve.plan.order is not DeletionOrder.MOST_FIRST:
        raise CurveError("necessary set needs a most_first curve")
    if not math.isfinite(floor):
        raise CurveError(f"necessary-set floor must be finite, not {floor}")
    rec = next((r for r in curve.records if r.val_metric.value < floor), curve.baseline)
    return frozenset(curve.baseline.ranking.group_ids) - set(rec.ranking.group_ids)


# ---------------------------------------------------------------------------
# persistence


CURVE_CSV_COLUMNS = ("cycle", "fraction_removed", "val_metric", "test_metric")


def curve_csv_text(curve: DeletionCurve) -> str:
    """Flat per-cycle series; floats keep full shortest-repr precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_CSV_COLUMNS)
    total = curve.n_groups
    for rec in curve.all_records():
        fraction = (total - rec.remaining) / total
        writer.writerow([rec.cycle, fraction, rec.val_metric.value, rec.test_metric.value])
    return buf.getvalue()


def save_curve_csv(curve: DeletionCurve, path: str | Path) -> None:
    write_atomic(path, curve_csv_text(curve))


def save_curve(curve: DeletionCurve, path: str | Path) -> None:
    """Full structured trace as JSON, written atomically."""
    write_json(path, encode(curve))


def load_curve(path: str | Path) -> DeletionCurve:
    """Read a curve file; any problem with it is a CurveError naming the path."""
    try:
        return decode(DeletionCurve, json.loads(Path(path).read_text()), "curve")
    except FileNotFoundError:
        raise CurveError(f"no curve file at {path}") from None
    except (OSError, ValueError, RoarselError) as exc:
        raise CurveError(f"unreadable curve {path}: {exc}") from exc
