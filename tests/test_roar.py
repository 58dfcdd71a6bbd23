"""Deletion campaigns, curve queries, and curve persistence."""

import numpy as np
import pytest
from conftest import fab_curve, fab_rank, fab_record, fab_report

from roarsel import roar
from roarsel.attribution import ExplainBudget, GroupingAxis, cell_span
from roarsel.data import Task, split_by_year
from roarsel.errors import (
    ConfigError,
    CurveError,
    EstimatorError,
    RoarAborted,
    TrainingDiverged,
    TrainingError,
)
from roarsel.models import Architecture, Head, ModelSpec
from roarsel.roar import (
    CycleRecord,
    DeletionCurve,
    DeletionOrder,
    DeletionPlan,
    curve_csv_text,
    load_curve,
    necessary_set,
    run_roar,
    save_curve,
    save_curve_csv,
    sufficient_set,
)
from roarsel.synthetic import PlantSpec, generate
from roarsel.training import MetricKind, MetricValue, TrainConfig

REG = Head(task=Task.REGRESSION)


def planted_splits(n=600, t=4, b=5, bands=(1, 3), noise=0.1, seed=7):
    plant = PlantSpec(
        n=n, t=t, b=b,
        signal_bands=frozenset(bands),
        signal_steps=frozenset(range(t)),
        noise=noise,
    )
    return split_by_year(generate(plant, seed=seed))


def tiny_splits(b=5):
    return planted_splits(n=160, t=2, b=b, bands=(1,), noise=0.5)


def tiny_cfg():
    return TrainConfig(max_epochs=12, patience=6, batch_size=32,
                       learning_rate=3e-3)


def tiny_plan(order, k=None):
    return DeletionPlan(
        axis=GroupingAxis.BY_BAND,
        order=order,
        estimator_tag="svs",
        budget=ExplainBudget(n_samples=32, n_permutations=8, ensemble_size=2),
        k=k,
    )


def tiny_run(order=DeletionOrder.LEAST_FIRST, b=5, k=None, seed=3, **kwargs):
    return run_roar(
        tiny_splits(b=b),
        ModelSpec(Architecture.MLP, REG, width=16),
        tiny_cfg(),
        tiny_plan(order, k=k),
        seed=seed,
        **kwargs,
    )


# -- campaign mechanics -------------------------------------------------------


def test_five_bands_k1_runs_four_cycles():
    curve = tiny_run(b=5)
    assert len(curve.records) == 4
    assert [r.cycle for r in curve.records] == [1, 2, 3, 4]
    assert all(len(r.removed_ids) == 1 for r in curve.records)
    assert curve.records[-1].remaining == 1


def test_removed_plus_survivors_cover_every_group():
    curve = tiny_run(b=5)
    removed = {g for r in curve.records for g in r.removed_ids}
    survivors = curve.survivors_after(len(curve.records))
    assert removed | survivors == set(range(5))
    assert removed & survivors == set()


def test_each_ranking_covers_exactly_the_survivors():
    curve = tiny_run(b=5)
    for rec in curve.all_records():
        assert set(rec.ranking.group_ids) == curve.survivors_after(rec.cycle)


def test_same_seed_reproduces_the_curve():
    a = tiny_run(seed=3)
    b = tiny_run(seed=3)
    assert a.to_dict() == b.to_dict()


def test_both_orders_share_the_baseline():
    least = tiny_run(DeletionOrder.LEAST_FIRST, seed=3)
    most = tiny_run(DeletionOrder.MOST_FIRST, seed=3)
    assert least.baseline.to_dict() == most.baseline.to_dict()


def test_k2_last_cycle_removes_fewer():
    curve = tiny_run(b=4, k=2)
    assert [len(r.removed_ids) for r in curve.records] == [2, 1]
    assert [r.remaining for r in curve.records] == [2, 1]


def test_callback_sees_baseline_and_every_cycle():
    seen = []
    curve = tiny_run(on_cycle=seen.append)
    assert tuple(seen) == curve.all_records()
    assert seen[0].cycle == 0


def test_divergence_at_baseline_aborts_without_partial():
    cfg = TrainConfig(max_epochs=12, patience=6, batch_size=32,
                      learning_rate=1e22)
    with pytest.raises(RoarAborted) as excinfo:
        run_roar(tiny_splits(), ModelSpec(Architecture.MLP, REG, width=16),
                 cfg, tiny_plan(DeletionOrder.LEAST_FIRST), seed=3)
    assert "cycle 0" in str(excinfo.value)
    assert excinfo.value.partial_curve is None


@pytest.mark.parametrize("error", [TrainingDiverged, TrainingError],
                         ids=lambda e: e.__name__)
def test_midrun_divergence_carries_partial_curve(monkeypatch, error):
    """Any training failure after the baseline keeps the partial curve,
    e.g. evaluate's "constant targets", not only divergence."""
    real = roar.train
    calls = {"n": 0}

    def flaky(model, train_split, val_split, cfg, seed):
        calls["n"] += 1
        if calls["n"] == 2:
            raise error("boom")
        return real(model, train_split, val_split, cfg, seed)

    monkeypatch.setattr(roar, "train", flaky)
    with pytest.raises(RoarAborted) as excinfo:
        tiny_run()
    assert "cycle 1" in str(excinfo.value)
    partial = excinfo.value.partial_curve
    assert partial is not None
    assert partial.baseline.cycle == 0
    assert partial.records == ()


def test_estimator_failure_aborts_instead_of_falling_back(monkeypatch):
    real = roar.run_estimator
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise EstimatorError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(roar, "run_estimator", flaky)
    with pytest.raises(RoarAborted) as excinfo:
        tiny_run()
    assert "cycle 2" in str(excinfo.value)
    assert len(excinfo.value.partial_curve.records) == 1


def test_every_cycle_explains_the_same_samples(monkeypatch):
    """The explained ids are drawn once per campaign; the noise range is
    each cycle's own per-cell training span over the shrunken grid."""
    real = roar.run_estimator
    seen = []

    def spy(*args, **kwargs):
        seen.append((kwargs["sample_ids"], kwargs["noise_range"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(roar, "run_estimator", spy)
    tiny_run(b=5, seed=3)
    train = tiny_splits(b=5).train
    ids = roar._explained_ids(train.n_samples, 32, seed=3)
    assert len(ids) == 32
    assert [got for got, _ in seen] == [ids] * 5
    assert [span.shape for _, span in seen] == [(2, b) for b in (5, 4, 3, 2, 1)]
    np.testing.assert_array_equal(seen[0][1], cell_span(train))


def test_explained_ids_default_to_every_sample_up_to_5000():
    assert roar._explained_ids(20, None, seed=0) == tuple(range(20))
    assert roar._explained_ids(20, 50, seed=0) == tuple(range(20))
    assert len(roar._explained_ids(6000, None, seed=0)) == 5000


def test_explained_ids_subsample_deterministically():
    a = roar._explained_ids(40, 10, seed=3)
    assert a == roar._explained_ids(40, 10, seed=3)
    assert a != roar._explained_ids(40, 10, seed=4)
    assert a == tuple(sorted(set(a))) and len(a) == 10
    assert all(0 <= i < 40 for i in a)


# -- planted-signal faithfulness ----------------------------------------------


@pytest.fixture(scope="module")
def planted_curves():
    splits = planted_splits()
    spec = ModelSpec(Architecture.MLP, REG, width=32)
    cfg = TrainConfig(max_epochs=40, patience=12, batch_size=32,
                      learning_rate=3e-3)
    budget = ExplainBudget(n_samples=96, n_permutations=24, ensemble_size=2)

    def plan(order):
        return DeletionPlan(axis=GroupingAxis.BY_BAND, order=order,
                            estimator_tag="svs", budget=budget, tolerance=0.1)

    least = run_roar(splits, spec, cfg, plan(DeletionOrder.LEAST_FIRST), seed=11)
    most = run_roar(splits, spec, cfg, plan(DeletionOrder.MOST_FIRST), seed=11)
    return least, most


def test_planted_least_first_deletes_noise_bands_first(planted_curves):
    least, _ = planted_curves
    assert least.baseline.val_metric.value > 0.8
    first_three = {g for r in least.records[:3] for g in r.removed_ids}
    assert first_three == {0, 2, 4}


def test_planted_sufficient_set_is_the_signal_pair(planted_curves):
    least, _ = planted_curves
    ids, metric = sufficient_set(least)
    assert ids == {1, 3}
    assert metric.value >= least.baseline.val_metric.value - least.plan.tolerance


def test_planted_most_first_collapses_within_two_cycles(planted_curves):
    _, most = planted_curves
    assert most.records[1].val_metric.value <= 0.2


def test_planted_necessary_set_is_signal_only(planted_curves):
    _, most = planted_curves
    ids = necessary_set(most, floor=0.5 * most.baseline.val_metric.value)
    assert ids
    assert ids <= {1, 3}


# -- curve queries on fabricated curves ---------------------------------------


STEPWISE = [[4], [3], [2], [1]]


def test_sufficient_within_tolerance_everywhere_keeps_final_group():
    curve = fab_curve([0.9, 0.895, 0.89, 0.885, 0.89], STEPWISE,
                      DeletionOrder.LEAST_FIRST)
    ids, metric = sufficient_set(curve)
    assert ids == {0}
    assert metric.value == 0.89


def test_sufficient_stops_at_the_first_lasting_drop():
    curve = fab_curve([0.9, 0.89, 0.885, 0.5, 0.4], STEPWISE,
                      DeletionOrder.LEAST_FIRST)
    ids, metric = sufficient_set(curve)
    assert ids == {0, 1, 2}
    assert metric.value == 0.885


def test_sufficient_takes_the_smallest_qualifying_set_after_a_dip():
    curve = fab_curve([0.9, 0.89, 0.5, 0.89, 0.3], STEPWISE,
                      DeletionOrder.LEAST_FIRST)
    ids, _ = sufficient_set(curve)
    assert ids == {0, 1}


def test_sufficient_requires_least_first():
    curve = fab_curve([0.9, 0.9], [[4]], DeletionOrder.MOST_FIRST)
    with pytest.raises(CurveError, match="least_first"):
        sufficient_set(curve)


def test_necessary_empty_when_floor_never_crossed():
    curve = fab_curve([0.9, 0.85, 0.8, 0.75, 0.7], STEPWISE,
                      DeletionOrder.MOST_FIRST)
    assert necessary_set(curve, floor=0.2) == frozenset()


def test_necessary_crossing_at_cycle_one_is_that_removal():
    curve = fab_curve([0.9, 0.1, 0.05, 0.05, 0.05], STEPWISE,
                      DeletionOrder.MOST_FIRST)
    assert necessary_set(curve, floor=0.5) == {4}


def test_necessary_accumulates_up_to_the_crossing():
    curve = fab_curve([0.9, 0.6, 0.3, 0.2, 0.1], STEPWISE,
                      DeletionOrder.MOST_FIRST)
    assert necessary_set(curve, floor=0.5) == {4, 3}


def test_necessary_requires_most_first():
    curve = fab_curve([0.9, 0.9], [[4]], DeletionOrder.LEAST_FIRST)
    with pytest.raises(CurveError, match="most_first"):
        necessary_set(curve, floor=0.5)


# -- plan validation ----------------------------------------------------------


def test_plan_rejects_singleton_axis():
    with pytest.raises(ConfigError, match="singleton"):
        DeletionPlan(axis="singleton", order=DeletionOrder.LEAST_FIRST)


def test_plan_rejects_unknown_order():
    with pytest.raises(ConfigError, match="sideways"):
        DeletionPlan(axis=GroupingAxis.BY_BAND, order="sideways")


@pytest.mark.parametrize("axis", list(GroupingAxis))
def test_plan_from_strings_equals_plan_from_members(axis):
    by_strings = DeletionPlan(axis=axis.value, order="least_first")
    by_members = DeletionPlan(axis=axis, order=DeletionOrder.LEAST_FIRST)
    assert by_strings == by_members
    assert by_strings.axis is axis
    assert by_strings.order is DeletionOrder.LEAST_FIRST
    assert by_strings.step_size(40) == by_members.step_size(40)


def test_plan_rejects_unknown_estimator():
    with pytest.raises(ConfigError, match="estimator"):
        DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST,
                     estimator_tag="lrp")


def test_plan_rejects_bad_k_and_tolerance():
    with pytest.raises(ConfigError, match="k must be"):
        DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST, k=0)
    with pytest.raises(ConfigError, match="tolerance"):
        DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST,
                     tolerance=-0.1)


def test_step_size_defaults():
    band = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST)
    step = DeletionPlan(axis=GroupingAxis.BY_TIMESTEP, order=DeletionOrder.LEAST_FIRST)
    assert band.step_size(100) == 1
    assert step.step_size(30) == 1
    assert step.step_size(31) == 2
    assert step.step_size(100) == 5
    explicit = DeletionPlan(axis=GroupingAxis.BY_TIMESTEP,
                            order=DeletionOrder.LEAST_FIRST, k=3)
    assert explicit.step_size(100) == 3


def test_plan_dict_round_trip():
    plan = DeletionPlan(axis=GroupingAxis.BY_TIMESTEP, order=DeletionOrder.MOST_FIRST,
                        estimator_tag="sgs-gb", k=2, tolerance=0.05,
                        budget=ExplainBudget(n_samples=10, n_permutations=4,
                                             ensemble_size=3, noise_scale=0.2))
    again = DeletionPlan.from_dict(plan.to_dict())
    assert again.to_dict() == plan.to_dict()


# -- curve structural validation ----------------------------------------------


def test_record_rejects_duplicate_removed_ids():
    with pytest.raises(CurveError, match="unique"):
        fab_record(1, (2, 2), [0, 1, 3], 0.5)


def test_baseline_with_removals_is_rejected():
    plan = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST)
    bad = fab_record(0, (4,), [0, 1, 2, 3], 0.9)
    with pytest.raises(CurveError, match="baseline"):
        DeletionCurve(plan=plan, baseline=bad, records=())


def test_curve_rejects_removal_of_already_deleted_group():
    plan = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST)
    baseline = fab_record(0, (), [0, 1, 2, 3, 4], 0.9)
    first = fab_record(1, (4,), [0, 1, 2, 3], 0.8)
    again = fab_record(2, (4,), [0, 1, 2], 0.7)
    with pytest.raises(CurveError, match="surviving"):
        DeletionCurve(plan=plan, baseline=baseline, records=(first, again))


def test_curve_rejects_remaining_count_mismatch():
    plan = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST)
    baseline = fab_record(0, (), [0, 1, 2, 3, 4], 0.9)
    bad = fab_record(1, (4,), [0, 1, 2], 0.8)  # claims 3 left, one removal from 5
    with pytest.raises(CurveError, match="remaining"):
        DeletionCurve(plan=plan, baseline=baseline, records=(bad,))


def test_curve_rejects_stale_ranking():
    plan = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST)
    baseline = fab_record(0, (), [0, 1, 2, 3, 4], 0.9)
    stale = CycleRecord(cycle=1, removed_ids=(4,), remaining=4,
                        report=fab_report(0.8),
                        val_metric=MetricValue(MetricKind.R2, 0.8),
                        test_metric=MetricValue(MetricKind.R2, 0.8),
                        ranking=fab_rank([0, 1, 2, 4]))  # 4 was just removed
    with pytest.raises(CurveError, match="survivors"):
        DeletionCurve(plan=plan, baseline=baseline, records=(stale,))


def test_curve_rejects_non_consecutive_cycles():
    plan = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.LEAST_FIRST)
    baseline = fab_record(0, (), [0, 1, 2, 3, 4], 0.9)
    skipped = fab_record(2, (4,), [0, 1, 2, 3], 0.8)
    with pytest.raises(CurveError, match="consecutive"):
        DeletionCurve(plan=plan, baseline=baseline, records=(skipped,))


# -- persistence ---------------------------------------------------------------


def test_csv_text_exact_layout():
    curve = fab_curve([1.0, 0.75, 0.5], [[4], [3]], DeletionOrder.LEAST_FIRST)
    assert curve_csv_text(curve) == (
        "cycle,fraction_removed,val_metric,test_metric\n"
        "0,0.0,1.0,1.0\n"
        "1,0.2,0.75,0.75\n"
        "2,0.4,0.5,0.5\n"
    )


def test_curve_json_round_trip(tmp_path):
    curve = tiny_run(b=4)
    path = tmp_path / "curve.json"
    save_curve(curve, path)
    again = load_curve(path)
    assert again.to_dict() == curve.to_dict()


def test_curve_csv_rewrite_is_byte_identical(tmp_path):
    curve = tiny_run(b=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_curve_csv(curve, a)
    save_curve_csv(curve, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"cycle,fraction_removed")
