"""The JSON codec: every persisted type has a JSON form that reads back."""

import copy
import dataclasses
import json
import typing

import pytest
from conftest import fab_curve

from roarsel.attribution import ExplainBudget, GroupingAxis, ImportanceRanking
from roarsel.codec import decode, encode
from roarsel.config import CandidateConfig, RunConfig
from roarsel.data import Task
from roarsel.errors import RoarselError
from roarsel.models import Architecture
from roarsel.roar import CycleRecord, DeletionCurve, DeletionOrder, DeletionPlan
from roarsel.synthetic import PlantSpec
from roarsel.training import MetricValue, TrainConfig, TrainReport

BUDGET = ExplainBudget(n_samples=10, n_permutations=4, ensemble_size=3, noise_scale=0.2)
PLAN = DeletionPlan(axis=GroupingAxis.BY_BAND, order=DeletionOrder.MOST_FIRST,
                    estimator_tag="sgs-gb", budget=BUDGET, k=2, tolerance=0.05)
CANDIDATE = CandidateConfig(Architecture.TEMPCNN, width=8, depth=2, kernel_size=3,
                            channels=4, dense_size=6, hidden_size=5, dropout=0.1,
                            learning_rate=0.01)
PLANT = PlantSpec(n=10, t=2, b=3, signal_bands=frozenset({0, 2}),
                  signal_steps=frozenset({1}), weight=0.5,
                  cell_weights={(1, 2): 3.0, (1, 0): -1}, noise=0.25,
                  task=Task.CLASSIFICATION, year_start=2000, n_years=2)
TRAIN = TrainConfig(max_epochs=9, patience=2, batch_size=8, learning_rate=0.01)
CURVE = dataclasses.replace(
    fab_curve([0.9, 0.8, 0.7], [[4], [1]], DeletionOrder.MOST_FIRST), plan=PLAN)
RUN = RunConfig(seed=3, out_dir="o", dataset_path="d", plant=PLANT, holdout_years=1,
                grid=(CANDIDATE,), model=CANDIDATE, train=TRAIN, budget=BUDGET,
                plans=(PLAN,), workers=2)

# one populated instance of every persisted class: no field is None, so
# each Optional field's inner type is carried too
EXAMPLES = {type(x): x for x in (
    RUN, CANDIDATE, PLANT, TRAIN, BUDGET, PLAN, CURVE, CURVE.records[0],
    CURVE.baseline.report, CURVE.baseline.val_metric, CURVE.baseline.ranking,
)}


def _reachable(tp, seen: set) -> set:
    """The dataclasses reachable from ``tp`` through field annotations."""
    if dataclasses.is_dataclass(tp) and tp not in seen:
        seen.add(tp)
        for hint in typing.get_type_hints(tp).values():
            _reachable(hint, seen)
    for arg in typing.get_args(tp):
        _reachable(arg, seen)
    return seen


def test_every_persisted_class_has_a_populated_example():
    reachable = _reachable(RunConfig, set()) | _reachable(DeletionCurve, set())
    assert reachable == set(EXAMPLES)
    assert {CycleRecord, ImportanceRanking, MetricValue, TrainReport} <= reachable


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_every_persisted_class_round_trips_through_json(cls):
    x = EXAMPLES[cls]
    assert all(getattr(x, f.name) is not None for f in dataclasses.fields(x))
    raw = json.loads(json.dumps(encode(x)))
    assert raw == encode(x)
    assert decode(cls, raw, cls.__name__) == x


def test_reals_keep_the_json_number_as_given():
    raw = encode(PLANT)
    assert raw["cell_weights"] == [[1, 0, -1], [1, 2, 3.0]]
    back = decode(PlantSpec, raw, "plant")
    assert type(back.cell_weights[(1, 0)]) is int
    assert encode(back) == raw


def test_a_type_without_a_json_form_is_a_programming_error():
    with pytest.raises(TypeError, match="no JSON form"):
        decode(set[int], [1], "x")


def _replaced(raw, value):
    """Copies of a JSON value with each place in it, the root included, set to
    ``value`` in turn."""
    yield value
    keys = range(len(raw)) if isinstance(raw, list) else raw if isinstance(raw, dict) else ()
    for key in keys:
        for inner in _replaced(raw[key], value):
            out = copy.copy(raw)
            out[key] = inner
            yield out


@pytest.mark.parametrize("value", [None, True, "x", 1.5, -1, 10**400, [None], {"a": 1}],
                         ids=["null", "bool", "str", "real", "negative", "huge", "list", "object"])
def test_a_wrong_value_anywhere_is_a_package_error(value):
    """What ``load_curve`` and ``load_config`` turn into a named curve or
    config error: no other exception escapes a decode."""
    for bad in _replaced(encode(CURVE), value):
        try:
            decode(DeletionCurve, bad, "curve")
        except RoarselError:
            pass
    for bad in _replaced(RUN.to_dict(), value):
        try:
            RunConfig.from_dict(bad)
        except RoarselError:
            pass
