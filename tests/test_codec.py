"""The JSON codec: every persisted type has a JSON form that reads back."""

import copy
import dataclasses
import json
import typing

import pytest
from conftest import fab_curve

from roarsel.attribution import (
    ExplainBudget,
    GroupingAxis,
    ImportanceRanking,
    feature_groups,
)
from roarsel.codec import decode, encode
from roarsel.config import CandidateConfig, DatasetConfig, RunConfig, SplitConfig
from roarsel.data import Band, FeatureSchema, Task, TimeStep, default_schema
from roarsel.errors import ConfigError, RoarselError, TrainingError
from roarsel.models import Architecture, ModelSpec, build
from roarsel.roar import CycleRecord, DeletionCurve, DeletionOrder, DeletionPlan
from roarsel.synthetic import PlantSpec, generate
from roarsel.training import (
    CandidateResult,
    MetricKind,
    MetricValue,
    SelectionReport,
    TrainConfig,
    TrainReport,
)

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
    fab_curve([0.9, 0.8, 0.7], [[4], [1]], DeletionOrder.MOST_FIRST), plan=PLAN,
    fingerprint="0" * 64)
DATASET = DatasetConfig(path="d", plant=PLANT)
SPLIT = SplitConfig(holdout_years=1)
RUN = RunConfig(seed=3, out_dir="o", dataset=DATASET, split=SPLIT,
                grid=(CANDIDATE,), model=CANDIDATE, train=TRAIN, budget=BUDGET,
                plans=(PLAN,), workers=2)
ROW = CandidateResult(index=1, architecture=Architecture.GRU, learning_rate=1e-3,
                      val_metric=0.5, error="diverged", test_metric=0.25)
SELECTION = SelectionReport(ranking=[ROW], best_index=1, test_metric=0.25)
SCHEMA = FeatureSchema(bands=(Band(0, "red", "optical"), Band(3, "vv", "radar")),
                       timesteps=(TimeStep(2, "t02"),), task=Task.CLASSIFICATION,
                       n_classes=2, class_names=("crop", "fallow"))
# the classes whose codec form is a JSON document: config, curve, selection,
# and the manifest embedded in a dataset file
FILES = (RunConfig, DeletionCurve, SelectionReport, FeatureSchema)

# one populated instance of every persisted class: no field is None, so
# each Optional field's inner type is carried too
EXAMPLES = {type(x): x for x in (
    RUN, DATASET, SPLIT, CANDIDATE, PLANT, TRAIN, BUDGET, PLAN, CURVE, CURVE.records[0],
    CURVE.baseline.report, CURVE.baseline.val_metric, CURVE.baseline.ranking,
    SELECTION, ROW, SCHEMA, SCHEMA.bands[0], SCHEMA.timesteps[0],
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
    reachable = set().union(*(_reachable(cls, set()) for cls in FILES))
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
    for bad in _replaced(encode(RUN), value):
        try:
            RunConfig.from_dict(bad)
        except RoarselError:
            pass


# -- enum fields given by their values ---------------------------------------


def test_a_model_spec_takes_its_architecture_by_value():
    schema = default_schema(4, 3, Task.CLASSIFICATION, n_classes=3)
    for arch in Architecture:
        model = build(ModelSpec(arch.value, kernel_size=3), schema, 1)
        assert model.spec.architecture is arch
        assert model.n_params == build(ModelSpec(arch, kernel_size=3), schema, 1).n_params
    assert CandidateConfig("gru").architecture is Architecture.GRU


def test_a_plant_spec_takes_its_task_by_value():
    data = generate(PlantSpec(n=40, t=2, b=3, signal_bands=frozenset({1}),
                              signal_steps=frozenset({0}), task="classification"), 0)
    assert data.schema.task is Task.CLASSIFICATION
    assert set(data.targets.tolist()) <= {0, 1}


def test_a_feature_schema_takes_its_task_by_value():
    schema = FeatureSchema(SCHEMA.bands, SCHEMA.timesteps, "classification", 2)
    assert schema.task is Task.CLASSIFICATION
    assert schema == dataclasses.replace(SCHEMA, class_names=None)


def test_a_metric_value_takes_its_kind_by_value():
    assert MetricValue("r2", 0.5).kind is MetricKind.R2
    with pytest.raises(TrainingError, match="accuracy out of range: 5.0"):
        MetricValue("accuracy", 5.0)


def test_an_unknown_architecture_is_a_config_error():
    with pytest.raises(ConfigError, match="^architecture must be one of mlp, rnn, "
                       "lstm, gru, tempcnn, got 'nope'$"):
        ModelSpec("nope")


def test_an_unknown_grouping_axis_is_a_config_error():
    with pytest.raises(ConfigError, match="^axis must be one of by_timestep, by_band, "
                       "got 'diagonal'$"):
        feature_groups(SCHEMA, "diagonal")
