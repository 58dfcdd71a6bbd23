"""Strict run-config parsing and the defaults-filled echo."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from roarsel.codec import encode
from roarsel.config import CandidateConfig, RunConfig, load_config, section_seed
from roarsel.data import write_json
from roarsel.errors import ConfigError
from roarsel.models import Architecture
from roarsel.roar import child_seed


def full_dict():
    return {
        "seed": 9,
        "out_dir": "runs/x",
        "dataset": {
            "path": "data/plant",
            "plant": {"n": 100, "t": 4, "b": 3, "signal_bands": [1],
                      "signal_steps": [0, 1, 2, 3], "noise": 0.5},
        },
        "split": {"holdout_years": 2},
        "grid": [
            {"architecture": "mlp", "width": 32, "learning_rate": 1e-3},
            {"architecture": "gru"},
        ],
        "model": {"architecture": "mlp", "width": 16},
        "train": {"max_epochs": 20, "patience": 5, "batch_size": 16,
                  "learning_rate": 0.003},
        "budget": {"n_samples": 64, "n_permutations": 16, "ensemble_size": 3,
                   "noise_scale": 0.1},
        "plans": [{"axis": "by_band", "order": "least_first",
                   "estimator_tag": "svs"}],
        "workers": 2,
    }


def test_full_config_parses():
    cfg = RunConfig.from_dict(full_dict())
    assert cfg.seed == 9
    assert cfg.dataset.plant.n == 100
    assert cfg.dataset.path == "data/plant"
    assert len(cfg.grid) == 2
    assert cfg.model.width == 16
    assert cfg.train.max_epochs == 20
    assert cfg.workers == 2


def test_empty_config_uses_defaults():
    cfg = RunConfig.from_dict({})
    d = encode(cfg)
    assert d["seed"] == 0
    assert d["split"] == {"holdout_years": 2}
    assert d["train"]["max_epochs"] == 100
    assert d["budget"]["n_permutations"] == 64
    assert d["dataset"] == {"path": None, "plant": None}
    assert d["grid"] is None and d["plans"] == []


@pytest.mark.parametrize("raw, fragment", [
    ({"bogus": 1}, "bogus"),
    ({"dataset": {"paht": "x"}}, "paht"),
    ({"train": {"max_epoch": 3}}, "max_epoch"),
    ({"budget": {"perms": 4}}, "perms"),
    ({"plans": [{"axis": "by_band", "order": "least_first", "direction": "up"}]},
     "direction"),
    ({"grid": [{"architecture": "mlp", "widht": 3}]}, "widht"),
    ({"dataset": {"plant": {"n": 1, "t": 1, "b": 1, "signal_bands": [0],
                            "signal_steps": [0], "frequency": 2}}}, "frequency"),
    ({"train": {"seed": 0}}, r"unknown config.train key\(s\): seed"),
])
def test_unknown_keys_are_rejected(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig.from_dict(raw)


def test_present_but_empty_grid_is_rejected():
    with pytest.raises(ConfigError, match="empty"):
        RunConfig.from_dict({"grid": []})


def test_absent_grid_expands_to_the_default_grid():
    cfg = RunConfig.from_dict({})
    grid = cfg.candidates()
    assert len(grid) == 10  # five architectures, two learning rates
    assert {spec.architecture for spec, _ in grid} == set(Architecture)
    assert {c.learning_rate for _, c in grid} == {1e-3, 1e-4}


def test_candidate_learning_rate_inheritance():
    cfg = RunConfig.from_dict(full_dict())
    grid = cfg.candidates()
    assert grid[0][1].learning_rate == 1e-3      # explicit on the entry
    assert grid[1][1].learning_rate == 0.003     # inherited from train


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_candidate_rejects_a_non_finite_learning_rate(value):
    with pytest.raises(ConfigError, match=f"^learning_rate must be finite, got {value}$"):
        CandidateConfig(Architecture.MLP, learning_rate=value)


def test_candidate_requires_architecture():
    with pytest.raises(ConfigError, match="architecture"):
        RunConfig.from_dict({"grid": [{"width": 4}]})


def test_plan_inherits_the_run_budget():
    cfg = RunConfig.from_dict(full_dict())
    assert cfg.plans[0].budget.n_samples == 64
    assert cfg.plans[0].budget.n_permutations == 16


def test_plan_budget_override_wins():
    raw = full_dict()
    raw["plans"][0]["budget"] = {"n_samples": 5, "n_permutations": 2,
                                 "ensemble_size": 1, "noise_scale": 0.0}
    cfg = RunConfig.from_dict(raw)
    assert cfg.plans[0].budget.n_samples == 5


def test_plan_budget_overrides_the_run_budget_key_by_key():
    raw = full_dict()
    raw["plans"][0]["budget"] = {"n_samples": 5}
    budget = RunConfig.from_dict(raw).plans[0].budget
    assert budget.n_samples == 5
    assert budget.n_permutations == 16 and budget.ensemble_size == 3
    assert budget.noise_scale == 0.1


def test_null_plan_budget_shares_the_run_budget():
    raw = full_dict()
    raw["plans"][0]["budget"] = None
    cfg = RunConfig.from_dict(raw)
    assert cfg.plans[0].budget == cfg.budget


def test_bad_plan_value_is_a_config_error():
    raw = full_dict()
    raw["plans"][0]["k"] = 0
    with pytest.raises(ConfigError, match="k must be"):
        RunConfig.from_dict(raw)


@pytest.mark.parametrize("path, value, message", [
    ("train.patience", 20, "config.train: patience must be smaller than max_epochs"),
    ("budget.n_permutations", 0,
     "config.budget: permutations and ensemble size must be positive"),
    ("dataset.plant.noise", -1.0, "config.dataset.plant: noise level cannot be negative"),
    ("plans.0.k", 0, "config.plans[0]: k must be at least 1"),
    ("grid.0.width", 0, "config.grid[0]: width must be positive, got 0"),
    ("grid.1.learning_rate", 0, "config.grid[1]: learning_rate must be positive, got 0"),
    ("model.dropout", 1.0, "config.model: dropout rate must lie in [0, 1), got 1.0"),
    ("split.holdout_years", 0, "config.split: holdout_years must be at least 1"),
    ("workers", 0, "config: workers must be positive"),
])
def test_a_block_check_names_the_block_once(tmp_path, path, value, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_set(path, value)))
    with pytest.raises(ConfigError) as excinfo:
        load_config(p)
    assert str(excinfo.value) == message


def _set(path, value):
    """full_dict() with the value at a dotted path ("grid.0.width") replaced."""
    raw = full_dict()
    *parents, last = path.split(".")
    block = raw
    for key in parents:
        block = block[int(key)] if isinstance(block, list) else block[key]
    block[int(last) if isinstance(block, list) else last] = value
    return raw


@pytest.mark.parametrize("path, value, fragment", [
    ("train.max_epochs", 6.5, "train.max_epochs"),
    ("train.patience", True, "train.patience"),
    ("seed", 1.0, "config.seed"),
    ("model.width", 8.5, "model.width"),
    ("grid.1.hidden_size", 4.0, r"grid\[1\].hidden_size"),
    ("budget.n_permutations", 2.5, "budget.n_permutations"),
    ("budget.ensemble_size", False, "budget.ensemble_size"),
    ("plans.0.k", 1.5, r"plans\[0\].k"),
    ("plans.0.budget", {"n_samples": 8.0}, r"plans\[0\].budget.n_samples"),
    ("dataset.plant.n", 100.0, "dataset.plant.n"),
    ("dataset.plant.signal_bands", [1.5], "dataset.plant.signal_bands"),
    ("dataset.plant.signal_steps", [0, True], "dataset.plant.signal_steps"),
    ("split.holdout_years", 2.5, "split.holdout_years"),
    ("workers", 2.5, "config.workers"),
    ("workers", True, "config.workers"),
])
def test_non_integer_counts_are_rejected(path, value, fragment):
    with pytest.raises(ConfigError, match=f"{fragment} must be an integer"):
        RunConfig.from_dict(_set(path, value))


@pytest.mark.parametrize("path, value, fragment", [
    ("train.learning_rate", True, "train.learning_rate"),
    ("train.learning_rate", "0.1", "train.learning_rate"),
    ("grid.0.learning_rate", False, r"grid\[0\].learning_rate"),
    ("model.dropout", "0", "model.dropout"),
    ("plans.0.tolerance", True, r"plans\[0\].tolerance"),
    ("budget.noise_scale", "0.1", "budget.noise_scale"),
    ("plans.0.budget", {"noise_scale": True}, r"plans\[0\].budget.noise_scale"),
    ("dataset.plant.noise", "0.5", "dataset.plant.noise"),
    ("dataset.plant.weight", True, "dataset.plant.weight"),
    ("train.learning_rate", float("nan"), "train.learning_rate"),
    ("plans.0.tolerance", float("inf"), r"plans\[0\].tolerance"),
])
def test_non_number_reals_are_rejected(path, value, fragment):
    with pytest.raises(ConfigError, match=f"{fragment} must be a number"):
        RunConfig.from_dict(_set(path, value))



@pytest.mark.parametrize("path, value, fragment", [
    ("grid", [None], r"grid\[0\] must be an object"),
    ("grid", {"architecture": "mlp"}, "grid must be a list"),
    ("plans", [None], r"plans\[0\] must be an object"),
    ("plans.0.budget", 5, r"plans\[0\].budget must be an object"),
    ("model", "mlp", "model must be an object"),
    ("train", [], "train must be an object"),
    ("dataset", 5, "dataset must be an object"),
    ("split", "2", "split must be an object"),
    ("out_dir", 5, "config.out_dir must be a string"),
    ("dataset.path", 5, "dataset.path must be a string"),
    ("plans.0.axis", "sideways", r"plans\[0\].axis must be one of"),
    ("dataset.plant.signal_bands", 1, "dataset.plant.signal_bands must be a list"),
    ("dataset.plant.cell_weights", [[0, 1, True]],
     r"dataset.plant.cell_weights\[0\]\[2\] must be a number"),
    ("dataset.plant.cell_weights", [[0, 1]],
     r"dataset.plant.cell_weights\[0\] must hold 3 values"),
    ("dataset.plant.cell_weights", [[0, 1, 2.0], [0, 1, 3.0]],
     r"dataset.plant.cell_weights repeats the key \[0, 1\]"),
])
def test_a_value_of_the_wrong_json_kind_names_its_key(tmp_path, path, value, fragment):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_set(path, value)))
    with pytest.raises(ConfigError, match=fragment):
        load_config(p)

def test_integer_reals_are_numbers():
    cfg = RunConfig.from_dict(_set("train.learning_rate", 1))
    assert cfg.train.learning_rate == 1
    assert RunConfig.from_dict(_set("plans.0.tolerance", 0)).plans[0].tolerance == 0


@pytest.mark.parametrize("path, fragment", [
    ("seed", "config.seed"),
    ("out_dir", "config.out_dir"),
    ("split.holdout_years", "split.holdout_years"),
    ("model.width", "model.width"),
    ("grid.0.architecture", r"grid\[0\].architecture"),
    ("train.max_epochs", "train.max_epochs"),
    ("train.learning_rate", "train.learning_rate"),
    ("budget.noise_scale", "budget.noise_scale"),
    ("plans.0.tolerance", r"plans\[0\].tolerance"),
    ("plans.0.axis", r"plans\[0\].axis"),
    ("dataset.plant.n", "dataset.plant.n"),
    ("dataset.plant.signal_bands", "dataset.plant.signal_bands"),
])
def test_null_without_a_meaning_is_rejected(path, fragment):
    with pytest.raises(ConfigError, match=f"{fragment} must not be null"):
        RunConfig.from_dict(_set(path, None))


def test_null_seed_names_the_key_through_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_set("seed", None)))
    with pytest.raises(ConfigError, match="config.seed must not be null"):
        load_config(p)


def test_null_keeps_its_meaning_where_the_default_is_none():
    raw = _set("grid.0.learning_rate", None)
    raw["model"]["learning_rate"] = None
    raw["workers"] = None
    raw["dataset"]["path"] = None
    raw["dataset"]["plant"]["cell_weights"] = None
    cfg = RunConfig.from_dict(raw)
    assert cfg.grid[0].learning_rate is None and cfg.model.learning_rate is None
    assert cfg.workers is None and cfg.dataset.path is None
    assert cfg.dataset.plant.cell_weights is None
    blocks = ("dataset", "split", "grid", "model", "train", "budget", "plans")
    empty = RunConfig.from_dict(dict.fromkeys(blocks))
    assert encode(empty) == encode(RunConfig.from_dict({}))


def test_null_counts_keep_their_meaning():
    raw = _set("budget.n_samples", None)
    raw["plans"][0]["k"] = None
    raw["model"]["depth"] = None
    cfg = RunConfig.from_dict(raw)
    assert cfg.budget.n_samples is None and cfg.plans[0].k is None


def test_workers_and_holdout_validation():
    with pytest.raises(ConfigError, match="workers"):
        RunConfig.from_dict({"workers": 0})
    with pytest.raises(ConfigError, match="holdout_years"):
        RunConfig.from_dict({"split": {"holdout_years": 0}})


def test_section_seeds_are_stable_and_distinct():
    assert section_seed(0, "split") == section_seed(0, "split")
    seeds = {section_seed(0, s) for s in ("split", "select", "roar", "generate")}
    assert len(seeds) == 4
    assert section_seed(1, "split") != section_seed(0, "split")


def test_child_seed_is_both_derivations_it_replaced():
    """The cycle seeds and the section seeds were two copies of one
    expression; both copies are kept here as oracles."""
    def cycle_seed(seed, cycle, stream):
        return int(np.random.SeedSequence([int(seed), int(cycle), stream]).generate_state(1)[0])

    def old_section_seed(seed, section):
        stream = {"split": 2, "select": 3, "roar": 4, "generate": 6}[section]
        return int(np.random.SeedSequence([int(seed), stream]).generate_state(1)[0])

    for seed in (0, 1, 7, 2**31 - 1, 2**40 + 3, np.int64(12)):
        for cycle in (0, 1, 5, 39):
            for stream in (0, 1):
                assert child_seed(seed, cycle, stream) == cycle_seed(seed, cycle, stream)
        for section in ("split", "select", "roar", "generate"):
            assert section_seed(seed, section) == old_section_seed(seed, section)


# -- file boundary -------------------------------------------------------------


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("not json {")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)


def test_load_config_non_object_root(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(p)


def test_load_config_wraps_missing_plant_size(tmp_path):
    raw = {"dataset": {"plant": {"t": 2, "b": 2, "signal_bands": [0],
                                 "signal_steps": [0]}}}
    p = tmp_path / "plant.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="dataset.plant needs n"):
        load_config(p)


def _readme_config():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    return json.loads(block)


def _without(raw, *keys):
    return {k: v for k, v in raw.items() if k not in keys}


@pytest.mark.parametrize("raw", [
    full_dict(),
    _readme_config(),
    _without(full_dict(), "grid"),  # roar only
    _without(full_dict(), "grid", "model", "plans"),  # select on the default grid
], ids=["full", "readme", "roar-only", "default-grid"])
def test_effective_config_round_trips_and_is_byte_stable(tmp_path, raw):
    """``effective.json`` loads as the config it echoes, and echoes the same bytes."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    echo, again = tmp_path / "effective.json", tmp_path / "again.json"
    write_json(echo, encode(cfg))
    assert load_config(echo) == cfg
    write_json(again, encode(load_config(echo)))
    assert again.read_bytes() == echo.read_bytes()
