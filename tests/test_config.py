"""Strict run-config parsing and the defaults-filled echo."""

import json

import pytest

from roarsel.config import (
    CandidateConfig,
    RunConfig,
    load_config,
    save_effective_config,
    section_seed,
)
from roarsel.data import Task
from roarsel.errors import ConfigError
from roarsel.models import Architecture, Head, ModelSpec

REG = Head(task=Task.REGRESSION)


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
                  "learning_rate": 0.003, "seed": 0},
        "budget": {"n_samples": 64, "n_permutations": 16, "ensemble_size": 3,
                   "noise_scale": 0.1},
        "plans": [{"axis": "by_band", "order": "least_first",
                   "estimator_tag": "svs"}],
        "workers": 2,
    }


def test_full_config_parses():
    cfg = RunConfig.from_dict(full_dict())
    assert cfg.seed == 9
    assert cfg.plant.n == 100
    assert cfg.dataset_path == "data/plant"
    assert len(cfg.grid) == 2
    assert cfg.model.width == 16
    assert cfg.train.max_epochs == 20
    assert cfg.workers == 2


def test_empty_config_uses_defaults():
    cfg = RunConfig.from_dict({})
    d = cfg.to_dict()
    assert d["seed"] == 0
    assert d["split"] == {"holdout_years": 2}
    assert d["train"]["max_epochs"] == 100
    assert d["budget"]["n_permutations"] == 64
    assert d["dataset"] == {"path": None, "plant": None}
    assert d["grid"] == [] and d["plans"] == []


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
])
def test_unknown_keys_are_rejected(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig.from_dict(raw)


def test_present_but_empty_grid_is_rejected():
    with pytest.raises(ConfigError, match="empty"):
        RunConfig.from_dict({"grid": []})


def test_absent_grid_expands_to_the_default_grid():
    cfg = RunConfig.from_dict({})
    grid = cfg.candidates(REG)
    assert len(grid) == 10  # five architectures, two learning rates
    assert {spec.architecture for spec, _ in grid} == set(Architecture)
    assert {c.learning_rate for _, c in grid} == {1e-3, 1e-4}


def test_candidate_defaults_mirror_model_defaults():
    built = CandidateConfig(Architecture.MLP).spec(REG)
    assert built == ModelSpec(Architecture.MLP, REG)


def test_candidate_learning_rate_inheritance():
    cfg = RunConfig.from_dict(full_dict())
    grid = cfg.candidates(REG)
    assert grid[0][1].learning_rate == 1e-3      # explicit on the entry
    assert grid[1][1].learning_rate == 0.003     # inherited from train
    want = section_seed(9, "select")
    assert all(c.seed == want for _, c in grid)


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


def test_bad_plan_value_is_a_config_error():
    raw = full_dict()
    raw["plans"][0]["k"] = 0
    with pytest.raises(ConfigError, match="k must be"):
        RunConfig.from_dict(raw)


def test_workers_and_holdout_validation():
    with pytest.raises(ConfigError, match="workers"):
        RunConfig.from_dict({"workers": 0})
    with pytest.raises(ConfigError, match="holdout_years"):
        RunConfig.from_dict({"split": {"holdout_years": 0}})


def test_section_seeds_are_stable_and_distinct():
    assert section_seed(0, "split") == section_seed(0, "split")
    lanes = {section_seed(0, s) for s in ("split", "select", "roar", "generate")}
    assert len(lanes) == 4
    assert section_seed(1, "split") != section_seed(0, "split")


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
    with pytest.raises(ConfigError, match="bad config"):
        load_config(p)


def test_effective_config_round_trips_and_is_byte_stable(tmp_path):
    cfg = RunConfig.from_dict(full_dict())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_effective_config(cfg, a)
    save_effective_config(cfg, b)
    assert a.read_bytes() == b.read_bytes()
    again = RunConfig.from_dict(json.loads(a.read_text()))
    assert again.to_dict() == cfg.to_dict()
