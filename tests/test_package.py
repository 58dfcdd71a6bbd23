"""README's examples stay true: the package root exports exactly what its
library example imports, and its complete config loads."""

import ast
import json
import re
from pathlib import Path

import pytest

import roarsel
from roarsel import models, roar, training
from roarsel.codec import encode
from roarsel.config import load_config
from roarsel.errors import BuildError, ConfigError, DatasetError, TrainingError

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> ast.Module:
    """The `from roarsel import ...` statements of README's Python block."""
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    body = [node for node in ast.parse(code).body
            if isinstance(node, ast.ImportFrom) and node.module == "roarsel"]
    assert body, "README's library example imports nothing from roarsel"
    return ast.Module(body=body, type_ignores=[])


def test_readme_imports_resolve_and_pin_the_package_surface():
    namespace: dict = {}
    exec(compile(readme_imports(), str(README), "exec"), namespace)
    names = {alias.name for node in readme_imports().body for alias in node.names}
    assert all(namespace[name] is getattr(roarsel, name) for name in names)
    assert sorted(roarsel.__all__) == sorted(names | {"load_curve"})
    assert len(set(roarsel.__all__)) == len(roarsel.__all__)


def _within(part, whole) -> bool:
    """Every value of ``part`` appears at the same place in ``whole``."""
    if isinstance(part, dict):
        return all(k in whole and _within(v, whole[k]) for k, v in part.items())
    if isinstance(part, list):
        return len(part) == len(whole) and all(map(_within, part, whole))
    return part == whole


def test_readme_complete_config_loads_and_echoes_its_values(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "run.json"
    path.write_text(block)
    cfg = load_config(path)
    assert _within(json.loads(block), encode(cfg))


# A negative seed is the package's own error, named, and raised before any
# work: not NumPy's bare ``ValueError`` from a seed sequence.

PLANT = roarsel.PlantSpec(n=40, t=2, b=3, signal_bands=frozenset({1}),
                          signal_steps=frozenset({0, 1}))


def test_generate_refuses_a_negative_seed():
    with pytest.raises(DatasetError, match="^seed must not be negative, got -1$"):
        roarsel.generate(PLANT, seed=-1)


def test_split_by_year_refuses_a_negative_seed_first():
    # holdout_years=0 would fail too; the seed is checked before it
    with pytest.raises(DatasetError, match="^seed must not be negative, got -2$"):
        roarsel.split_by_year(roarsel.generate(PLANT, seed=0), holdout_years=0, seed=-2)


def test_run_roar_refuses_a_negative_seed_before_any_work(monkeypatch):
    splits = roarsel.split_by_year(roarsel.generate(PLANT, seed=0), seed=0)

    def no_work(*args, **kwargs):
        raise AssertionError("run_roar worked before checking its seed")

    monkeypatch.setattr(roar, "feature_groups", no_work)
    monkeypatch.setattr(roar, "resize_for_input", no_work)
    plan = roarsel.DeletionPlan(axis="by_band", order="least_first", estimator_tag="gb")
    with pytest.raises(ConfigError, match="^seed must not be negative, got -3$"):
        roarsel.run_roar(splits, roarsel.ModelSpec("mlp", width=4),
                         roarsel.TrainConfig(max_epochs=2, patience=1), plan, seed=-3)


@pytest.mark.parametrize("entry", ["build", "resize_for_input", "train", "select_model"])
def test_model_entries_refuse_a_negative_seed_before_any_work(monkeypatch, entry):
    splits = roarsel.split_by_year(roarsel.generate(PLANT, seed=0), seed=0)
    spec = roarsel.ModelSpec("mlp", width=4)
    cfg = roarsel.TrainConfig(max_epochs=2, patience=1)
    model = models.build(spec, splits.train.schema, seed=0)

    def no_work(*args, **kwargs):
        raise AssertionError(f"{entry} worked before checking its seed")

    for owner, name in ((models, "Graph"), (training, "_Adam"), (training, "fork_map")):
        monkeypatch.setattr(owner, name, no_work)
    error, call = {
        "build": (BuildError, lambda: models.build(spec, splits.train.schema, seed=-1)),
        "resize_for_input": (BuildError, lambda: models.resize_for_input(
            spec, splits.train.schema, seed=-1)),
        "train": (TrainingError, lambda: training.train(
            model, splits.train, splits.validation, cfg, seed=-1)),
        "select_model": (TrainingError, lambda: training.select_model(
            [(spec, cfg)], splits, seed=-1)),
    }[entry]
    with pytest.raises(error, match="^seed must not be negative, got -1$"):
        call()
