"""Run configuration: strict JSON parsing and a fully-defaulted echo.

A run config is one JSON object naming the dataset, the split, the model
grid (or a single campaign model), training and estimator budgets, and
the deletion plans. Unknown keys are rejected at every level so a typo
cannot silently fall back to a default. ``to_dict`` fills in every
default, and the persisted result is enough to reproduce the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .attribution import ExplainBudget
from .data import write_json
from .errors import ConfigError
from .models import Architecture, Head, ModelSpec
from .roar import DeletionPlan
from .synthetic import PlantSpec
from .training import TrainConfig, default_grid

# lane 1 is claimed by the training loop, 5 by the explained-sample draw,
# and the campaign loop keys three-element sequences; these two-element
# lanes stay clear of all of them
_SECTION_LANES = {"split": 2, "select": 3, "roar": 4, "generate": 6}


def section_seed(seed: int, section: str) -> int:
    """Stable per-command seed derived from the experiment seed."""
    lane = _SECTION_LANES[section]
    return int(np.random.SeedSequence([int(seed), lane]).generate_state(1)[0])


# counts, wherever they appear; the two signal sets are lists of them
_INT_KEYS = {"seed", "max_epochs", "patience", "batch_size", "n_samples",
             "n_permutations", "ensemble_size", "k", "width", "depth",
             "kernel_size", "channels", "dense_size", "hidden_size", "n", "t",
             "b", "year_start", "n_years", "signal_bands", "signal_steps",
             "holdout_years", "workers"}
# real numbers, wherever they appear; JSON integers count, while the NaN
# and Infinity that Python's parser also reads do not
_REAL_KEYS = {"learning_rate", "tolerance", "noise_scale", "weight", "noise",
              "dropout"}
# the blocks of the top level; a null block is an empty one
_BLOCKS = ("dataset", "split", "grid", "model", "train", "budget", "plans")


def _keys(cls) -> dict[str, bool]:
    """A config block's keys, its dataclass's fields, each mapped to whether
    null is accepted: for a field defaulting to None or to a fresh block."""
    return {f.name: f.default is None or f.default_factory is not MISSING
            for f in fields(cls)}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _expect_keys(d: dict, keys: dict[str, bool], where: str) -> None:
    """Reject unknown keys, nulls where the key has no null meaning, counts
    that are not JSON integers, and reals that are not JSON numbers."""
    extra = sorted(set(d) - set(keys))
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")
    for key, value in sorted(d.items()):
        if value is None:
            if not keys[key]:
                raise ConfigError(f"{where}.{key} must not be null")
        elif key in _INT_KEYS:
            is_list = key.startswith("signal_") and isinstance(value, list)
            if not all(map(_is_int, value if is_list else [value])):
                raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
        elif key in _REAL_KEYS and not _is_real(value):
            raise ConfigError(f"{where}.{key} must be a number, got {value!r}")


@dataclass(frozen=True)
class CandidateConfig:
    """One grid entry: an architecture plus hyperparameter overrides.

    ``learning_rate`` of None inherits the train section's rate. The
    size defaults mirror ModelSpec's (pinned together by a test).
    """

    architecture: Architecture
    width: int = 128
    depth: Optional[int] = None
    kernel_size: int = 5
    channels: int = 64
    dense_size: int = 256
    hidden_size: int = 64
    dropout: float = 0.0
    learning_rate: Optional[float] = None

    def spec(self, head: Head) -> ModelSpec:
        d = asdict(self)
        del d["learning_rate"]
        return ModelSpec(head=head, **d)

    def train_config(self, base: TrainConfig) -> TrainConfig:
        if self.learning_rate is None:
            return base
        return replace(base, learning_rate=self.learning_rate)

    def to_dict(self) -> dict:
        return {**asdict(self), "architecture": self.architecture.value}

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "CandidateConfig":
        _expect_keys(d, _keys(cls), where)
        if "architecture" not in d:
            raise ConfigError(f"{where} needs an architecture")
        d = dict(d)
        d["architecture"] = Architecture(d["architecture"])
        return cls(**d)


@dataclass
class RunConfig:
    """Everything one command needs, with defaults already resolved."""

    seed: int = 0
    out_dir: str = "runs/out"
    dataset_path: Optional[str] = None
    plant: Optional[PlantSpec] = None
    holdout_years: int = 2
    grid: tuple[CandidateConfig, ...] = ()
    model: Optional[CandidateConfig] = None
    train: TrainConfig = field(default_factory=TrainConfig)
    budget: ExplainBudget = field(default_factory=ExplainBudget)
    plans: tuple[DeletionPlan, ...] = ()
    workers: Optional[int] = None  # accepted for existing configs; no effect

    def candidates(self, head: Head) -> list[tuple[ModelSpec, TrainConfig]]:
        """The selection grid; empty config grid means the default grid."""
        if not self.grid:
            return default_grid(head, self.train)
        return [(c.spec(head), c.train_config(self.train)) for c in self.grid]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "dataset": {
                "path": self.dataset_path,
                "plant": None if self.plant is None else self.plant.to_dict(),
            },
            "split": {"holdout_years": self.holdout_years},
            "grid": [c.to_dict() for c in self.grid],
            "model": None if self.model is None else self.model.to_dict(),
            "train": self.train.to_dict(),
            "budget": self.budget.to_dict(),
            "plans": [p.to_dict() for p in self.plans],
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        top = _keys(cls)  # the dataset and split blocks regroup some fields
        _expect_keys(d, {"seed": top["seed"], "out_dir": top["out_dir"],
                         "workers": top["workers"], **dict.fromkeys(_BLOCKS, True)},
                     "config")

        dataset = d.get("dataset") or {}
        _expect_keys(dataset, {"path": top["dataset_path"], "plant": top["plant"]},
                     "dataset")
        plant = None
        if dataset.get("plant") is not None:
            _expect_keys(dataset["plant"], _keys(PlantSpec), "dataset.plant")
            plant = PlantSpec.from_dict(dataset["plant"])

        split = d.get("split") or {}
        _expect_keys(split, {"holdout_years": top["holdout_years"]}, "split")
        holdout_years = split.get("holdout_years", 2)
        if holdout_years < 1:
            raise ConfigError("holdout_years must be at least 1")

        train_block = d.get("train") or {}
        _expect_keys(train_block, _keys(TrainConfig), "train")
        train = TrainConfig.from_dict(train_block)

        budget_block = d.get("budget") or {}
        _expect_keys(budget_block, _keys(ExplainBudget), "budget")
        budget = ExplainBudget.from_dict(budget_block)

        # absent grid falls back to the default grid; a present-but-empty
        # one is a mistake, not a request for zero candidates
        if "grid" in d and d["grid"] is not None and len(d["grid"]) == 0:
            raise ConfigError("grid must not be empty")
        grid = tuple(
            CandidateConfig.from_dict(entry, f"grid[{i}]")
            for i, entry in enumerate(d.get("grid") or [])
        )
        model = None
        if d.get("model") is not None:
            model = CandidateConfig.from_dict(d["model"], "model")

        plans = []
        for i, block in enumerate(d.get("plans") or []):
            _expect_keys(block, _keys(DeletionPlan), f"plans[{i}]")
            # a plan's own budget overrides the run-level one key by key
            own = block.get("budget") or {}
            _expect_keys(own, _keys(ExplainBudget), f"plans[{i}].budget")
            block = {**block, "budget": {**budget.to_dict(), **own}}
            plans.append(DeletionPlan.from_dict(block))

        workers = d.get("workers")
        if workers is not None and workers < 1:
            raise ConfigError("workers must be positive")

        return cls(
            seed=d.get("seed", 0),
            out_dir=str(d.get("out_dir", "runs/out")),
            dataset_path=dataset.get("path"),
            plant=plant,
            holdout_years=holdout_years,
            grid=grid,
            model=model,
            train=train,
            budget=budget,
            plans=tuple(plans),
            workers=workers,
        )


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file; any problem at all is a config error."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        return RunConfig.from_dict(raw)
    except ConfigError:
        raise
    except Exception as exc:
        # the parsing boundary: component validation errors, wrong types,
        # and missing keys all surface as config errors (exit code 2)
        raise ConfigError(f"bad config: {exc}") from exc


def save_effective_config(cfg: RunConfig, path: str | Path) -> None:
    """Persist the defaults-filled config, atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, cfg.to_dict())
