"""Run configuration: strict JSON parsing and a fully-defaulted echo.

A run config is one JSON object naming the dataset, the split, the model
grid (or a single campaign model), training and estimator budgets, and
the deletion plans. Unknown keys are rejected at every level so a typo
cannot silently fall back to a default. ``to_dict`` fills in every
default, and the persisted result is enough to reproduce the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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

# lane 1 is claimed by the training loop, 5 by budget freezing, and the
# campaign loop keys three-element sequences; these two-element lanes
# stay clear of all of them
_SECTION_LANES = {"split": 2, "select": 3, "roar": 4, "generate": 6}


def section_seed(seed: int, section: str) -> int:
    """Stable per-command seed derived from the experiment seed."""
    lane = _SECTION_LANES[section]
    return int(np.random.SeedSequence([int(seed), lane]).generate_state(1)[0])


def _expect_keys(d: dict, known: set[str], where: str) -> None:
    extra = sorted(set(d) - known)
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")


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
        return ModelSpec(
            architecture=self.architecture,
            head=head,
            width=self.width,
            depth=self.depth,
            kernel_size=self.kernel_size,
            channels=self.channels,
            dense_size=self.dense_size,
            hidden_size=self.hidden_size,
            dropout=self.dropout,
        )

    def train_config(self, base: TrainConfig, seed: int) -> TrainConfig:
        rate = base.learning_rate if self.learning_rate is None else self.learning_rate
        return replace(base, learning_rate=rate, seed=seed)

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture.value,
            "width": self.width,
            "depth": self.depth,
            "kernel_size": self.kernel_size,
            "channels": self.channels,
            "dense_size": self.dense_size,
            "hidden_size": self.hidden_size,
            "dropout": self.dropout,
            "learning_rate": self.learning_rate,
        }

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "CandidateConfig":
        _expect_keys(d, set(cls.__dataclass_fields__), where)
        if "architecture" not in d:
            raise ConfigError(f"{where} needs an architecture")
        d = dict(d)
        d["architecture"] = Architecture(d["architecture"])
        return cls(**d)


_TRAIN_KEYS = {"max_epochs", "patience", "batch_size", "learning_rate", "seed"}
_BUDGET_KEYS = {"n_samples", "n_permutations", "ensemble_size", "noise_scale"}
_PLAN_KEYS = {"axis", "order", "estimator_tag", "budget", "k", "tolerance"}
_PLANT_KEYS = {"n", "t", "b", "signal_bands", "signal_steps", "weight",
               "cell_weights", "noise", "task", "year_start", "n_years"}


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
        seed = section_seed(self.seed, "select")
        if not self.grid:
            shared = {
                "max_epochs": self.train.max_epochs,
                "patience": self.train.patience,
                "batch_size": self.train.batch_size,
            }
            return default_grid(head, seed=seed, train_overrides=shared)
        return [(c.spec(head), c.train_config(self.train, seed)) for c in self.grid]

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
        _expect_keys(d, {"seed", "out_dir", "dataset", "split", "grid", "model",
                         "train", "budget", "plans", "workers"}, "config")

        dataset = d.get("dataset") or {}
        _expect_keys(dataset, {"path", "plant"}, "dataset")
        plant = None
        if dataset.get("plant") is not None:
            _expect_keys(dataset["plant"], _PLANT_KEYS, "dataset.plant")
            plant = PlantSpec.from_dict(dataset["plant"])

        split = d.get("split") or {}
        _expect_keys(split, {"holdout_years"}, "split")
        holdout_years = int(split.get("holdout_years", 2))
        if holdout_years < 1:
            raise ConfigError("holdout_years must be at least 1")

        train_block = d.get("train") or {}
        _expect_keys(train_block, _TRAIN_KEYS, "train")
        train = TrainConfig.from_dict(train_block)

        budget_block = d.get("budget") or {}
        _expect_keys(budget_block, _BUDGET_KEYS, "budget")
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
            _expect_keys(block, _PLAN_KEYS, f"plans[{i}]")
            block = dict(block)
            # a plan without its own budget shares the run-level one
            block.setdefault("budget", budget.to_dict())
            plans.append(DeletionPlan.from_dict(block))

        workers = d.get("workers")
        if workers is not None:
            workers = int(workers)
            if workers < 1:
                raise ConfigError("workers must be positive")

        return cls(
            seed=int(d.get("seed", 0)),
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
