"""Run configuration: strict JSON parsing and a fully-defaulted echo.

A run config is one JSON object naming the dataset, the split, the model
grid (or a single campaign model), training and estimator budgets, and
the deletion plans. Each block is decoded by its dataclass's annotations
(``codec``), so unknown keys and values of the wrong kind fail by name
instead of silently falling back to a default. ``to_dict`` fills in every
default, and the persisted result is enough to reproduce the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .attribution import ExplainBudget
from .codec import decode, encode
from .data import write_json
from .errors import ConfigError, RoarselError
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

    def __post_init__(self):
        if self.holdout_years < 1:
            raise ConfigError("holdout_years must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be positive")

    def candidates(self, head: Head) -> list[tuple[ModelSpec, TrainConfig]]:
        """The selection grid; empty config grid means the default grid."""
        if not self.grid:
            return default_grid(head, self.train)
        return [(c.spec(head), c.train_config(self.train)) for c in self.grid]

    def to_dict(self) -> dict:
        """``encode(self)`` in the file's layout, every default filled in."""
        d = encode(self)
        d["dataset"] = {"path": d.pop("dataset_path"), "plant": d.pop("plant")}
        d["split"] = {"holdout_years": d.pop("holdout_years")}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Decode a config file's object, each value by its field's type.

        The file groups ``dataset_path`` and ``plant`` under ``dataset`` and
        ``holdout_years`` under ``split``. A null block is an empty one, and a
        plan's own ``budget`` overrides the run-level one key by key.
        """
        d = _block(d, "config", ("seed", "out_dir", "workers", "dataset", "split",
                                 *_BLOCK_FIELDS))
        dataset = _block(d.get("dataset"), "dataset", ("path", "plant"))
        split = _block(d.get("split"), "split", ("holdout_years",))
        # absent grid falls back to the default grid; a present-but-empty
        # one is a mistake, not a request for zero candidates
        if d.get("grid") == []:
            raise ConfigError("grid must not be empty")
        if isinstance(d.get("plans"), list):
            budget = {} if d.get("budget") is None else d["budget"]
            d["plans"] = [_with_run_budget(plan, budget) for plan in d["plans"]]
        places = [("seed", d, "seed", "config.seed"),
                  ("out_dir", d, "out_dir", "config.out_dir"),
                  ("workers", d, "workers", "config.workers"),
                  ("dataset_path", dataset, "path", "dataset.path"),
                  ("plant", dataset, "plant", "dataset.plant"),
                  ("holdout_years", split, "holdout_years", "split.holdout_years"),
                  *((name, d, name, name) for name in _BLOCK_FIELDS)]
        hints = get_type_hints(cls)
        return cls(**{
            name: decode(hints[name], block[key], where)
            for name, block, key, where in places
            if key in block and not (block[key] is None and name in _BLOCK_FIELDS)
        })


# the top-level blocks that are fields of their own; null means absent
_BLOCK_FIELDS = ("grid", "model", "train", "budget", "plans")


def _block(raw, where: str, keys: tuple[str, ...]) -> dict:
    """A block of the file's own layout: an object of known keys, or null."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    extra = sorted(set(raw) - set(keys))
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")
    return dict(raw)


def _with_run_budget(plan, budget):
    """A plan block whose own budget keys override the run-level ones; a
    block that is not an object is left for the decoder to name."""
    own = plan.get("budget") if isinstance(plan, dict) else None
    own = {} if own is None else own
    if not (isinstance(plan, dict) and isinstance(budget, dict) and isinstance(own, dict)):
        return plan
    return {**plan, "budget": {**budget, **own}}


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file; any problem at all is a config error."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        return RunConfig.from_dict(raw)
    except ConfigError:
        raise
    except RoarselError as exc:
        # a block's own range checks (patience below max_epochs, ...)
        raise ConfigError(f"bad config: {exc}") from exc


def save_effective_config(cfg: RunConfig, path: str | Path) -> None:
    """Persist the defaults-filled config, atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, cfg.to_dict())
