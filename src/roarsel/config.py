"""Run configuration: strict JSON parsing and a fully-defaulted echo.

A run config is one JSON object naming the dataset, the split, the model
grid (or a single campaign model), training and estimator budgets, and
the deletion plans. Each block is decoded by its dataclass's annotations
(``codec``), so unknown keys, values of the wrong kind and values a block's
own checks reject fail by their path from the root (``config.train.max_epochs``,
``config.grid[0]: width must be positive, got 0``) instead of silently falling
back to a default. A ``model`` or ``grid`` entry is a ``ModelSpec`` plus an
optional learning rate; the dataset's schema supplies its input grid and head.
The file is the codec form of ``RunConfig``: its echo fills in every default,
and the persisted result is enough to reproduce the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .attribution import ExplainBudget
from .codec import decode, finite
from .errors import ConfigError
from .models import ModelSpec
from .roar import DeletionPlan, child_seed
from .synthetic import PlantSpec
from .training import TrainConfig, default_grid

# random-stream index 1 is claimed by the training loop, 5 by the
# explained-sample draw, and the campaign loop keys three-element sequences;
# these two-element streams stay clear of all of them
_SECTION_STREAMS = {"split": 2, "select": 3, "roar": 4, "generate": 6}


def section_seed(seed: int, section: str) -> int:
    """Stable per-command seed derived from the experiment seed."""
    return child_seed(seed, _SECTION_STREAMS[section])


@dataclass(frozen=True)
class CandidateConfig(ModelSpec):
    """A ``model`` or ``grid`` entry: a model spec and its learning rate.

    ``learning_rate`` of None inherits the train section's rate.
    """

    learning_rate: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        if self.learning_rate is not None and not finite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")

    def train_config(self, base: TrainConfig) -> TrainConfig:
        if self.learning_rate is None:
            return base
        return replace(base, learning_rate=self.learning_rate)


@dataclass(frozen=True)
class DatasetConfig:
    """Where the dataset lives, and the planted one ``generate`` writes there."""

    path: Optional[str] = None
    plant: Optional[PlantSpec] = None


@dataclass(frozen=True)
class SplitConfig:
    holdout_years: int = 2

    def __post_init__(self):
        if self.holdout_years < 1:
            raise ConfigError("holdout_years must be at least 1")


@dataclass
class RunConfig:
    """Everything one command needs; its codec form is the config file."""

    seed: int = 0
    out_dir: str = "runs/out"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    grid: Optional[tuple[CandidateConfig, ...]] = None
    model: Optional[CandidateConfig] = None
    train: TrainConfig = field(default_factory=TrainConfig)
    budget: ExplainBudget = field(default_factory=ExplainBudget)
    plans: tuple[DeletionPlan, ...] = field(default_factory=tuple)
    workers: Optional[int] = None  # accepted for existing configs; no effect

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be positive")

    @property
    def dataset_path(self) -> Optional[str]:
        """``dataset.path``; kept for the benchmark's set-up probe."""
        return self.dataset.path

    @property
    def holdout_years(self) -> int:
        """``split.holdout_years``; kept for the benchmark's set-up probe."""
        return self.split.holdout_years

    def candidates(self) -> list[tuple[ModelSpec, TrainConfig]]:
        """The selection grid; no config grid means the default grid."""
        if self.grid is None:
            return default_grid(self.train)
        return [(c, c.train_config(self.train)) for c in self.grid]

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """Decode a config file's object, each value by its field's type.

        A null block is an empty one, and a plan's own ``budget`` overrides
        the run-level one key by key.
        """
        if isinstance(d, dict):
            # an absent or null grid means the default grid; a present-but-empty
            # one is a mistake, not a request for zero candidates
            if d.get("grid") == []:
                raise ConfigError("config.grid must not be empty")
            if isinstance(d.get("plans"), list):
                budget = {} if d.get("budget") is None else d["budget"]
                d = {**d, "plans": [_with_run_budget(p, budget) for p in d["plans"]]}
        return decode(cls, d, "config")


def _with_run_budget(plan, budget):
    """A plan block whose own budget keys override the run-level ones; a
    block that is not an object is left for the decoder to name."""
    own = plan.get("budget") if isinstance(plan, dict) else None
    own = {} if own is None else own
    if not (isinstance(plan, dict) and isinstance(budget, dict) and isinstance(own, dict)):
        return plan
    return {**plan, "budget": {**budget, **own}}


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Parse a config file, with top-level keys replaced by ``overrides``
    before decoding; any problem at all is a config error."""
    p = Path(path)
    try:
        raw = json.loads(p.read_bytes())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except OSError as exc:  # a directory, or not readable
        raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw = {**raw, **overrides}
    return RunConfig.from_dict(raw)
