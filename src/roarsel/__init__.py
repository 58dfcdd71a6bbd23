"""roarsel: necessary/sufficient feature selection for multivariate time series.

Train a baseline model, estimate feature attributions, physically delete the
most- or least-important bands or time steps, retrain on the shrunken data,
and repeat, recording the performance curve and extracting the sufficient
and necessary feature sets.

The package root exports what a campaign needs; everything else lives in
its module (``roarsel.attribution``, ``roarsel.data``, ``roarsel.engine`` ...).
"""

from .attribution import ExplainBudget, GroupingAxis
from .data import split_by_year
from .models import Architecture, ModelSpec
from .roar import (
    DeletionOrder, DeletionPlan, load_curve, necessary_set, run_roar, sufficient_set,
)
from .synthetic import PlantSpec, generate
from .training import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "Architecture", "DeletionOrder", "DeletionPlan", "ExplainBudget",
    "GroupingAxis", "ModelSpec", "PlantSpec", "TrainConfig",
    "generate", "load_curve", "necessary_set", "run_roar", "split_by_year",
    "sufficient_set",
]
