"""Planted-signal dataset generation with known ground-truth relevance.

Inputs are i.i.d. standard normal, so only the declared signal cells carry
information about the target: y = sum of w * x over (step, band) pairs in
signal_steps x signal_bands, plus gaussian noise. Classification thresholds
that latent value at zero. Everything else is exactly irrelevant, which is
what makes deletion-curve behavior provable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import decode_enums
from .data import Task, TensorDataset, default_schema
from .errors import DatasetError
from .engine import DTYPE


@dataclass(frozen=True)
class PlantSpec:
    """Shape, signal support, target rule, and year assignment."""

    n: int
    t: int
    b: int
    signal_bands: frozenset[int]
    signal_steps: frozenset[int]
    weight: float = 1.0
    cell_weights: Optional[dict[tuple[int, int], float]] = None
    noise: float = 0.0
    task: Task = Task.REGRESSION
    year_start: int = 2016
    n_years: int = 4

    def __post_init__(self):
        decode_enums(self)
        if min(self.n, self.t, self.b) < 1:
            raise DatasetError("N, T, B must be positive")
        # NumPy refuses an array of more than intp-max bytes; the largest one
        # generate makes holds N·T·B float32 values (or N float64 targets)
        if self.n * max(self.t * self.b * DTYPE().itemsize, 8) > np.iinfo(np.intp).max:
            raise DatasetError(
                f"plant of N={self.n}, T={self.t}, B={self.b} is too large to "
                f"hold in one array"
            )
        if not self.signal_bands or not self.signal_steps:
            raise DatasetError("signal sets must be non-empty")
        if not all(0 <= b_ < self.b for b_ in self.signal_bands):
            raise DatasetError("signal band out of range")
        if not all(0 <= t_ < self.t for t_ in self.signal_steps):
            raise DatasetError("signal step out of range")
        if self.noise < 0:
            raise DatasetError("noise level cannot be negative")
        if self.n_years < 1:
            raise DatasetError("need at least one year")
        if self.cell_weights is not None:
            cells = self.signal_cells
            for cell in self.cell_weights:
                if tuple(cell) not in cells:
                    raise DatasetError(f"weight for non-signal cell {cell}")
        object.__setattr__(self, "signal_bands", frozenset(self.signal_bands))
        object.__setattr__(self, "signal_steps", frozenset(self.signal_steps))

    @property
    def signal_cells(self) -> set[tuple[int, int]]:
        return {(t_, b_) for t_ in self.signal_steps for b_ in self.signal_bands}

    def cell_weight(self, t_: int, b_: int) -> float:
        if self.cell_weights and (t_, b_) in self.cell_weights:
            return self.cell_weights[(t_, b_)]
        return self.weight

    @property
    def max_r2(self) -> float:
        """Attainable R^2 ceiling: signal variance over total variance."""
        sig = sum(self.cell_weight(t_, b_) ** 2 for t_, b_ in self.signal_cells)
        return sig / (sig + self.noise ** 2)


def generate(spec: PlantSpec, seed: int) -> TensorDataset:
    """Draw the dataset; bit-deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    values = rng.standard_normal((spec.n, spec.t, spec.b), dtype=DTYPE)

    latent = np.zeros(spec.n, dtype=np.float64)
    for t_, b_ in sorted(spec.signal_cells):
        latent += spec.cell_weight(t_, b_) * values[:, t_, b_].astype(np.float64)
    if spec.noise > 0:
        latent += spec.noise * rng.standard_normal(spec.n)

    if spec.task is Task.CLASSIFICATION:
        targets = (latent > 0).astype(np.int64)
        schema = default_schema(spec.t, spec.b, Task.CLASSIFICATION, n_classes=2)
    else:
        targets = latent.astype(DTYPE)
        schema = default_schema(spec.t, spec.b, Task.REGRESSION)

    years = (spec.year_start + np.arange(spec.n) % spec.n_years).astype(np.int64)
    return TensorDataset(schema=schema, values=values, targets=targets, years=years)
