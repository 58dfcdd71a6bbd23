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

from .codec import decode_enums, finite
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
        for name, value in (("weight", self.weight), ("noise", self.noise)):
            if not finite(value):
                raise DatasetError(f"{name} must be finite, got {value}")
        if self.noise < 0:
            raise DatasetError("noise level cannot be negative")
        if self.n_years < 1:
            raise DatasetError("need at least one year")
        last = self.year_start + min(self.n, self.n_years) - 1
        if self.year_start < 0 or last >= 2**32:
            raise DatasetError(f"years {self.year_start} to {last} must lie in [0, 2**32)")
        if self.cell_weights is not None:
            cells = self.signal_cells
            for cell, w in self.cell_weights.items():
                if tuple(cell) not in cells:
                    raise DatasetError(f"weight for non-signal cell {cell}")
                if not finite(w):
                    raise DatasetError(f"cell_weights for {cell} must be finite, got {w}")
        object.__setattr__(self, "signal_bands", frozenset(self.signal_bands))
        object.__setattr__(self, "signal_steps", frozenset(self.signal_steps))

    @property
    def signal_cells(self) -> set[tuple[int, int]]:
        return {(t_, b_) for t_ in self.signal_steps for b_ in self.signal_bands}

    def cell_weight(self, t_: int, b_: int) -> float:
        if self.cell_weights and (t_, b_) in self.cell_weights:
            return self.cell_weights[(t_, b_)]
        return self.weight


def generate(spec: PlantSpec, seed: int) -> TensorDataset:
    """Draw the dataset; bit-deterministic per seed. A negative seed, or a
    plant too large to allocate, is a ``DatasetError``."""
    if seed < 0:
        raise DatasetError(f"seed must not be negative, got {seed}")
    try:
        return _draw(spec, seed)
    except MemoryError as exc:
        raise DatasetError(f"cannot allocate a plant of N={spec.n}, T={spec.t}, "
                           f"B={spec.b}: {exc}") from None


def _draw(spec: PlantSpec, seed: int) -> TensorDataset:
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

    # row i < n has i % n_years == i % min(n, n_years), which fits in an int64
    years = (spec.year_start + np.arange(spec.n) % min(spec.n, spec.n_years)).astype(np.int64)
    return TensorDataset(schema=schema, values=values, targets=targets, years=years)
