"""Exception hierarchy shared across the package."""

from __future__ import annotations


class RoarselError(Exception):
    """Base class for all package errors."""


class DatasetError(RoarselError):
    """Invalid dataset contents, schema violations, or on-disk format problems."""


class GraphError(RoarselError):
    """Graph construction or execution failure (shape mismatch, bad selector)."""


class BuildError(RoarselError):
    """Model cannot be built for the requested input structure."""


class TrainingError(RoarselError):
    """Training-harness failure."""


class TrainingDiverged(TrainingError):
    """Training produced a non-finite loss."""


class EstimatorError(RoarselError):
    """Attribution estimator misuse (group limits, missing baseline, ...)."""


class CurveError(RoarselError):
    """A deletion curve that fails its checks, or a query it cannot answer."""


class ConfigError(RoarselError):
    """Malformed or incomplete run configuration."""


class RoarAborted(RoarselError):
    """A deletion campaign failed mid-run."""
