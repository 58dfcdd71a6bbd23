"""Mini-batch training with early stopping, metrics, and model selection.

The optimizer is the adaptive-moment method with the canonical constants
``BETA1`` 0.9, ``BETA2`` 0.999 and ``EPS`` 1e-8. Its state is one flat
float32 buffer per quantity (parameters, first and second moments, the
gathered gradient, one scratch buffer), and each ``graph.params`` entry is a
view of the parameter buffer, during training and after it. A step updates
these buffers in place and allocates no array. Training is bit-deterministic
per seed: the batch shuffles and dropout masks draw from one stream, and the
parameter initialization from another. ``batch_size`` sizes training batches
only, each one ``Graph.forward_loss`` (which draws its masks) and the
parameters-only backward of that loss, which skips the input gradient. Each
epoch's validation loss is ``Graph.loss_of`` over ``Model.infer``, whose
fixed tiles serve every evaluation-mode forward. Early stopping keeps the
weights of the epoch with the lowest validation loss (ties keep the earlier
epoch), written back into the parameter buffer, and stops after ``patience``
epochs without improvement.

Selection trains every grid candidate, ranks by the validation metric, and
reports test metrics for the winner only after ranking; the test split never
influences the choice. A process that runs a single OS thread on Linux trains
the candidates in one forked lane per usable CPU, itself included; the lanes
return parameters and validation metrics only, and the selection's bytes do
not depend on which lane trained what.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .codec import decode_enums, finite
from .data import SplitTriple, Task, TensorDataset
from .engine import DTYPE
from .errors import BuildError, TrainingDiverged, TrainingError
from .lanes import fork_map
from .models import Architecture, Model, ModelSpec, build


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 100
    patience: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        if min(self.max_epochs, self.patience, self.batch_size) < 1:
            raise TrainingError("epochs, patience, and batch size must be positive")
        if self.patience >= self.max_epochs:
            raise TrainingError("patience must be smaller than max_epochs")
        if not finite(self.learning_rate):
            raise TrainingError(f"learning rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise TrainingError("learning rate must be positive")


class MetricKind(str, Enum):
    ACCURACY = "accuracy"
    R2 = "r2"


@dataclass(frozen=True)
class MetricValue:
    kind: MetricKind
    value: float

    def __post_init__(self):
        decode_enums(self)
        if self.kind is MetricKind.ACCURACY and not 0.0 <= self.value <= 1.0:
            raise TrainingError(f"accuracy out of range: {self.value}")
        if self.kind is MetricKind.R2 and self.value > 1.0 + 1e-6:
            raise TrainingError(f"r2 above 1: {self.value}")


@dataclass
class TrainReport:
    best_epoch: int
    epochs_run: int
    train_loss: list[float]
    val_loss: list[float]
    val_metric: MetricValue

    def __post_init__(self):
        if not 1 <= self.best_epoch <= self.epochs_run:
            raise TrainingError("best_epoch must lie in [1, epochs_run]")
        if not len(self.train_loss) == len(self.val_loss) == self.epochs_run:
            raise TrainingError("train_loss and val_loss need one entry per epoch run")


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# the float32 values a float32 array operation rounds the constants to
_BETA1, _BETA2, _EPS = DTYPE(BETA1), DTYPE(BETA2), DTYPE(EPS)
_1_BETA1, _1_BETA2 = DTYPE(1.0 - BETA1), DTYPE(1.0 - BETA2)


class _Adam:
    """Adaptive-moment updates over one flat float32 buffer per quantity.

    The constructor packs the parameters, in ``params`` order, into ``flat``
    and rebinds each ``params[name]`` to a view of it; ``m``, ``v``, the
    gathered gradient ``g`` and the scratch ``tmp`` are buffers of the same
    size. A step runs the float32 operations of ``m = β1 m + (1 - β1) g``,
    ``v = β2 v + (1 - β2) g²`` and ``flat -= lr (m / b1t) / (√(v / b2t) + ε)``
    in that order over all tensors at once, element-wise the same as one per
    tensor. Each writes into these buffers (``g`` once the moments have read
    it), with its constant rounded to float32 as a float32 array operation
    rounds a Python float, so the bytes are those of the expressions.
    """

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.learning_rate = DTYPE(learning_rate)
        self.names = list(params)
        self.flat = np.concatenate([params[k].reshape(-1) for k in self.names])
        offset = 0
        for k in self.names:
            size = params[k].size
            params[k] = self.flat[offset:offset + size].reshape(params[k].shape)
            offset += size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.g = np.empty_like(self.flat)
        self.tmp = np.empty_like(self.flat)
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        m, v, g, tmp = self.m, self.v, self.g, self.tmp
        np.concatenate([grads[k].reshape(-1) for k in self.names], out=g)
        m *= _BETA1
        np.multiply(g, _1_BETA1, out=tmp)
        m += tmp
        v *= _BETA2
        np.multiply(g, g, out=tmp)
        tmp *= _1_BETA2
        v += tmp
        np.divide(m, DTYPE(1.0 - BETA1 ** self.t), out=g)
        g *= self.learning_rate
        np.divide(v, DTYPE(1.0 - BETA2 ** self.t), out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += _EPS
        g /= tmp
        self.flat -= g


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train(
    model: Model,
    train_split: TensorDataset,
    val_split: TensorDataset,
    cfg: TrainConfig,
    seed: int,
) -> tuple[Model, TrainReport]:
    """Fit in place and return the model restored to its best epoch.

    ``seed`` keys the batch shuffles and dropout masks.

    Divergence (non-finite training or validation loss) aborts with a
    diagnostic naming the epoch and batch. A split that is empty or does
    not fit the model is a ``TrainingError`` naming it.
    """
    t, b = model.graph.input_shape
    for split, label in ((train_split, "train"), (val_split, "validation")):
        if split.shape[1:] != (t, b):
            raise TrainingError(
                f"{label} split shape {split.shape[1:]} does not match model ({t}, {b})"
            )
        if split.n_samples == 0:
            raise TrainingError(f"{label} split is empty")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    opt = _Adam(model.graph.params, cfg.learning_rate)
    graph = model.graph
    best_val = np.inf
    best_epoch = 0
    best: Optional[np.ndarray] = None
    train_hist: list[float] = []
    val_hist: list[float] = []
    since_best = 0
    epochs_run = 0

    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        epoch_loss = 0.0
        for bi, idx in enumerate(_batches(train_split.n_samples, cfg.batch_size, rng)):
            xb = train_split.values[idx]
            yb = train_split.targets[idx]
            loss = graph.forward_loss(xb, yb, rng)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite training loss {loss} at epoch {epoch}, batch {bi}"
                )
            opt.step(graph.backward("loss", input_grad=False).params)
            epoch_loss += loss * len(idx)
        train_hist.append(epoch_loss / train_split.n_samples)

        val_loss = split_loss(model, val_split)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        val_hist.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best = opt.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    opt.flat[...] = best  # the first epoch always improves on inf
    report = TrainReport(
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        train_loss=train_hist,
        val_loss=val_hist,
        val_metric=evaluate(model, val_split),
    )
    return model, report


def split_loss(model: Model, split: TensorDataset) -> float:
    """Mean loss over a split, evaluation mode: ``Graph.loss_of`` over
    ``Model.infer``'s output, so it depends on no batch size."""
    if split.n_samples == 0:
        raise TrainingError("cannot take the loss of an empty split")
    return model.graph.loss_of(model.infer(split.values), split.targets)


def evaluate(model: Model, split: TensorDataset) -> MetricValue:
    """Accuracy for classification; R^2 about the split's target mean."""
    if split.n_samples == 0:
        raise TrainingError("cannot evaluate an empty split")
    out = model.infer(split.values)
    if model.task is Task.CLASSIFICATION:
        value = float(np.mean(out.argmax(axis=1) == split.targets))
        return MetricValue(MetricKind.ACCURACY, value)
    targets = split.targets.astype(np.float64)
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0.0:
        raise TrainingError("constant targets")
    ss_res = float(np.sum((targets - out.reshape(-1).astype(np.float64)) ** 2))
    return MetricValue(MetricKind.R2, 1.0 - ss_res / ss_tot)


# ---------------------------------------------------------------------------
# selection harness


@dataclass
class CandidateResult:
    """One grid candidate's outcome: a row of ``selection.json``."""

    index: int
    architecture: Architecture
    learning_rate: float
    val_metric: Optional[float]
    error: Optional[str] = None
    test_metric: Optional[float] = None


@dataclass
class SelectionReport:
    """What ``select`` persists; ``selection.json`` is its codec form."""

    ranking: list[CandidateResult]  # best first; failed candidates last
    best_index: int
    test_metric: Optional[float]


def select_model(
    grid: Sequence[tuple[ModelSpec, TrainConfig]],
    splits: SplitTriple,
    seed: int,
) -> tuple[Model, SelectionReport]:
    """Train every candidate and pick the best validation metric.

    Each candidate is built and trained from ``seed``, in one of the lanes
    of ``lanes.fork_map``; this process then rebuilds every trained model
    from its parameters, so the result does not depend on the lanes. Ties
    keep the earlier grid index. Per-candidate training errors are recorded
    and the grid continues; all candidates failing is an error. The test
    split is consulted only after ranking, so it never influences the
    ranking.
    """
    if not grid:
        raise TrainingError("empty selection grid")
    ok: list[CandidateResult] = []
    failed: list[CandidateResult] = []
    models: dict[int, Model] = {}
    outcomes = fork_map(lambda i: _fit(*grid[i], splits, seed), len(grid),
                        lambda lost: TrainingError("a training process exited without "
                                                   f"the outcome of candidates {lost}"))
    for i, outcome in enumerate(outcomes):
        spec, cfg = grid[i]
        if isinstance(outcome, str):
            failed.append(CandidateResult(i, spec.architecture, cfg.learning_rate,
                                          None, outcome))
            continue
        params, val_metric = outcome
        models[i] = build(spec, splits.train.schema, seed=seed)
        for name, value in params.items():
            models[i].graph.params[name][...] = value
        ok.append(CandidateResult(i, spec.architecture, cfg.learning_rate, val_metric))
    if not ok:
        raise TrainingError("every candidate failed: " + "; ".join(
            f"#{c.index}: {c.error}" for c in failed
        ))
    # stable sort keeps the earlier grid index on metric ties
    ranked = sorted(ok, key=lambda c: -c.val_metric) + failed
    for c in ok:
        c.test_metric = evaluate(models[c.index], splits.test).value
    best = ranked[0]
    report = SelectionReport(
        ranking=ranked, best_index=best.index, test_metric=best.test_metric
    )
    return models[best.index], report


# A candidate's outcome: its trained parameters and validation metric, or the
# text of the TrainingError or BuildError that stopped it. A forked lane sends
# no Model, since a Graph holds lambdas and does not pickle.
_Outcome = Union[tuple[dict[str, np.ndarray], float], str]


def _fit(spec: ModelSpec, cfg: TrainConfig, splits: SplitTriple, seed: int) -> _Outcome:
    try:
        model = build(spec, splits.train.schema, seed=seed)
        model, report = train(model, splits.train, splits.validation, cfg, seed)
    except (TrainingError, BuildError) as exc:
        return str(exc)
    return model.graph.params, report.val_metric.value


def default_grid(base: TrainConfig) -> list[tuple[ModelSpec, TrainConfig]]:
    """Five architectures crossed with the learning-rate grid {1e-3, 1e-4};
    every other training setting comes from ``base``."""
    return [(ModelSpec(architecture=arch), replace(base, learning_rate=lr))
            for arch in Architecture for lr in (1e-3, 1e-4)]
