"""Builders for the compared architectures and the structural-resize rule.

Five families over inputs of shape [T, B]: a flattening MLP, three recurrent
readers (plain RNN, LSTM, GRU) that consume the series step by step with the
bands as per-step features, and a 1-D temporal CNN. ``ModelSpec`` holds only
what a user sets; the dataset's ``FeatureSchema`` supplies the rest. Its time
steps and bands give the input grid [T, B], and its task and class count give
the head: a dense layer producing class logits (softmax cross-entropy) or a
single regression output (mean squared error). A positive ``dropout`` adds
an engine ``dropout`` node, ``drop<i>``, after each hidden MLP layer, the
temporal CNN's dense layer, or a recurrent reader's last step.

Each layer's weights and bias go into one engine node, ``dense``, ``conv1d``
or ``recurrent``; a recurrent layer is read out at its last step. Its
parameters are ``cellL/wx`` [in, k·H], ``cellL/wh`` [H, k·H] and
``cellL/b`` [k·H], with the k gates in the engine's column order: ``h`` for
the rnn, ``i, f, o, g`` for the lstm and ``z, r, n`` for the gru, where
``h' = (1 - z) h + z n`` and ``n = tanh(Wx x + b + r ⊙ (Wh h))``.

``build`` refuses a convolution kernel longer than its layer's input; the
resize path used between deletion cycles instead clamps the kernel to that
length and warns. An even kernel shortens the series by one step per
layer, so a later layer can need the clamp when the first does not. Resizing
always constructs a fresh model: the retraining protocol forbids warm starts,
which would leak information about deleted features.

All parameters, biases included, draw from a seeded uniform He-style scheme
U(-sqrt(6/fan_in), +sqrt(6/fan_in)), so two different seeds give models that
differ in every tensor. A recurrent cell draws gate by gate (lstm in the order
``i, f, g, o``), each gate its wx, wh and b in turn, and then lays the blocks
out in column order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .codec import decode_enums
from .data import FeatureSchema, Task
from .engine import DTYPE, Graph
from .errors import BuildError

TILE = 256  # rows in every inference forward call


class Architecture(str, Enum):
    MLP = "mlp"
    RNN = "rnn"
    LSTM = "lstm"
    GRU = "gru"
    TEMPCNN = "tempcnn"


_DEFAULT_DEPTH = {
    Architecture.MLP: 2,       # hidden layers
    Architecture.RNN: 1,       # stacked recurrent layers
    Architecture.LSTM: 1,
    Architecture.GRU: 1,
    Architecture.TEMPCNN: 3,   # convolution blocks
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture family plus hyperparameters; sizes must be positive. The
    input grid and the head come from the schema a model is built for.

    ``depth`` of None resolves per family: 2 hidden layers for the MLP,
    3 convolution blocks for the temporal CNN, 1 stacked layer otherwise.
    """

    architecture: Architecture
    width: int = 128
    depth: Optional[int] = None
    kernel_size: int = 5
    channels: int = 64
    dense_size: int = 256
    hidden_size: int = 64
    dropout: float = 0.0

    def __post_init__(self):
        decode_enums(self)
        for name in ("width", "kernel_size", "channels", "dense_size", "hidden_size"):
            value = getattr(self, name)
            if value < 1:
                raise BuildError(f"{name} must be positive, got {value}")
        if self.depth is not None and self.depth < 1:
            raise BuildError(f"depth must be positive, got {self.depth}")
        if not 0.0 <= self.dropout < 1.0:
            raise BuildError(f"dropout rate must lie in [0, 1), got {self.dropout}")

    @property
    def resolved_depth(self) -> int:
        return self.depth if self.depth is not None else _DEFAULT_DEPTH[self.architecture]


@dataclass
class Model:
    spec: ModelSpec
    graph: Graph
    task: Task

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode output over ``x``, forwarded in ``tiles``, so a
        row's bytes depend on the model and that row alone; zero rows give
        the empty output."""
        if not len(x):
            return self.graph.forward(x)
        return np.concatenate([self.graph.forward(tile) for tile in tiles(x)])[:len(x)]

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.graph.params.values())


def tiles(x: np.ndarray):
    """``x`` in ``TILE``-row pieces, the last one zero-padded to ``TILE`` rows:
    the last bits of a forward row can depend on the row count of its call."""
    for start in range(0, len(x), TILE):
        tile = x[start:start + TILE]
        if len(tile) < TILE:
            tile = np.concatenate([tile, np.zeros((TILE - len(tile), *x.shape[1:]), x.dtype)])
        yield tile


# ---------------------------------------------------------------------------
# construction


def build(spec: ModelSpec, schema: FeatureSchema, seed: int) -> Model:
    """Seeded construction over the schema's grid; errors when a convolution
    kernel exceeds the length of its layer's input or a parameter is too
    large to allocate."""
    return _construct(spec, schema, seed, clamp=False)


def resize_for_input(spec: ModelSpec, schema: FeatureSchema, seed: int) -> Model:
    """Fresh model for shrunken data; no weight reuse from any prior model.

    A kernel longer than its layer's input is clamped to that length, and
    each clamp warns.
    """
    return _construct(spec, schema, seed, clamp=True)


def _construct(spec: ModelSpec, schema: FeatureSchema, seed: int, clamp: bool) -> Model:
    """The model for ``spec`` over the schema's grid. A kernel that does not
    fit is clamped, with a warning, when ``clamp`` is set, and a
    ``BuildError`` otherwise, as is a negative seed."""
    if seed < 0:
        raise BuildError(f"seed must not be negative, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    t, b = schema.n_timesteps, schema.n_bands
    g = Graph(input_shape=(t, b))
    arch = spec.architecture
    if arch is Architecture.MLP:
        last, fan = _mlp_body(g, spec, t, b, rng)
    elif arch is Architecture.TEMPCNN:
        last, fan = _tempcnn_body(g, spec, t, b, rng, clamp)
    else:
        last, fan = _recurrent_body(g, spec, t, b, rng)
    _attach_head(g, schema, last, fan, rng)
    return Model(spec=spec, graph=g, task=schema.task)


def _init(rng, shape, fan_in):
    """Weights uniform in ±sqrt(6 / fan_in); a shape NumPy cannot allocate
    is a ``BuildError``."""
    limit = math.sqrt(6.0 / fan_in)
    try:
        return rng.uniform(-limit, limit, size=shape).astype(DTYPE)
    except (MemoryError, ValueError) as exc:
        raise BuildError(f"cannot allocate a parameter of shape {shape}: {exc}") from None


def _dense(g, rng, x, fan_in, fan_out, name):
    w = g.param(f"{name}/w", _init(rng, (fan_in, fan_out), fan_in))
    bias = g.param(f"{name}/b", _init(rng, (fan_out,), fan_in))
    return g.dense(x, w, bias)


def _dropout(g, spec, h, site):
    """``h`` through the dropout node ``drop<site>``; none at rate zero."""
    return g.dropout(h, f"drop{site}", spec.dropout) if spec.dropout > 0.0 else h


def _mlp_body(g, spec, t, b, rng):
    h = g.flatten(g.input_node)
    fan = t * b
    for i in range(spec.resolved_depth):
        h = g.relu(_dense(g, rng, h, fan, spec.width, f"layer{i}"))
        h = _dropout(g, spec, h, i)
        fan = spec.width
    return h, fan


def _tempcnn_body(g, spec, t, b, rng, clamp):
    h = g.input_node
    length, c_in, k = t, b, spec.kernel_size
    for i in range(spec.resolved_depth):
        if k > length:
            if not clamp:
                raise BuildError(
                    f"kernel {k} larger than input length {length} at conv{i}")
            # level 4 is the line that called resize_for_input
            warnings.warn(f"kernel clamped from {k} to {length} for input length {length}",
                          stacklevel=4)
            k = length
        pad = (k - 1) // 2
        w = g.param(f"conv{i}/w", _init(rng, (k, c_in, spec.channels), k * c_in))
        bias = g.param(f"conv{i}/b", _init(rng, (spec.channels,), k * c_in))
        h = g.relu(g.conv1d(h, w, bias, padding=pad))
        length = length + 2 * pad - k + 1
        c_in = spec.channels
    h = g.flatten(h)
    fan = length * spec.channels
    h = g.relu(_dense(g, rng, h, fan, spec.dense_size, "dense"))
    return _dropout(g, spec, h, 0), spec.dense_size


def _recurrent_body(g, spec, t, b, rng):
    h, in_dim, hid = g.input_node, b, spec.hidden_size
    cell = spec.architecture.value
    for layer in range(spec.resolved_depth):
        params = _cell_params(g, rng, cell, in_dim, hid, f"cell{layer}")
        h = g.recurrent(h, *params, cell)
        in_dim = hid
    return _dropout(g, spec, g.slice_time(h, t - 1), 0), hid


# per cell: the order the gates draw their weights, then the engine's column
# order (sigmoid gates first, the tanh gate last)
_GATES = {
    "rnn": (("h",), ("h",)),
    "lstm": (("i", "f", "g", "o"), ("i", "f", "o", "g")),
    "gru": (("z", "r", "n"), ("z", "r", "n")),
}


def _cell_params(g, rng, cell, in_dim, hid, prefix):
    """``prefix/wx`` [in, k·H], ``prefix/wh`` [H, k·H] and ``prefix/b`` [k·H]:
    each gate draws its wx, wh and b in turn, gate by gate, and the drawn
    blocks are laid side by side in column order."""
    draw_order, columns = _GATES[cell]
    drawn = {gate: (_init(rng, (in_dim, hid), in_dim), _init(rng, (hid, hid), hid),
                    _init(rng, (hid,), in_dim)) for gate in draw_order}
    blocks = zip(*(drawn[gate] for gate in columns))
    return tuple(g.param(f"{prefix}/{name}", np.concatenate(parts, axis=-1))
                 for name, parts in zip(("wx", "wh", "b"), blocks))


def _attach_head(g, schema, last, fan, rng):
    classify = schema.task is Task.CLASSIFICATION
    out = _dense(g, rng, last, fan, schema.n_classes if classify else 1, "head")
    if classify:
        g.softmax_cross_entropy(out)
    else:
        g.mean_squared_error(out)

