"""Dense float32 tensors and a small reverse-mode differentiation engine.

Graphs are static: nodes are appended in topological order with shapes
validated at build time (per-sample shapes; the batch dimension is implicit).
Each builder method binds its node to a forward and a backward kernel next to
its shape check, so ``forward`` and ``backward`` are two generic loops over
the tape: ``forward`` caches activations, ``backward`` walks them in reverse.
The batch enters through leaf slots (the input, the target, dropout masks);
kernels see only argument values and never reference the Graph, so a dropped
model is freed without waiting for the cyclic collector.

Guided mode changes the backward rule at ReLU nodes only: the upstream
gradient is clipped at zero before the standard rule, so it is zeroed
wherever the forward input was <= 0 or the upstream gradient is < 0.
ReLU masking, in both rules, is branch-free: the float32 bits of the
gradient are ANDed with an all-ones or all-zeros word, bit-identical to
``np.where(keep, g, 0)`` (``-0.0``, NaN and infinities included).

A Graph instance together with its activation cache is single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GraphError

DTYPE = np.float32

Selector = Union[str, int, np.ndarray]


@dataclass(frozen=True)
class Node:
    """One tape entry. ``fwd(values)`` computes this node's value from the
    tape's values; ``bwd(g, y, values)`` returns one gradient, or None, per
    entry of ``args``. Slots (input, target, masks) have neither and read
    their value from the batch's feeds by name."""

    idx: int
    op: str
    args: tuple[int, ...]
    attrs: dict
    shape: tuple[int, ...]  # per-sample shape; () for scalar losses
    fwd: Optional[Callable] = field(default=None, repr=False, compare=False)
    bwd: Optional[Callable] = field(default=None, repr=False, compare=False)


@dataclass
class Gradients:
    """Reverse-mode gradients of one scalar selection."""

    input: np.ndarray
    params: dict[str, np.ndarray]


class Graph:
    """Static operator graph over batched input, target and mask slots."""

    def __init__(self, input_shape: tuple[int, ...]):
        self.nodes: list[Node] = []
        self.params: dict[str, np.ndarray] = {}
        self.input_shape = tuple(int(s) for s in input_shape)
        self.mask_shapes: dict[str, tuple[int, ...]] = {}
        self.output: Optional[int] = None
        self.loss: Optional[int] = None
        self._cache: Optional[list] = None
        self.input_node = self._slot("input", "x", self.input_shape)

    # -- construction -------------------------------------------------------
    # Kernels read argument values off the tape by index; they capture those
    # indices and attributes, never ``self``.

    def _add(self, op, args, attrs, shape, fwd=None, bwd=None) -> int:
        node = Node(len(self.nodes), op, tuple(args), attrs, tuple(shape), fwd, bwd)
        for a in node.args:
            if not 0 <= a < node.idx:
                raise GraphError(f"node {node.idx} references unknown node {a}")
        self.nodes.append(node)
        return node.idx

    def _slot(self, op: str, name: str, shape) -> int:
        return self._add(op, (), {"name": name}, shape)

    def _shape(self, idx: int) -> tuple[int, ...]:
        return self.nodes[idx].shape

    def param(self, name: str, value: np.ndarray) -> int:
        if name in self.params:
            raise GraphError(f"duplicate parameter {name!r}")
        params = self.params
        params[name] = np.ascontiguousarray(value, dtype=DTYPE)
        return self._add("param", (), {"name": name}, params[name].shape,
                         lambda v: params[name])

    def mask_input(self, name: str, shape: tuple[int, ...]) -> int:
        """Batched auxiliary input slot (dropout masks); defaults to ones."""
        if name in self.mask_shapes:
            raise GraphError(f"duplicate mask slot {name!r}")
        self.mask_shapes[name] = tuple(shape)
        return self._slot("mask", name, shape)

    def matmul(self, x: int, w: int) -> int:
        xs, ws = self._shape(x), self._shape(w)
        if self.nodes[w].op != "param" or len(ws) != 2:
            raise GraphError("matmul weight must be a 2-D parameter")
        if len(xs) != 1 or xs[0] != ws[0]:
            raise GraphError(f"matmul shape mismatch: {xs} @ {ws}")
        return self._add("matmul", (x, w), {}, (ws[1],),
                         lambda v: v[x] @ v[w],
                         lambda g, y, v: (g @ v[w].T, v[x].T @ g))

    def add(self, a: int, b: int) -> int:
        return self._elementwise("add", a, b, lambda v: v[a] + v[b],
                                 lambda g, y, v: (g, _sum_to(g, v[b].shape)))

    def sub(self, a: int, b: int) -> int:
        return self._elementwise("sub", a, b, lambda v: v[a] - v[b],
                                 lambda g, y, v: (g, _sum_to(-g, v[b].shape)))

    def mul(self, a: int, b: int) -> int:
        return self._elementwise(
            "mul", a, b, lambda v: v[a] * v[b],
            lambda g, y, v: (g * v[b], _sum_to(g * v[a], v[b].shape)),
        )

    def _elementwise(self, op: str, a: int, b: int, fwd, bwd) -> int:
        sa, sb = self._shape(a), self._shape(b)
        # equal shapes, or a parameter broadcast against trailing axes (bias
        # add and friends)
        if sa == sb or (self.nodes[b].op == "param" and sa[len(sa) - len(sb):] == sb):
            return self._add(op, (a, b), {}, sa, fwd, bwd)
        raise GraphError(f"{op} shape mismatch: {sa} vs {sb}")

    def affine(self, x: int, scale: float, shift: float = 0.0) -> int:
        s, c = DTYPE(scale), DTYPE(shift)
        return self._add(
            "affine", (x,), {"scale": float(scale), "shift": float(shift)},
            self._shape(x),
            lambda v: (s * v[x] + c).astype(DTYPE, copy=False),
            lambda g, y, v: (s * g,),
        )

    def relu(self, x: int) -> int:
        return self._add("relu", (x,), {}, self._shape(x),
                         lambda v: np.maximum(v[x], 0),
                         lambda g, y, v: (_keep(g, v[x] > 0),))

    def tanh(self, x: int) -> int:
        return self._add("tanh", (x,), {}, self._shape(x),
                         lambda v: np.tanh(v[x]),
                         lambda g, y, v: (g * (1.0 - y * y),))

    def sigmoid(self, x: int) -> int:
        return self._add(
            "sigmoid", (x,), {}, self._shape(x),
            lambda v: (1.0 / (1.0 + np.exp(-v[x].astype(np.float64)))).astype(DTYPE),
            lambda g, y, v: (g * y * (1.0 - y),),
        )

    def conv1d(self, x: int, w: int, stride: int = 1, padding: int = 0) -> int:
        xs, ws = self._shape(x), self._shape(w)
        if self.nodes[w].op != "param" or len(ws) != 3:
            raise GraphError("conv1d kernel must be a 3-D parameter [K, Cin, Cout]")
        if len(xs) != 2:
            raise GraphError(f"conv1d input must be [T, C], got {xs}")
        t, c_in = xs
        k, kc_in, c_out = ws
        if kc_in != c_in:
            raise GraphError(f"conv1d channel mismatch: input {c_in}, kernel {kc_in}")
        if stride < 1 or padding < 0:
            raise GraphError("conv1d needs stride >= 1 and padding >= 0")
        t_out = (t + 2 * padding - k) // stride + 1
        if t_out < 1:
            raise GraphError(
                f"conv1d kernel {k} does not fit input of length {t} "
                f"with padding {padding}"
            )
        return self._add(
            "conv1d", (x, w), {"stride": stride, "padding": padding}, (t_out, c_out),
            lambda v: _conv1d_forward(v[x], v[w], stride, padding),
            lambda g, y, v: _conv1d_backward(v[x], v[w], g, stride, padding),
        )

    def max_pool1d(self, x: int, width: int, stride: int | None = None) -> int:
        xs = self._shape(x)
        if len(xs) != 2:
            raise GraphError(f"max_pool1d input must be [T, C], got {xs}")
        stride = stride or width
        t, c = xs
        t_out = (t - width) // stride + 1
        if width < 1 or t_out < 1:
            raise GraphError(f"pool width {width} does not fit input of length {t}")
        return self._add(
            "maxpool1d", (x,), {"width": width, "stride": stride}, (t_out, c),
            lambda v: np.ascontiguousarray(_pool_windows(v[x], width, stride).max(axis=-1)),
            lambda g, y, v: (_maxpool_backward(v[x], g, width, stride),),
        )

    def flatten(self, x: int) -> int:
        return self._add("flatten", (x,), {}, (math.prod(self._shape(x)),),
                         lambda v: v[x].reshape(v[x].shape[0], -1),
                         lambda g, y, v: (g.reshape(v[x].shape),))

    def slice_time(self, x: int, t: int) -> int:
        xs = self._shape(x)
        if len(xs) != 2 or not 0 <= t < xs[0]:
            raise GraphError(f"slice_time index {t} invalid for shape {xs}")

        def bwd(g, y, v):
            gx = np.zeros_like(v[x])
            gx[:, t, :] = g
            return (gx,)

        return self._add("slice_time", (x,), {"t": t}, (xs[1],),
                         lambda v: np.ascontiguousarray(v[x][:, t, :]), bwd)

    def softmax_cross_entropy(self, logits: int) -> int:
        ls = self._shape(logits)
        if len(ls) != 1:
            raise GraphError(f"cross-entropy logits must be [C], got {ls}")
        return self._loss("softmax_xent", logits, _softmax_xent_forward,
                          _softmax_xent_backward)

    def mean_squared_error(self, pred: int) -> int:
        ps = self._shape(pred)
        if ps not in ((), (1,)):
            raise GraphError(f"mse prediction must be scalar per sample, got {ps}")
        return self._loss("mse", pred, _mse_forward, _mse_backward)

    def _loss(self, op: str, x: int, fwd, bwd) -> int:
        """Scalar loss of ``x`` against the target slot; None without a target."""
        t = self._slot("target", "target", ())
        self.loss = self._add(
            op, (x, t), {}, (),
            lambda v: None if v[t] is None else fwd(v[x], v[t]),
            lambda g, y, v: (bwd(g, v[x], v[t]), None),
        )
        return self.loss

    def mark_output(self, idx: int) -> None:
        self.output = idx

    # -- execution ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        target: np.ndarray | None = None,
        masks: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Run the graph on a batch; caches activations for backward.

        Mask slots not supplied are bound to ones. The loss node is computed
        only when a target is given.
        """
        x = np.ascontiguousarray(x, dtype=DTYPE)
        if x.ndim != len(self.input_shape) + 1 or x.shape[1:] != self.input_shape:
            raise GraphError(
                f"input shape {x.shape[1:]} does not match slot {self.input_shape}"
            )
        n = x.shape[0]
        feeds = {"x": x, "target": target}
        masks = masks or {}
        for name, shape in self.mask_shapes.items():
            if name not in masks:
                feeds[name] = np.ones((n, *shape), dtype=DTYPE)
                continue
            m = np.ascontiguousarray(masks[name], dtype=DTYPE)
            if m.shape != (n, *shape):
                raise GraphError(f"mask {name!r} has shape {m.shape}")
            feeds[name] = m
        values: list = [None] * len(self.nodes)
        # divergence shows up as inf/nan in the loss; no point warning per op
        with np.errstate(over="ignore", invalid="ignore"):
            for node in self.nodes:
                if node.fwd is None:
                    values[node.idx] = feeds[node.attrs["name"]]
                else:
                    values[node.idx] = node.fwd(values)
        self._cache = values
        if self.output is None:
            raise GraphError("graph has no marked output")
        return values[self.output]

    def forward_loss(
        self,
        x: np.ndarray,
        target: np.ndarray,
        masks: dict[str, np.ndarray] | None = None,
    ) -> float:
        if self.loss is None:
            raise GraphError("graph has no loss node")
        self.forward(x, target=target, masks=masks)
        return float(self._cache[self.loss])

    # -- reverse mode -------------------------------------------------------

    def backward(self, selector: Selector = "loss", guided: bool = False) -> Gradients:
        """Exact reverse-mode gradients of one scalar w.r.t. input and params.

        ``selector`` is either ``"loss"``, an output column index (the scalar
        is the per-sample value of that column, summed over the batch), or a
        per-sample column-index array (one scalar per row, e.g. the predicted
        class logit). ``guided`` applies the guided rule at ReLU nodes.

        Each node's first gradient is kept as its kernel returned it, so the
        returned arrays may alias one another (or an upstream gradient) and
        are read-only: copy one before changing it in place.
        """
        if self._cache is None:
            raise GraphError("backward requires a prior forward")
        values = self._cache
        grads: list = [None] * len(self.nodes)
        self._seed(selector, grads, values)

        for node in reversed(self.nodes):
            g = grads[node.idx]
            if g is None or node.bwd is None:
                continue
            if guided and node.op == "relu":
                g = _keep(g, g > 0)
            for a, ga in zip(node.args, node.bwd(g, values[node.idx], values)):
                if ga is None:
                    continue
                grads[a] = ga if grads[a] is None else grads[a] + ga

        param_grads = {}
        for node in self.nodes:
            if node.op == "param":
                name = node.attrs["name"]
                g = grads[node.idx]
                if g is None:
                    g = np.zeros_like(self.params[name])
                param_grads[name] = g
        gin = grads[self.input_node]
        if gin is None:
            gin = np.zeros((values[self.input_node].shape[0], *self.input_shape), DTYPE)
        return Gradients(input=gin, params=param_grads)

    def backward_guided(self, selector: Selector) -> np.ndarray:
        """Guided-backprop gradient w.r.t. the input; parameters untouched."""
        return self.backward(selector, guided=True).input

    def _seed(self, selector, grads, values):
        if isinstance(selector, str):
            if selector != "loss":
                raise GraphError(f"non-scalar selection: {selector!r}")
            if self.loss is None or values[self.loss] is None:
                raise GraphError("loss not computed; forward with a target first")
            grads[self.loss] = np.asarray(1.0, dtype=DTYPE)
            return
        if self.output is None or values[self.output] is None:
            raise GraphError("graph has no computed output")
        out = values[self.output]
        if out.ndim != 2:
            raise GraphError("output selection requires a [N, C] output")
        seed = np.zeros_like(out)
        if isinstance(selector, (int, np.integer)):
            if not 0 <= int(selector) < out.shape[1]:
                raise GraphError(f"output index {selector} out of range")
            seed[:, int(selector)] = 1.0
        elif isinstance(selector, np.ndarray) and selector.ndim == 1:
            if selector.shape[0] != out.shape[0]:
                raise GraphError("per-sample selector length must equal batch size")
            seed[np.arange(out.shape[0]), selector.astype(int)] = 1.0
        else:
            raise GraphError(f"non-scalar selection: {selector!r}")
        grads[self.output] = seed


# ---------------------------------------------------------------------------
# op kernels


def _keep(g: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``np.where(keep, g, 0)`` bit for bit, without a branch per element.

    The float32 bits of ``g`` are ANDed with an int32 word that is all ones
    where ``keep`` holds and all zeros elsewhere, so a kept ``-0.0``, NaN or
    infinity passes unchanged and a dropped element reads ``+0.0``. A fresh
    mask makes a select mispredict on about half the elements; this does not.
    """
    word = keep.astype(np.int32)
    np.negative(word, out=word)
    np.bitwise_and(word, g.view(np.int32), out=word)
    return word.view(DTYPE)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))).astype(DTYPE, copy=False)


def _conv1d_forward(x, w, stride, padding):
    n = x.shape[0]
    k, c_in, c_out = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
    windows = sliding_window_view(x, k, axis=1)[:, ::stride]  # [N, To, Cin, K]
    t_out = windows.shape[1]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(
        n * t_out, k * c_in
    )
    return (cols @ w.reshape(k * c_in, c_out)).reshape(n, t_out, c_out)


def _conv1d_backward(x, w, g, stride, padding):
    n, t, c_in = x.shape
    k, _, c_out = w.shape
    t_out = g.shape[1]
    if padding:
        x_pad = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
    else:
        x_pad = x
    windows = sliding_window_view(x_pad, k, axis=1)[:, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(
        n * t_out, k * c_in
    )
    gw = (cols.T @ g.reshape(n * t_out, c_out)).reshape(k, c_in, c_out)
    gx_pad = np.zeros_like(x_pad)
    for ki in range(k):
        gx_pad[:, ki : ki + stride * t_out : stride] += g @ w[ki].T
    gx = gx_pad[:, padding : padding + t, :] if padding else gx_pad
    return gx, gw


def _pool_windows(x, width, stride):
    return sliding_window_view(x, width, axis=1)[:, ::stride]  # [N, To, C, W]


def _maxpool_backward(x, g, width, stride):
    n, t, c = x.shape
    winners = _pool_windows(x, width, stride).argmax(axis=-1)  # [N, To, C]
    t_out = winners.shape[1]
    gx = np.zeros_like(x)
    n_idx = np.arange(n)[:, None, None]
    c_idx = np.arange(c)[None, None, :]
    t_idx = np.arange(t_out)[None, :, None] * stride + winners
    np.add.at(gx, (n_idx, t_idx, c_idx), g)
    return gx


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_xent_forward(logits, target):
    z = logits - logits.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(logits.shape[0]), np.asarray(target).astype(int)]
    return np.mean(logsum - picked, dtype=DTYPE)


def _softmax_xent_backward(g, logits, target):
    onehot = np.zeros_like(logits)
    onehot[np.arange(logits.shape[0]), target.astype(int)] = 1.0
    return g * (_softmax(logits) - onehot) / DTYPE(logits.shape[0])


def _mse_diff(pred, target):
    return pred.reshape(pred.shape[0]) - np.asarray(target, dtype=DTYPE)


def _mse_forward(pred, target):
    diff = _mse_diff(pred, target)
    return np.mean(diff * diff, dtype=DTYPE)


def _mse_backward(g, pred, target):
    return (g * DTYPE(2.0 / pred.shape[0]) * _mse_diff(pred, target)).reshape(pred.shape)
