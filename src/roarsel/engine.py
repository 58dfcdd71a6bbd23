"""Dense float32 tensors and a small reverse-mode differentiation engine.

Graphs are static: nodes are appended in topological order with shapes
validated at build time (per-sample shapes; the batch dimension is implicit).
``forward`` caches activations, ``backward`` walks the tape in reverse.
Guided mode changes the backward rule at ReLU nodes only: the upstream
gradient is zeroed wherever the forward input was <= 0 or the upstream
gradient is < 0.

A Graph instance together with its activation cache is single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GraphError

DTYPE = np.float32

Selector = Union[str, int, np.ndarray]


@dataclass(frozen=True)
class Node:
    idx: int
    op: str
    args: tuple[int, ...]
    attrs: dict
    shape: tuple[int, ...]  # per-sample shape; () for scalar losses


@dataclass
class Gradients:
    """Reverse-mode gradients of one scalar selection."""

    input: np.ndarray
    params: dict[str, np.ndarray]


def _prod(shape) -> int:
    return int(math.prod(shape))


class Graph:
    """Static operator graph over one batched input slot plus mask slots."""

    def __init__(self, input_shape: tuple[int, ...]):
        self.nodes: list[Node] = []
        self.params: dict[str, np.ndarray] = {}
        self.input_shape = tuple(int(s) for s in input_shape)
        self.mask_shapes: dict[str, tuple[int, ...]] = {}
        self._mask_nodes: dict[str, int] = {}
        self.output: Optional[int] = None
        self.loss: Optional[int] = None
        self._cache: Optional[list] = None
        self._target = None
        self.input_node = self._add("input", (), {"name": "x"}, self.input_shape)

    # -- construction -------------------------------------------------------

    def _add(self, op, args, attrs, shape) -> int:
        node = Node(len(self.nodes), op, tuple(args), attrs, tuple(shape))
        for a in node.args:
            if not 0 <= a < node.idx:
                raise GraphError(f"node {node.idx} references unknown node {a}")
        self.nodes.append(node)
        return node.idx

    def _shape(self, idx: int) -> tuple[int, ...]:
        return self.nodes[idx].shape

    def param(self, name: str, value: np.ndarray) -> int:
        if name in self.params:
            raise GraphError(f"duplicate parameter {name!r}")
        arr = np.ascontiguousarray(value, dtype=DTYPE)
        self.params[name] = arr
        return self._add("param", (), {"name": name}, arr.shape)

    def mask_input(self, name: str, shape: tuple[int, ...]) -> int:
        """Batched auxiliary input slot (dropout masks); defaults to ones."""
        if name in self.mask_shapes:
            raise GraphError(f"duplicate mask slot {name!r}")
        self.mask_shapes[name] = tuple(shape)
        idx = self._add("mask", (), {"name": name}, tuple(shape))
        self._mask_nodes[name] = idx
        return idx

    def matmul(self, x: int, w: int) -> int:
        xs, ws = self._shape(x), self._shape(w)
        if self.nodes[w].op != "param" or len(ws) != 2:
            raise GraphError("matmul weight must be a 2-D parameter")
        if len(xs) != 1 or xs[0] != ws[0]:
            raise GraphError(f"matmul shape mismatch: {xs} @ {ws}")
        return self._add("matmul", (x, w), {}, (ws[1],))

    def add(self, a: int, b: int) -> int:
        return self._elementwise("add", a, b)

    def sub(self, a: int, b: int) -> int:
        return self._elementwise("sub", a, b)

    def mul(self, a: int, b: int) -> int:
        return self._elementwise("mul", a, b)

    def _elementwise(self, op: str, a: int, b: int) -> int:
        sa, sb = self._shape(a), self._shape(b)
        if sa == sb:
            return self._add(op, (a, b), {}, sa)
        # parameter broadcast against trailing axes (bias add and friends)
        if self.nodes[b].op == "param" and sa[len(sa) - len(sb):] == sb:
            return self._add(op, (a, b), {}, sa)
        raise GraphError(f"{op} shape mismatch: {sa} vs {sb}")

    def affine(self, x: int, scale: float, shift: float = 0.0) -> int:
        return self._add(
            "affine", (x,), {"scale": float(scale), "shift": float(shift)},
            self._shape(x),
        )

    def relu(self, x: int) -> int:
        return self._add("relu", (x,), {}, self._shape(x))

    def tanh(self, x: int) -> int:
        return self._add("tanh", (x,), {}, self._shape(x))

    def sigmoid(self, x: int) -> int:
        return self._add("sigmoid", (x,), {}, self._shape(x))

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
        attrs = {"stride": stride, "padding": padding}
        return self._add("conv1d", (x, w), attrs, (t_out, c_out))

    def max_pool1d(self, x: int, width: int, stride: int | None = None) -> int:
        xs = self._shape(x)
        if len(xs) != 2:
            raise GraphError(f"max_pool1d input must be [T, C], got {xs}")
        stride = stride or width
        t, c = xs
        t_out = (t - width) // stride + 1
        if width < 1 or t_out < 1:
            raise GraphError(f"pool width {width} does not fit input of length {t}")
        return self._add("maxpool1d", (x,), {"width": width, "stride": stride}, (t_out, c))

    def flatten(self, x: int) -> int:
        return self._add("flatten", (x,), {}, (_prod(self._shape(x)),))

    def slice_time(self, x: int, t: int) -> int:
        xs = self._shape(x)
        if len(xs) != 2 or not 0 <= t < xs[0]:
            raise GraphError(f"slice_time index {t} invalid for shape {xs}")
        return self._add("slice_time", (x,), {"t": t}, (xs[1],))

    def softmax_cross_entropy(self, logits: int) -> int:
        ls = self._shape(logits)
        if len(ls) != 1:
            raise GraphError(f"cross-entropy logits must be [C], got {ls}")
        idx = self._add("softmax_xent", (logits,), {}, ())
        self.loss = idx
        return idx

    def mean_squared_error(self, pred: int) -> int:
        ps = self._shape(pred)
        if ps not in ((), (1,)):
            raise GraphError(f"mse prediction must be scalar per sample, got {ps}")
        idx = self._add("mse", (pred,), {}, ())
        self.loss = idx
        return idx

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
        masks = masks or {}
        values: list = [None] * len(self.nodes)
        # divergence shows up as inf/nan in the loss; no point warning per op
        with np.errstate(over="ignore", invalid="ignore"):
            for node in self.nodes:
                values[node.idx] = self._eval(node, values, x, n, target, masks)
        self._cache = values
        self._target = target
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

    def _eval(self, node, values, x, n, target, masks):
        op = node.op
        if op == "input":
            return x
        if op == "param":
            return self.params[node.attrs["name"]]
        if op == "mask":
            name = node.attrs["name"]
            if name in masks:
                m = np.ascontiguousarray(masks[name], dtype=DTYPE)
                if m.shape != (n, *node.shape):
                    raise GraphError(f"mask {name!r} has shape {m.shape}")
                return m
            return np.ones((n, *node.shape), dtype=DTYPE)
        a = values[node.args[0]] if node.args else None
        if op == "matmul":
            return a @ values[node.args[1]]
        if op == "add":
            return a + values[node.args[1]]
        if op == "sub":
            return a - values[node.args[1]]
        if op == "mul":
            return a * values[node.args[1]]
        if op == "affine":
            return (
                DTYPE(node.attrs["scale"]) * a + DTYPE(node.attrs["shift"])
            ).astype(DTYPE, copy=False)
        if op == "relu":
            return np.maximum(a, 0)
        if op == "tanh":
            return np.tanh(a)
        if op == "sigmoid":
            return (1.0 / (1.0 + np.exp(-a.astype(np.float64)))).astype(DTYPE)
        if op == "conv1d":
            return _conv1d_forward(a, values[node.args[1]], **node.attrs)
        if op == "maxpool1d":
            windows = sliding_window_view(a, node.attrs["width"], axis=1)
            windows = windows[:, :: node.attrs["stride"]]
            return np.ascontiguousarray(windows.max(axis=-1))
        if op == "flatten":
            return a.reshape(n, -1)
        if op == "slice_time":
            return np.ascontiguousarray(a[:, node.attrs["t"], :])
        if op == "softmax_xent":
            if target is None:
                return None
            return _softmax_xent_forward(a, target)
        if op == "mse":
            if target is None:
                return None
            pred = a.reshape(n)
            diff = pred - np.asarray(target, dtype=DTYPE)
            return np.mean(diff * diff, dtype=DTYPE)
        raise GraphError(f"unknown op {op!r}")

    # -- reverse mode -------------------------------------------------------

    def backward(self, selector: Selector = "loss", guided: bool = False) -> Gradients:
        """Exact reverse-mode gradients of one scalar w.r.t. input and params.

        ``selector`` is either ``"loss"``, an output column index (the scalar
        is the per-sample value of that column, summed over the batch), or a
        per-sample column-index array (one scalar per row, e.g. the predicted
        class logit). ``guided`` applies the guided rule at ReLU nodes.
        """
        if self._cache is None:
            raise GraphError("backward requires a prior forward")
        values = self._cache
        grads: list = [None] * len(self.nodes)
        self._seed(selector, grads, values)

        for node in reversed(self.nodes):
            g = grads[node.idx]
            if g is None or node.op in ("input", "param", "mask"):
                continue
            self._propagate(node, g, grads, values, guided)

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

    def _accumulate(self, grads, idx, g):
        if grads[idx] is None:
            grads[idx] = g.astype(DTYPE, copy=True)
        else:
            grads[idx] = grads[idx] + g

    def _propagate(self, node, g, grads, values, guided):
        op = node.op
        args = node.args
        if op == "matmul":
            x, w = values[args[0]], values[args[1]]
            self._accumulate(grads, args[0], g @ w.T)
            self._accumulate(grads, args[1], x.T @ g)
        elif op in ("add", "sub"):
            self._accumulate(grads, args[0], g)
            gb = g if op == "add" else -g
            self._accumulate(grads, args[1], _sum_to(gb, values[args[1]].shape))
        elif op == "mul":
            a, b = values[args[0]], values[args[1]]
            self._accumulate(grads, args[0], g * b)
            self._accumulate(grads, args[1], _sum_to(g * a, b.shape))
        elif op == "affine":
            self._accumulate(grads, args[0], DTYPE(node.attrs["scale"]) * g)
        elif op == "relu":
            x = values[args[0]]
            if guided:
                gx = np.where((x > 0) & (g > 0), g, DTYPE(0.0))
            else:
                gx = np.where(x > 0, g, DTYPE(0.0))
            self._accumulate(grads, args[0], gx)
        elif op == "tanh":
            y = values[node.idx]
            self._accumulate(grads, args[0], g * (1.0 - y * y))
        elif op == "sigmoid":
            y = values[node.idx]
            self._accumulate(grads, args[0], g * y * (1.0 - y))
        elif op == "conv1d":
            gx, gw = _conv1d_backward(
                values[args[0]], values[args[1]], g, **node.attrs
            )
            self._accumulate(grads, args[0], gx)
            self._accumulate(grads, args[1], gw)
        elif op == "maxpool1d":
            self._accumulate(
                grads, args[0], _maxpool_backward(values[args[0]], g, **node.attrs)
            )
        elif op == "flatten":
            self._accumulate(grads, args[0], g.reshape(values[args[0]].shape))
        elif op == "slice_time":
            gx = np.zeros_like(values[args[0]])
            gx[:, node.attrs["t"], :] = g
            self._accumulate(grads, args[0], gx)
        elif op == "softmax_xent":
            logits = values[args[0]]
            probs = _softmax(logits)
            onehot = np.zeros_like(logits)
            onehot[np.arange(logits.shape[0]), self._target.astype(int)] = 1.0
            gl = g * (probs - onehot) / DTYPE(logits.shape[0])
            self._accumulate(grads, args[0], gl)
        elif op == "mse":
            pred = values[args[0]]
            n = pred.shape[0]
            diff = pred.reshape(n) - np.asarray(self._target, dtype=DTYPE)
            gp = (g * DTYPE(2.0 / n) * diff).reshape(pred.shape)
            self._accumulate(grads, args[0], gp)
        else:
            raise GraphError(f"no backward rule for op {op!r}")


# ---------------------------------------------------------------------------
# op kernels


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


def _maxpool_backward(x, g, width, stride):
    n, t, c = x.shape
    windows = sliding_window_view(x, width, axis=1)[:, ::stride]
    winners = windows.argmax(axis=-1)  # [N, To, C]
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


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class FdReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    per_tensor: dict[str, float] = field(default_factory=dict)


def finite_difference_check(
    g: Graph,
    x: np.ndarray,
    h: float = 1e-3,
    tolerance: float = 1e-3,
    selector: Selector = "loss",
    target: np.ndarray | None = None,
) -> FdReport:
    """Compare reverse-mode gradients against central finite differences.

    Relative error per coordinate is |a - b| / max(1, |a|, |b|); the report
    carries the max over the input and every parameter tensor.
    """
    if h <= 0:
        raise GraphError("finite differences need h > 0")
    g.forward(x, target=target)
    ad = g.backward(selector)

    def scalar(xv) -> float:
        out = g.forward(xv, target=target)
        vals = g._cache
        if isinstance(selector, str):
            return float(vals[g.loss])
        if isinstance(selector, (int, np.integer)):
            return float(out[:, int(selector)].sum(dtype=np.float64))
        return float(out[np.arange(out.shape[0]), selector.astype(int)].sum(dtype=np.float64))

    per_tensor: dict[str, float] = {}

    def check_tensor(arr, ad_grad, label, rebind=None):
        worst = 0.0
        flat = arr.reshape(-1)
        adf = ad_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + DTYPE(h)
            hi = float(flat[i])
            f_plus = scalar(x if rebind is None else rebind)
            flat[i] = orig - DTYPE(h)
            lo = float(flat[i])
            f_minus = scalar(x if rebind is None else rebind)
            flat[i] = orig
            fd = (f_plus - f_minus) / (hi - lo)
            a, b = float(adf[i]), fd
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        per_tensor[label] = worst
        return worst

    worst = 0.0
    x_work = np.array(x, dtype=DTYPE)
    worst = max(worst, check_tensor(x_work, ad.input, "input", rebind=x_work))
    for name in sorted(g.params):
        worst = max(worst, check_tensor(g.params[name], ad.params[name], name))
    g.forward(x, target=target)  # leave a clean cache behind
    return FdReport(
        max_rel_error=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        per_tensor=per_tensor,
    )
