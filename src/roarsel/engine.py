"""Dense float32 tensors and a small reverse-mode differentiation engine.

Graphs are static: nodes are appended in topological order with shapes
validated at build time (per-sample shapes; the batch dimension is implicit).
Each builder method binds its node to a forward and a backward kernel next to
its shape check, so ``forward`` and ``backward`` are two generic loops over
the tape: ``forward`` caches activations, ``backward`` walks them in reverse.
The batch enters through the input slot. Kernels see only argument values,
never the Graph, so a dropped model is freed without the cyclic collector;
and none writes into an argument value, so a node may return one as its own.
The tape ends at the model's output; the loss is a pair of kernels over it,
its value and its output gradient (``_LOSSES``), off the tape.

Each node records once, when it is added, whether a parameter lies at or
behind it. ``backward(..., input_grad=False)`` computes parameter gradients
only: it skips every node with no parameter behind it, and a layer op
(dense, conv1d, recurrent) whose first argument has none behind it skips that
argument's gradient, so the first layer never computes the input gradient.
The returned input gradient is then None, and every parameter gradient holds
the same bytes as in a full backward.

Guided mode changes the backward rule at ReLU nodes only: the upstream
gradient is clipped at zero before the standard rule, so it is zeroed
wherever the forward input was <= 0 or the upstream gradient is < 0.
ReLU masking, in both rules, is branch-free: the float32 bits of the
gradient are ANDed with an all-ones or all-zeros word, bit-identical to
``np.where(keep, g, 0)`` (``-0.0``, NaN and infinities included).

Every layer op (dense, conv1d, recurrent) takes its bias as an argument and
adds it inside its kernel, in place on the fresh product; no op broadcasts.
``dropout`` multiplies by a mask slot that gets no gradient and that only a
training forward (one given a generator) fills, drawing in tape order; any
other forward leaves it None, and the node returns its input array itself.

conv1d's forward and its weight gradient are one matmul each over the
columns that one builder, ``_columns``, lays out tap-major from the padded
input; the input gradient adds one matmul per kernel tap.

One op, ``recurrent``, runs a whole rnn, lstm or gru layer over the time
axis: one input projection for every step, then one recurrent matmul per
step. A cell's k gates sit side by side in its weights, sigmoid gates first
and the tanh gate last (lstm ``i, f, o, g``; gru ``z, r, n``, with candidate
``n = tanh(Wx x + b + r ⊙ (Wh h))``), so one tanh call activates every gate
of a step. Its backward runs backprop through time inside the kernel, from
the gate activations the forward saved next to the hidden states.

A Graph instance together with its activation cache is single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import iadd
from typing import Callable, Optional, Union

import numpy as np

from .errors import GraphError

DTYPE = np.float32

Selector = Union[str, np.ndarray]


@dataclass(frozen=True)
class Node:
    """One tape entry. ``fwd(values)`` computes this node's value from the
    tape's values; ``bwd(g, y, values)`` returns one gradient, or None, per
    entry of ``args``, and a layer op's ``bwd(g, y, values, False)`` returns
    None for its first. Slots (the input, dropout masks) have neither: the
    input holds the batch, and a mask is drawn by a training forward.
    ``learns`` marks a node with a parameter at or behind it."""

    idx: int
    op: str
    args: tuple[int, ...]
    attrs: dict
    shape: tuple[int, ...]  # per-sample shape
    learns: bool
    fwd: Optional[Callable] = field(default=None, repr=False, compare=False)
    bwd: Optional[Callable] = field(default=None, repr=False, compare=False)


@dataclass
class Gradients:
    """Reverse-mode gradients of one scalar selection."""

    input: Optional[np.ndarray]  # None from a parameters-only backward
    params: dict[str, np.ndarray]


class Graph:
    """Static operator graph over a batched input slot, ending at a marked
    output; ``loss`` names the loss kernel pair over that output."""

    def __init__(self, input_shape: tuple[int, ...]):
        self.nodes: list[Node] = []
        self.params: dict[str, np.ndarray] = {}
        self.input_shape = tuple(int(s) for s in input_shape)
        self.mask_shapes: dict[str, tuple[int, ...]] = {}
        self.output: Optional[int] = None
        self.loss: Optional[str] = None
        self._cache: Optional[list] = None
        self._kept = None  # what forward_loss's loss kernel kept for backward
        self.input_node = self._add("input", (), {}, self.input_shape)

    # -- construction -------------------------------------------------------
    # Kernels read argument values off the tape by index; they capture those
    # indices and attributes, never ``self``.

    def _add(self, op, args, attrs, shape, fwd=None, bwd=None) -> int:
        idx = len(self.nodes)
        for a in args:
            if not 0 <= a < idx:
                raise GraphError(f"node {idx} references unknown node {a}")
        learns = op == "param" or any(self.nodes[a].learns for a in args)
        node = Node(idx, op, tuple(args), attrs, tuple(shape), learns, fwd, bwd)
        self.nodes.append(node)
        return node.idx

    def _shape(self, idx: int) -> tuple[int, ...]:
        return self.nodes[idx].shape

    def param(self, name: str, value: np.ndarray) -> int:
        if name in self.params:
            raise GraphError(f"duplicate parameter {name!r}")
        params = self.params
        params[name] = np.ascontiguousarray(value, dtype=DTYPE)
        return self._add("param", (), {"name": name}, params[name].shape,
                         lambda v: params[name])

    def dropout(self, x: int, name: str, rate: float) -> int:
        """Inverted dropout of ``x`` at ``rate`` through the mask slot
        ``name``: ``x`` times a fresh mask in a training forward, else ``x``."""
        if name in self.mask_shapes:
            raise GraphError(f"duplicate mask slot {name!r}")
        if not 0.0 <= rate < 1.0:
            raise GraphError(f"dropout rate must lie in [0, 1), got {rate}")
        shape = self.mask_shapes[name] = self._shape(x)
        m = self._add("mask", (), {"name": name, "rate": float(rate)}, shape)
        return self._add("dropout", (x, m), {}, shape,
                         lambda v: v[x] if v[m] is None else v[x] * v[m],
                         lambda g, y, v: (g if v[m] is None else g * v[m], None))

    def dense(self, x: int, w: int, b: int) -> int:
        """``x @ w + b`` for ``x`` [in], ``w`` [in, out] and ``b`` [out]."""
        xs, ws, bs = self._shape(x), self._shape(w), self._shape(b)
        if self.nodes[w].op != "param" or self.nodes[b].op != "param" or len(ws) != 2:
            raise GraphError("dense weight and bias must be parameters, the weight 2-D")
        if len(xs) != 1 or xs[0] != ws[0] or bs != ws[1:]:
            raise GraphError(f"dense shape mismatch: {xs} @ {ws} + {bs}")
        return self._add("dense", (x, w, b), {}, (ws[1],),
                         lambda v: iadd(v[x] @ v[w], v[b]),
                         lambda g, y, v, gx=True: (g @ v[w].T if gx else None,
                                                   v[x].T @ g, g.sum(axis=(0,))))

    def relu(self, x: int) -> int:
        return self._add("relu", (x,), {}, self._shape(x),
                         lambda v: np.maximum(v[x], 0),
                         lambda g, y, v: (_keep(g, v[x] > 0),))

    def conv1d(self, x: int, w: int, b: int, padding: int = 0) -> int:
        xs, ws, bs = self._shape(x), self._shape(w), self._shape(b)
        if self.nodes[w].op != "param" or len(ws) != 3:
            raise GraphError("conv1d kernel must be a 3-D parameter [K, Cin, Cout]")
        if self.nodes[b].op != "param" or bs != ws[2:]:
            raise GraphError(f"conv1d bias must be a parameter [{ws[2]}], got {bs}")
        if len(xs) != 2:
            raise GraphError(f"conv1d input must be [T, C], got {xs}")
        t, c_in = xs
        k, kc_in, c_out = ws
        if kc_in != c_in:
            raise GraphError(f"conv1d channel mismatch: input {c_in}, kernel {kc_in}")
        if padding < 0:
            raise GraphError("conv1d needs padding >= 0")
        t_out = t + 2 * padding - k + 1
        if t_out < 1:
            raise GraphError(
                f"conv1d kernel {k} does not fit input of length {t} "
                f"with padding {padding}"
            )
        return self._add(
            "conv1d", (x, w, b), {}, (t_out, c_out),
            lambda v: _conv1d_forward(v[x], v[w], v[b], padding),
            lambda g, y, v, gx=True: _conv1d_backward(v[x], v[w], g, padding, gx),
        )

    def flatten(self, x: int) -> int:
        size = math.prod(self._shape(x))
        return self._add("flatten", (x,), {}, (size,),
                         lambda v: v[x].reshape(len(v[x]), size),
                         lambda g, y, v: (g.reshape(v[x].shape),))

    def slice_time(self, x: int, t: int) -> int:
        xs = self._shape(x)
        if len(xs) != 2 or not 0 <= t < xs[0]:
            raise GraphError(f"slice_time index {t} invalid for shape {xs}")

        def bwd(g, y, v):
            gx = np.zeros_like(v[x])
            gx[:, t, :] = g
            return (gx,)

        return self._add("slice_time", (x,), {}, (xs[1],),
                         lambda v: np.ascontiguousarray(v[x][:, t, :]), bwd)

    def recurrent(self, x: int, wx: int, wh: int, b: int, cell: str) -> int:
        """Every hidden state [T, H] of one recurrent layer over ``x`` [T, in].

        ``wx`` [in, k·H], ``wh`` [H, k·H] and ``b`` [k·H] hold the k gates of
        ``cell`` side by side, sigmoid gates first and the tanh gate last:
        ``h`` for rnn, ``i, f, o, g`` for lstm, ``z, r, n`` for gru. The state
        starts at zero. See ``_CELLS`` for the recurrences.
        """
        if cell not in _CELLS:
            raise GraphError(f"unknown recurrent cell {cell!r}")
        if any(self.nodes[a].op != "param" for a in (wx, wh, b)):
            raise GraphError("recurrent weights must be parameters")
        xs, wxs, whs, bs = (self._shape(a) for a in (x, wx, wh, b))
        k, fwd, bwd = _CELLS[cell]
        hid = whs[0] if whs else 0
        if len(xs) != 2 or wxs != (xs[1], k * hid) or whs != (hid, k * hid) \
                or bs != (k * hid,):
            raise GraphError(f"{cell} shape mismatch: x {xs}, wx {wxs}, wh {whs}, b {bs}")
        # the forward returns the hidden states as a view of one buffer that
        # also holds the saved gates; the backward reads them through y.base
        return self._add("recurrent", (x, wx, wh, b), {"cell": cell}, (xs[0], hid),
                         lambda v: fwd(v[x], v[wx], v[wh], v[b]),
                         lambda g, y, v, gx=True: bwd(g, y.base, v[x], v[wx], v[wh], gx))

    def softmax_cross_entropy(self, logits: int) -> None:
        ls = self._shape(logits)
        if len(ls) != 1:
            raise GraphError(f"cross-entropy logits must be [C], got {ls}")
        self.mark_output(logits)
        self.loss = "softmax_xent"

    def mean_squared_error(self, pred: int) -> None:
        ps = self._shape(pred)
        if ps not in ((), (1,)):
            raise GraphError(f"mse prediction must be scalar per sample, got {ps}")
        self.mark_output(pred)
        self.loss = "mse"

    def mark_output(self, idx: int) -> None:
        self.output = idx

    # -- execution ----------------------------------------------------------

    def forward(self, x: np.ndarray,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Run the graph on a batch and return its output; caches activations
        for backward and forgets what ``forward_loss`` kept.

        With ``rng`` the forward trains: each dropout slot draws its mask from
        it, in tape order. Without, every dropout node passes its input on.
        """
        x = np.ascontiguousarray(x, dtype=DTYPE)
        if x.ndim != len(self.input_shape) + 1 or x.shape[1:] != self.input_shape:
            raise GraphError(
                f"input shape {x.shape[1:]} does not match slot {self.input_shape}"
            )
        n = x.shape[0]
        # free the last call's activations first, and what its loss kept
        self._cache = self._kept = None
        values: list = [None] * len(self.nodes)
        # divergence shows up as inf/nan in the output; no point warning per op
        with np.errstate(over="ignore", invalid="ignore"):
            for node in self.nodes:
                if node.fwd is None:  # a slot: the batch, or dropout's mask
                    values[node.idx] = x if node.op == "input" else _dropout_mask(
                        rng, (n, *node.shape), node.attrs["rate"])
                else:
                    values[node.idx] = node.fwd(values)
        self._cache = values
        if self.output is None:
            raise GraphError("graph has no marked output")
        return values[self.output]

    def forward_loss(self, x: np.ndarray, target: np.ndarray,
                     rng: Optional[np.random.Generator] = None) -> float:
        """``forward``, then the loss of its output; ``backward("loss")``
        differentiates that loss until the next forward, from what the loss
        kernel kept of its work."""
        loss, self._kept = self._loss(self.forward(x, rng), target)
        return float(loss)

    def loss_of(self, output: np.ndarray, target: np.ndarray) -> float:
        """The mean loss of a batch's ``output`` against its ``target`` (n,);
        a diverged output gives a non-finite loss without a warning, and a
        batch of zero rows has no mean loss."""
        return float(self._loss(output, target)[0])

    def _loss(self, output: np.ndarray, target: np.ndarray):
        """The loss kernel's mean loss, and what it keeps for the gradient."""
        if self.loss is None:
            raise GraphError("graph has no loss attached")
        n = len(output)
        if np.shape(target) != (n,):
            raise GraphError(f"target shape {np.shape(target)} is not the batch's ({n},)")
        if not n:
            raise GraphError("a batch of zero rows has no mean loss")
        with np.errstate(over="ignore", invalid="ignore"):
            return _LOSSES[self.loss][0](output, target)

    # -- reverse mode -------------------------------------------------------

    def backward(self, selector: Selector = "loss", guided: bool = False,
                 input_grad: bool = True) -> Gradients:
        """Exact reverse-mode gradients of one scalar w.r.t. input and params.

        ``selector`` is either ``"loss"`` (the loss of the last forward, when
        that was ``forward_loss``) or a per-sample column-index array (one
        scalar per row, e.g. the predicted class logit, summed over the
        batch). ``guided`` applies the guided rule at ReLU nodes.

        With ``input_grad`` false only the parameter gradients are computed:
        no node without a parameter behind it is differentiated, so the input
        gradient is None, and the parameter gradients hold the bytes of a
        full backward.

        Each node's first gradient is kept as its kernel returned it, so the
        returned arrays may alias one another (or an upstream gradient) and
        are read-only: copy one before changing it in place. A parameter or
        an input that the selection does not reach gets None.
        """
        if self._cache is None:
            raise GraphError("backward requires a prior forward")
        values = self._cache
        nodes = self.nodes
        grads: list = [None] * len(nodes)
        self._seed(selector, grads, values)

        for node in reversed(nodes):
            g = grads[node.idx]
            if g is None or node.bwd is None or not (input_grad or node.learns):
                continue
            if guided and node.op == "relu":
                g = _keep(g, g > 0)
            if input_grad or nodes[node.args[0]].learns:
                arg_grads = node.bwd(g, values[node.idx], values)
            else:  # a layer op over the input side: its parameters only
                arg_grads = node.bwd(g, values[node.idx], values, False)
            for a, ga in zip(node.args, arg_grads):
                if ga is None:
                    continue
                grads[a] = ga if grads[a] is None else grads[a] + ga

        params = {n.attrs["name"]: grads[n.idx] for n in nodes if n.op == "param"}
        return Gradients(input=grads[self.input_node] if input_grad else None,
                         params=params)

    def backward_guided(self, selector: Selector) -> np.ndarray:
        """Guided-backprop gradient w.r.t. the input; parameters untouched."""
        return self.backward(selector, guided=True).input

    def _seed(self, selector, grads, values):
        if isinstance(selector, str):
            if selector != "loss":
                raise GraphError(f"non-scalar selection: {selector!r}")
            if self._kept is None:
                raise GraphError("loss not computed; forward with a target first")
            grads[self.output] = _LOSSES[self.loss][1](values[self.output], self._kept)
            return
        if self.output is None or values[self.output] is None:
            raise GraphError("graph has no computed output")
        out = values[self.output]
        if out.ndim != 2:
            raise GraphError("output selection requires a [N, C] output")
        n, c = out.shape
        if not isinstance(selector, np.ndarray) or selector.ndim != 1:
            raise GraphError(f"non-scalar selection: {selector!r}")
        if selector.shape[0] != n:
            raise GraphError("per-sample selector length must equal batch size")
        cols = _integral(selector, "output indices")
        bad = cols[(cols < 0) | (cols >= c)]
        if bad.size:
            raise GraphError(f"output index {bad[0]} out of range")
        seed = np.zeros_like(out)
        seed[np.arange(n), cols.astype(int, copy=False)] = 1.0
        grads[self.output] = seed


# ---------------------------------------------------------------------------
# op kernels


def _integral(a, what: str) -> np.ndarray:
    """``a`` as an array of whole numbers: integers, or floats without a
    fractional part. A bool array, or a value that is not a whole number, is
    a ``GraphError`` that names it."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        return a
    if a.dtype.kind != "f":
        raise GraphError(f"{what} must be whole numbers, got a {a.dtype} array")
    bad = a[~(np.isfinite(a) & (a == np.round(a)))]
    if bad.size:
        raise GraphError(f"{what} must be whole numbers, got {bad[0]}")
    return a


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


def _dropout_mask(rng, size, rate):
    """An inverted-dropout mask, each entry 1 / (1 - rate) with probability
    1 - rate and else 0; None without a generator, outside training."""
    if rng is None:
        return None
    keep = 1.0 - rate
    return (rng.random(size=size) < keep).astype(DTYPE) / DTYPE(keep)


def _columns(x, k, padding):
    """The [N*To, K*Cin] tap-major columns of ``x`` [N, T, Cin] zero-padded by
    ``padding`` steps at each end: row (n, j) holds padded steps j..j+K-1."""
    n, t, c_in = x.shape
    t_out = t + 2 * padding - k + 1
    cols = np.zeros((n, t_out, k, c_in), dtype=x.dtype)
    for ki in range(k):
        # output step j reads input step j + ki - padding where that exists
        lo = max(0, padding - ki)
        hi = max(lo, min(t_out, t + padding - ki))
        cols[:, lo:hi, ki] = x[:, lo + ki - padding : hi + ki - padding]
    return cols.reshape(n * t_out, k * c_in)


def _conv1d_forward(x, w, b, padding):
    n, t, _ = x.shape
    k, c_in, c_out = w.shape
    y = _columns(x, k, padding) @ w.reshape(k * c_in, c_out)
    return iadd(y.reshape(n, t + 2 * padding - k + 1, c_out), b)


def _conv1d_backward(x, w, g, padding, gx):
    n, t, c_in = x.shape
    k, _, c_out = w.shape
    gw = _columns(x, k, padding).T @ g.reshape(-1, c_out)
    gx_pad = None
    if gx:
        gx_pad = np.zeros((n, t + 2 * padding, c_in), dtype=x.dtype)
        for ki in range(k):
            gx_pad[:, ki : ki + g.shape[1]] += g @ w[ki].T
        gx_pad = gx_pad[:, padding : padding + t]
    return gx_pad, gw.reshape(k, c_in, c_out), g.sum(axis=(0, 1))


# The recurrent kernels work feature-major: a step's state is [H, N] and its
# gate pre-activations [k·H, N], so every per-step slice is contiguous.
# Each forward writes one [T, S·H, N] buffer, per step h first and then the
# saved activations, and returns the hidden states as the view
# ``buf[:, :H].transpose(2, 0, 1)``, [N, T, H]; the backward gets ``buf``
# back through that view's ``base``.


def _project(x, wx, b, n_sig):
    """``x @ wx + b`` for all steps at once, feature-major [T, k·H, N], with
    the first ``n_sig`` (sigmoid) rows halved; see ``_half``."""
    xw = np.matmul(wx.T, np.ascontiguousarray(x.transpose(1, 2, 0)))
    xw += b[:, None]
    xw[:, :n_sig] *= DTYPE(0.5)
    return xw


def _half(wh, n_sig):
    """``wh.T`` with its first ``n_sig`` rows halved. A sigmoid gate is
    ``0.5 + 0.5·tanh(pre / 2)``, so with those rows pre-halved one tanh call
    covers every gate of a step. Halving is exact in float32."""
    whs = np.ascontiguousarray(wh.T)
    whs[:n_sig] *= DTYPE(0.5)
    return whs


def _to_sigmoid(a):
    a *= DTYPE(0.5)
    a += DTYPE(0.5)


def _shifted(a):
    """``a`` one step later along axis 0, zero at step 0: the previous state."""
    prev = np.zeros_like(a)
    prev[1:] = a[:-1]
    return prev


def _states(buf, hid):
    return buf[:, :hid].transpose(2, 0, 1)


def _upstream(g):
    """The gradient of the hidden states, [N, T, H], feature-major."""
    return np.ascontiguousarray(g.transpose(1, 2, 0))


def _features(a):
    """[T, F, N] as [F, T·N], step-major columns."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1)


def _recurrent_grads(dxw, da, h, x, wx, gx):
    """Gradients of x (None unless ``gx``), wx, wh and b from the
    feature-major pre-activation gradients, [T, k·H, N]: ``dxw`` w.r.t.
    ``x @ wx + b`` and ``da`` w.r.t. ``h_prev @ wh`` (None when they are the
    same). Step 0 has no previous state and so no ``wh`` term."""
    n = x.shape[0]
    dxw_f = _features(dxw)
    da_f = dxw_f[:, n:] if da is None else _features(da[1:])
    dwh = _features(h[:-1]) @ da_f.T
    dwx = _features(x.transpose(1, 2, 0)) @ dxw_f.T
    dx = np.ascontiguousarray(np.matmul(wx, dxw).transpose(2, 0, 1)) if gx else None
    return dx, dwx, dwh, dxw_f.sum(axis=1)


def _rnn_forward(x, wx, wh, b):
    """h_t = tanh(Wx x_t + b + Wh h_{t-1}); saves [h]."""
    n, t, _ = x.shape
    hid = wh.shape[0]
    xw = _project(x, wx, b, 0)
    wh_t = _half(wh, 0)
    buf = np.empty((t, hid, n), DTYPE)
    h = np.zeros((hid, n), DTYPE)
    for s in range(t):
        h_new = buf[s]
        np.matmul(wh_t, h, out=h_new)
        h_new += xw[s]
        np.tanh(h_new, out=h_new)
        h = h_new
    return _states(buf, hid)


def _rnn_backward(g, buf, x, wx, wh, gx):
    t = buf.shape[0]
    g = _upstream(g)
    deriv = 1 - buf * buf
    dpre = np.empty_like(buf)
    dh = g[t - 1]
    for s in range(t - 1, -1, -1):
        np.multiply(dh, deriv[s], out=dpre[s])
        if s:
            dh = wh @ dpre[s]
            dh += g[s - 1]
    return _recurrent_grads(dpre, None, buf, x, wx, gx)


def _lstm_forward(x, wx, wh, b):
    """Gates i, f, o = σ(·) and g = tanh(·) of Wx x_t + b + Wh h_{t-1};
    c_t = f c_{t-1} + i g, h_t = o tanh(c_t); saves [h | i f o g | c | tanh c]."""
    n, t, _ = x.shape
    hid = wh.shape[0]
    sig = 3 * hid
    xw = _project(x, wx, b, sig)
    whs = _half(wh, sig)
    buf = np.empty((t, 7 * hid, n), DTYPE)
    h = c = np.zeros((hid, n), DTYPE)
    for s in range(t):
        row = buf[s]
        gates = row[hid:5 * hid]
        np.matmul(whs, h, out=gates)
        gates += xw[s]
        np.tanh(gates, out=gates)
        _to_sigmoid(gates[:sig])
        i, f, o, cand = gates[:hid], gates[hid:2 * hid], gates[2 * hid:sig], gates[sig:]
        h, c_new, tc = row[:hid], row[5 * hid:6 * hid], row[6 * hid:]
        np.multiply(i, cand, out=c_new)
        c_new += f * c
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=h)
        c = c_new
    return _states(buf, hid)


def _lstm_backward(g, buf, x, wx, wh, gx):
    t, width, n = buf.shape
    hid = width // 7
    g = _upstream(g)
    gates = buf[:, hid:5 * hid].reshape(t, 4, hid, n)
    i, f, o, cand = (gates[:, j] for j in range(4))
    c, tc = buf[:, 5 * hid:6 * hid], buf[:, 6 * hid:]
    # d pre / d c for i, f and g, and d pre / d h for o
    part = np.empty((t, 4, hid, n), DTYPE)
    sig = part[:, :3]
    np.subtract(1, gates[:, :3], out=sig)
    sig *= gates[:, :3]
    part[:, 0] *= cand
    part[:, 1] *= _shifted(c)
    part[:, 2] *= tc
    np.multiply(cand, cand, out=part[:, 3])
    np.subtract(1, part[:, 3], out=part[:, 3])
    part[:, 3] *= i
    dc_dh = o * (1 - tc * tc)
    dpre = np.empty((t, 4 * hid, n), DTYPE)
    dpre4 = dpre.reshape(t, 4, hid, n)
    dh, dc = g[t - 1], None
    for s in range(t - 1, -1, -1):
        dc = dh * dc_dh[s] if dc is None else dc * f[s + 1] + dh * dc_dh[s]
        np.multiply(dc, part[s], out=dpre4[s])
        np.multiply(dh, part[s, 2], out=dpre4[s, 2])
        if s:
            dh = wh @ dpre[s]
            dh += g[s - 1]
    return _recurrent_grads(dpre, None, buf[:, :hid], x, wx, gx)


def _gru_forward(x, wx, wh, b):
    """Gates z, r = σ(Wx x_t + b + Wh h_{t-1}), candidate
    n = tanh(Wx x_t + b + r ⊙ (Wh h_{t-1})), h_t = (1 - z) h_{t-1} + z n;
    saves [h | z r n | Wh h_{t-1}] (the z and r rows of the last halved)."""
    n, t, _ = x.shape
    hid = wh.shape[0]
    sig = 2 * hid
    xw = _project(x, wx, b, sig)
    whs = _half(wh, sig)
    buf = np.empty((t, 7 * hid, n), DTYPE)
    h = np.zeros((hid, n), DTYPE)
    for s in range(t):
        row = buf[s]
        zr, cand, a = row[hid:3 * hid], row[3 * hid:4 * hid], row[4 * hid:]
        np.matmul(whs, h, out=a)
        np.add(xw[s, :sig], a[:sig], out=zr)
        np.tanh(zr, out=zr)
        _to_sigmoid(zr)
        np.multiply(zr[hid:], a[sig:], out=cand)
        cand += xw[s, sig:]
        np.tanh(cand, out=cand)
        h_new = row[:hid]
        np.subtract(cand, h, out=h_new)
        h_new *= zr[:hid]
        h_new += h
        h = h_new
    return _states(buf, hid)


def _gru_backward(g, buf, x, wx, wh, gx):
    t, width, n = buf.shape
    hid = width // 7
    g = _upstream(g)
    h = buf[:, :hid]
    gates = buf[:, hid:4 * hid].reshape(t, 3, hid, n)
    z, r, cand = (gates[:, j] for j in range(3))
    # d pre / d h per gate, into x @ wx + b (part) and into h_prev @ wh (rec)
    part = np.empty((t, 3, hid, n), DTYPE)
    np.multiply(cand, cand, out=part[:, 2])
    np.subtract(1, part[:, 2], out=part[:, 2])
    part[:, 2] *= z
    np.subtract(cand, _shifted(h), out=part[:, 0])
    np.multiply(part[:, 2], buf[:, 6 * hid:], out=part[:, 1])
    part[:, :2] *= gates[:, :2]
    part[:, :2] *= 1 - gates[:, :2]
    rec = part.copy()
    rec[:, 2] *= r
    keep = 1 - z
    dxw = np.empty((t, 3 * hid, n), DTYPE)
    da = np.empty_like(dxw)
    dxw4, da4 = dxw.reshape(t, 3, hid, n), da.reshape(t, 3, hid, n)
    dh = g[t - 1]
    for s in range(t - 1, -1, -1):
        np.multiply(dh, part[s], out=dxw4[s])
        if s:
            np.multiply(dh, rec[s], out=da4[s])
            dh_prev = wh @ da[s]
            dh_prev += dh * keep[s]
            dh_prev += g[s - 1]
            dh = dh_prev
    return _recurrent_grads(dxw, da, h, x, wx, gx)


def _mean(a):
    """``np.mean(a, dtype=DTYPE)`` of a 1-D float32 ``a`` without its Python
    wrapper; byte-equal while float32 holds ``len(a)`` exactly (up to 2**24)."""
    return np.add.reduce(a, dtype=DTYPE) / DTYPE(len(a))


def _softmax_xent_forward(logits, target):
    idx = _integral(target, "class indices")
    if idx.size and (idx.min() < 0 or idx.max() >= logits.shape[1]):
        raise GraphError(f"class indices must lie in [0, {logits.shape[1]})")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1, keepdims=True)
    rows = (np.arange(logits.shape[0]), idx.astype(int, copy=False))
    return _mean(np.log(sums[:, 0]) - z[rows]), (e, sums, rows)


def _softmax_xent_backward(logits, kept):
    e, sums, rows = kept
    grad = e / sums  # the softmax, less one at each target
    grad[rows] -= 1.0
    return grad / DTYPE(logits.shape[0])


def _mse_forward(pred, target):
    diff = pred.reshape(pred.shape[0]) - np.asarray(target, dtype=DTYPE)
    return _mean(diff * diff), diff


def _mse_backward(pred, diff):
    return (DTYPE(2.0 / pred.shape[0]) * diff).reshape(pred.shape)


# cell name -> (gates k, forward, backward)
_CELLS = {
    "rnn": (1, _rnn_forward, _rnn_backward),
    "lstm": (4, _lstm_forward, _lstm_backward),
    "gru": (3, _gru_forward, _gru_backward),
}


# loss name -> (mean loss and what the gradient reads of its work, the
# gradient w.r.t. the output from that)
_LOSSES = {
    "softmax_xent": (_softmax_xent_forward, _softmax_xent_backward),
    "mse": (_mse_forward, _mse_backward),
}
