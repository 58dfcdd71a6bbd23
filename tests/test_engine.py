"""Differentiation engine tests: hand oracles, finite differences, modes."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    NP_MEAN_LOSSES,
    RECOMPUTED_LOSS_GRADS,
    draw_clean_input,
    finite_difference_check,
    grid_schema,
    linear,
)
from numpy.lib.stride_tricks import sliding_window_view

from roarsel.data import Task
from roarsel.engine import _LOSSES, DTYPE, Graph, _keep
from roarsel.models import Architecture, ModelSpec, build
from roarsel.errors import GraphError


def rng(seed=0):
    return np.random.default_rng(seed)


def uniform(r, shape, lo=-0.5, hi=0.5):
    return r.uniform(lo, hi, size=shape).astype(DTYPE)


# -- forward hand oracles ----------------------------------------------------


def test_conv1d_hand_oracle_no_padding():
    # input [1, 2, 3], kernel [1, 1], valid convolution -> [3, 5]
    g = Graph(input_shape=(3, 1))
    w = g.param("w", np.array([[[1.0]], [[1.0]]]))
    g.mark_output(g.conv1d(g.input_node, w, g.param("b", np.zeros(1))))
    out = g.forward(np.array([[[1.0], [2.0], [3.0]]]))
    np.testing.assert_array_equal(out, np.array([[[3.0], [5.0]]], dtype=DTYPE))


def test_conv1d_hand_oracle_padded():
    # same input with one zero on each side, plus a bias of 10 -> [11, 13, 15, 13]
    g = Graph(input_shape=(3, 1))
    w = g.param("w", np.array([[[1.0]], [[1.0]]]))
    g.mark_output(g.conv1d(g.input_node, w, g.param("b", [10.0]), padding=1))
    out = g.forward(np.array([[[1.0], [2.0], [3.0]]]))
    np.testing.assert_array_equal(out, np.array([[[11.0], [13.0], [15.0], [13.0]]],
                                                dtype=DTYPE))


def _reference_columns(x, k, padding):
    """Padded sliding windows, transposed tap-major: [N*To, K*Cin]."""
    x = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
    windows = sliding_window_view(x, k, axis=1)  # [N, To, Cin, K]
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(-1, k * x.shape[2])


def _reference_conv1d(x, w, g, padding):
    """Output, kernel gradient and input gradient of a conv1d layer: the
    first two from padded sliding-window columns, the last tap by tap."""
    n, t, c_in = x.shape
    k, _, c_out = w.shape
    cols = _reference_columns(x, k, padding)
    y = (cols @ w.reshape(k * c_in, c_out)).reshape(n, -1, c_out)
    gw = (cols.T @ g.reshape(-1, c_out)).reshape(k, c_in, c_out)
    gx_pad = np.zeros((n, t + 2 * padding, c_in), dtype=DTYPE)
    for ki in range(k):
        gx_pad[:, ki : ki + g.shape[1]] += g @ w[ki].T
    return y, gw, gx_pad[:, padding : padding + t]


def _bias_node(y, b, g):
    """A bias added by a node of its own: the forward ``y + b`` broadcast
    over the leading axes, and the bias gradient the upstream gradient
    summed over them."""
    axes = tuple(range(g.ndim - b.ndim))
    return y + b, g.sum(axis=axes).astype(DTYPE, copy=False)


def _layer_op(op, x, w, b, g, **attrs):
    """Output and (dx, dW, db) of one ``op`` node over ``x``, ``w`` and ``b``,
    its backward fed the upstream gradient ``g``."""
    graph = Graph(input_shape=x.shape[1:])
    idx = getattr(graph, op)(graph.input_node, graph.param("w", w), graph.param("b", b),
                             **attrs)
    values = [x, graph.params["w"], graph.params["b"]]
    node = graph.nodes[idx]
    y = node.fwd(values)
    return (y, *node.bwd(g, y, values))


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [1, 64, 300])
@pytest.mark.parametrize("n_in, n_out", [(1, 1), (12, 16), (75, 128), (128, 128),
                                         (64, 3), (256, 1)])
def test_dense_matches_the_matmul_and_add_reference(batch, n_in, n_out):
    """``dense`` gives the bytes of a matmul node followed by a bias add node:
    output, dx, dW and db."""
    r = rng(batch + n_in + n_out)
    x = r.standard_normal((batch, n_in)).astype(DTYPE)
    w = r.standard_normal((n_in, n_out)).astype(DTYPE)
    b = r.standard_normal(n_out).astype(DTYPE)
    g = r.standard_normal((batch, n_out)).astype(DTYPE)
    y, db = _bias_node(x @ w, b, g)
    _assert_same_bytes(_layer_op("dense", x, w, b, g), (y, g @ w.T, x.T @ g, db))


@pytest.mark.parametrize("batch", [1, 64, 300])
@pytest.mark.parametrize("t, c_in, c_out, k, padding", [
    (6, 2, 3, 1, 0),
    (6, 2, 3, 2, 1),
    (7, 3, 4, 3, 1),
    (5, 4, 2, 4, 2),
    (9, 8, 16, 5, 2),
    (12, 64, 64, 5, 2),
    (8, 16, 8, 3, 0),
    (4, 2, 2, 4, 0),  # the kernel spans the whole input
    (3, 2, 3, 5, 1),  # ... the whole once-padded input
    (1, 3, 2, 5, 2),  # ... an input of one step padded twice
    (3, 2, 3, 7, 2),  # ... and one whose padding outruns the output
])
def test_conv1d_kernels_match_the_padded_window_reference(batch, t, c_in, c_out, k,
                                                          padding):
    """A biased ``conv1d`` gives the bytes of the padded-window convolution
    followed by a bias add node: output, dx, dW and db."""
    r = rng(batch + 10 * k + padding)
    x = r.standard_normal((batch, t, c_in)).astype(DTYPE)
    w = r.standard_normal((k, c_in, c_out)).astype(DTYPE)
    b = r.standard_normal(c_out).astype(DTYPE)
    g = r.standard_normal((batch, t + 2 * padding - k + 1, c_out)).astype(DTYPE)
    y_ref, gw_ref, gx_ref = _reference_conv1d(x, w, g, padding)
    y_ref, db_ref = _bias_node(y_ref, b, g)
    _assert_same_bytes(_layer_op("conv1d", x, w, b, g, padding=padding),
                       (y_ref, gx_ref, gw_ref, db_ref))


def test_dense_gradients_linear_form():
    # f(x) = 2 x0 + 3 x1 + 4: input grad is the weight, weight grad is the
    # input, and the bias grad counts the batch
    g = Graph(input_shape=(2,))
    w = g.param("w", np.array([[2.0], [3.0]]))
    g.mark_output(g.dense(g.input_node, w, g.param("b", [4.0])))
    x = np.array([[5.0, 7.0], [1.0, 1.0]])
    np.testing.assert_array_equal(g.forward(x), [[35.0], [9.0]])
    grads = g.backward(selector=np.full(2, 0))
    np.testing.assert_array_equal(grads.input, [[2.0, 3.0], [2.0, 3.0]])
    np.testing.assert_array_equal(grads.params["w"], [[6.0], [8.0]])
    np.testing.assert_array_equal(grads.params["b"], [2.0])


def test_softmax_cross_entropy_hand_value():
    g = Graph(input_shape=(2,))
    w = g.param("w", np.eye(2))
    out = linear(g, g.input_node, w)
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    loss = g.forward_loss(np.array([[1.0, 2.0]]), target=np.array([1]))
    # hand-computed: log(1 + e^-1) = 0.31326169
    assert loss == pytest.approx(0.31326169, rel=1e-5)


def test_mean_squared_error_hand_value():
    g = Graph(input_shape=(1,))
    w = g.param("w", np.eye(1))
    out = linear(g, g.input_node, w)
    g.mark_output(out)
    g.mean_squared_error(out)
    loss = g.forward_loss(np.array([[1.0], [2.0]]), target=np.array([3.0, 5.0]))
    assert loss == pytest.approx(6.5, rel=1e-6)


@pytest.mark.parametrize("n_classes", [None, 3], ids=["regression", "classification"])
def test_a_list_target_differentiates_like_an_array(n_classes):
    """forward_loss takes any (n,) sequence; backward must too."""
    m = build(ModelSpec(Architecture.MLP, width=4), grid_schema(2, 3, n_classes), seed=0)
    x = uniform(rng(0), (3, 2, 3))
    target = [0, 2, 1]
    losses, grads = [], []
    for t in (target, np.array(target)):
        losses.append(m.graph.forward_loss(x, t))
        grads.append(m.graph.backward("loss").input)
    assert losses[0] == losses[1]
    np.testing.assert_array_equal(grads[0], grads[1])


@pytest.mark.parametrize("task", list(Task))
def test_loss_of_a_forwarded_output_is_forward_loss(task):
    classify = task is Task.CLASSIFICATION
    m = build(ModelSpec(Architecture.MLP, width=8),
              grid_schema(3, 2, 4 if classify else None), seed=0)
    x = uniform(rng(1), (5, 3, 2))
    target = np.arange(5) % 4 if classify else uniform(rng(2), (5,))
    loss = m.graph.forward_loss(x, target)
    assert m.graph.loss_of(m.graph.forward(x), target) == loss


def test_loss_of_needs_a_loss():
    g = Graph(input_shape=(1,))
    g.mark_output(linear(g, g.input_node, g.param("w", np.eye(1))))
    with pytest.raises(GraphError, match="no loss attached"):
        g.loss_of(np.zeros((2, 1), dtype=DTYPE), np.zeros(2))


def test_slice_time_and_flatten_shapes():
    g = Graph(input_shape=(4, 3))
    sliced = g.slice_time(g.input_node, 2)
    assert g.nodes[sliced].shape == (3,)
    flat = g.flatten(g.input_node)
    assert g.nodes[flat].shape == (12,)
    g.mark_output(flat)
    x = rng(1).normal(size=(5, 4, 3)).astype(DTYPE)
    out = g.forward(x)
    np.testing.assert_array_equal(out, x.reshape(5, 12))


def test_slice_time_gradient_scatters_to_one_step():
    g = Graph(input_shape=(3, 2))
    w = g.param("w", np.ones((2, 1)))
    g.mark_output(linear(g, g.slice_time(g.input_node, 1), w))
    g.forward(np.ones((2, 3, 2), dtype=DTYPE))
    grads = g.backward(selector=np.full(2, 0))
    expected = np.zeros((2, 3, 2), dtype=DTYPE)
    expected[:, 1, :] = 1.0
    np.testing.assert_array_equal(grads.input, expected)


# -- guided mode -------------------------------------------------------------


def test_guided_zeroes_negative_upstream_gradient():
    """f(x) = -relu(x) at x = 1: standard gradient -1, guided 0."""
    g = Graph(input_shape=(1,))
    g.mark_output(linear(g, g.relu(g.input_node), g.param("w", [[-1.0]])))
    x = np.array([[1.0]])
    g.forward(x)
    assert g.backward(selector=np.full(1, 0)).input.item() == pytest.approx(-1.0)
    g.forward(x)
    assert g.backward_guided(selector=np.full(1, 0)).item() == 0.0


def test_guided_zeroes_non_positive_forward_input():
    """f(x) = relu(-x) at x = 1: forward input to relu is -1, both modes 0."""
    g = Graph(input_shape=(1,))
    g.mark_output(g.relu(linear(g, g.input_node, g.param("w", [[-1.0]]))))
    x = np.array([[1.0]])
    g.forward(x)
    assert g.backward(selector=np.full(1, 0)).input.item() == 0.0
    g.forward(x)
    assert g.backward_guided(selector=np.full(1, 0)).item() == 0.0


def test_guided_passes_positive_path():
    # positive forward input and positive upstream gradient flow unchanged
    g = Graph(input_shape=(1,))
    g.mark_output(linear(g, g.relu(g.input_node), g.param("w", [[2.0]])))
    g.forward(np.array([[3.0]]))
    assert g.backward_guided(selector=np.full(1, 0)).item() == pytest.approx(2.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guided_equals_standard_without_relu(seed):
    """The guided rule touches relu only, so relu-free graphs agree, the
    sigmoid and tanh gates of a recurrent layer included."""
    r = rng(seed)
    g = Graph(input_shape=(3, 2))
    wx = g.param("wx", uniform(r, (2, 4 * 5)))
    wh = g.param("wh", uniform(r, (5, 4 * 5)))
    b = g.param("b", uniform(r, (4 * 5,)))
    w2 = g.param("w2", uniform(r, (3 * 5, 3)))
    h = g.recurrent(g.input_node, wx, wh, b, "lstm")
    g.mark_output(linear(g, g.flatten(h), w2))
    x = uniform(r, (4, 3, 2), -2, 2)
    g.forward(x)
    standard = g.backward(selector=np.full(4, 1)).input
    g.forward(x)
    guided = g.backward_guided(selector=np.full(4, 1))
    np.testing.assert_array_equal(standard, guided)


def test_guided_differs_from_standard_with_relu():
    r = rng(7)
    g = Graph(input_shape=(4,))
    w1 = g.param("w1", uniform(r, (4, 8)))
    w2 = g.param("w2", uniform(r, (8, 2)))
    g.mark_output(linear(g, g.relu(linear(g, g.input_node, w1)), w2))
    x = uniform(r, (16, 4), -2, 2)
    g.forward(x)
    standard = g.backward(selector=np.full(16, 0)).input
    g.forward(x)
    guided = g.backward_guided(selector=np.full(16, 0))
    assert not np.array_equal(standard, guided)


def special_values(r, shape):
    """Random float32 values salted with -0.0, +0.0, NaNs of both signs and
    a payload, infinities and a subnormal."""
    g = r.standard_normal(shape).astype(DTYPE).reshape(-1)
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45],
                        dtype=DTYPE)
    specials = np.concatenate([specials, np.array([0x7FC00123], np.int32).view(DTYPE)])
    g[r.choice(g.size, size=4 * specials.size, replace=False)] = np.repeat(specials, 4)
    return g.reshape(shape)


@pytest.mark.parametrize("shape", [(40,), (16, 12), (5, 6, 7)])
def test_keep_is_where_bit_for_bit(shape):
    r = rng(len(shape))
    g = special_values(r, shape)
    with np.errstate(invalid="ignore"):
        masks = [r.random(shape) < 0.5, g > 0, special_values(r, shape) > 0,
                 np.ones(shape, bool), np.zeros(shape, bool)]
    for keep in masks:
        out = _keep(g, keep)
        want = np.where(keep, g, DTYPE(0.0))
        assert out.dtype == DTYPE and out.shape == want.shape
        assert out.tobytes() == want.tobytes()
    assert _keep(g[::2], masks[0][::2]).tobytes() == np.where(
        masks[0][::2], g[::2], DTYPE(0.0)).tobytes()


def test_guided_input_matches_a_where_reference():
    """Two relu layers with a bias, against the guided rule written out with
    np.where; the engine's backward must give the same bytes."""
    r = rng(11)
    g = Graph(input_shape=(3, 4))
    w1 = uniform(r, (12, 16))
    b1 = uniform(r, (16,))
    b1[:4] = 0.0
    w2 = uniform(r, (16, 8))
    w3 = uniform(r, (8, 3))
    h0 = g.flatten(g.input_node)
    h1 = g.relu(g.dense(h0, g.param("w1", w1), g.param("b1", b1)))
    h2 = g.relu(linear(g, h1, g.param("w2", w2)))
    g.mark_output(linear(g, h2, g.param("w3", w3)))
    x = uniform(r, (32, 3, 4), -2, 2)
    x[0] = 0.0  # with the zero biases, four relu inputs are exactly 0
    selector = r.integers(0, 3, size=32)
    g.forward(x)
    got = g.backward_guided(selector)

    zero = DTYPE(0.0)
    pre1 = x.reshape(32, 12) @ w1 + b1
    pre2 = np.maximum(pre1, 0) @ w2
    seed = np.zeros((32, 3), DTYPE)
    seed[np.arange(32), selector] = 1.0
    up = seed @ w3.T
    up = np.where(pre2 > 0, np.where(up > 0, up, zero), zero) @ w2.T
    up = np.where(pre1 > 0, np.where(up > 0, up, zero), zero) @ w1.T
    want = up.reshape(x.shape)
    assert got.dtype == DTYPE
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("schema", [grid_schema(5, 3), grid_schema(5, 3, 3)],
                         ids=["regression", "classification"])
def test_backward_gradients_are_float32(arch, schema):
    """Backward keeps each first gradient as the kernel returned it, so every
    kernel must return float32."""
    spec = ModelSpec(arch, width=8, channels=4, dense_size=8,
                     hidden_size=4, kernel_size=3, dropout=0.25)
    m = build(spec, schema, seed=0)
    r = rng(1)
    x = uniform(r, (6, 5, 3), -2, 2)
    target = (r.integers(0, 3, size=6) if schema.task is Task.CLASSIFICATION
              else uniform(r, (6,)))
    m.graph.forward_loss(x, target, r)
    grads = m.graph.backward("loss")
    assert grads.input.dtype == DTYPE
    assert {k: v.dtype for k, v in grads.params.items()} == {
        k: DTYPE for k in m.graph.params}


# -- the parameters-only backward --------------------------------------------

SCHEMAS = [grid_schema(5, 3), grid_schema(5, 3, 3)]
HEADS = ["regression", "classification"]


def trained_forward(arch, schema, dropout, seed=0):
    """A two-layer model of ``arch`` after a training forward of six rows,
    each dropout slot holding a drawn mask."""
    spec = ModelSpec(arch, width=8, channels=4, dense_size=8, hidden_size=4,
                     kernel_size=3, depth=2, dropout=dropout)
    m = build(spec, schema, seed=seed)
    r = rng(seed + 1)
    x = uniform(r, (6, 5, 3), -2, 2)
    target = (r.integers(0, 3, size=6) if schema.task is Task.CLASSIFICATION
              else uniform(r, (6,)))
    m.graph.forward_loss(x, target, r)
    return m.graph


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("schema", SCHEMAS, ids=HEADS)
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_a_parameters_only_backward_keeps_every_parameter_gradients_bytes(
        arch, schema, dropout):
    g = trained_forward(arch, schema, dropout)
    full = g.backward("loss")
    got = g.backward("loss", input_grad=False)
    assert full.input is not None and got.input is None
    assert got.params.keys() == full.params.keys() == g.params.keys()
    for name, want in full.params.items():
        assert got.params[name].dtype == DTYPE, name
        assert got.params[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("arch", list(Architecture))
def test_a_parameters_only_backward_skips_the_first_layers_input_gradient(arch):
    """Only the first layer op, whose first argument has no parameter behind
    it, is told to skip that gradient; no node before it is differentiated."""
    g = trained_forward(arch, grid_schema(5, 3, 3), 0.3)
    calls = {}
    for node in g.nodes:
        if node.bwd is not None:
            def spy(*args, node=node, bwd=node.bwd):
                calls[node.idx] = args[3:]
                return bwd(*args)
            g.nodes[node.idx] = replace(node, bwd=spy)
    g.backward("loss", input_grad=False)
    learning = {n.idx for n in g.nodes if n.bwd is not None and n.learns}
    assert calls.keys() == learning
    first = min(n.idx for n in g.nodes if n.op in ("dense", "conv1d", "recurrent"))
    assert {i for i, extra in calls.items() if extra} == {first}
    assert calls[first] == (False,)
    assert not g.nodes[g.nodes[first].args[0]].learns
    calls.clear()
    g.backward("loss")
    assert calls.keys() == {n.idx for n in g.nodes if n.bwd is not None}
    assert not any(calls.values())


@pytest.mark.parametrize("n_classes", [None, 3], ids=HEADS)
def test_each_loss_value_is_the_float32_mean(n_classes):
    """The loss value's mean equals ``np.mean(..., dtype=float32)``, the
    form it replaced, at every batch size from 1 to 300."""
    r = rng(9)
    name = "mse" if n_classes is None else "softmax_xent"
    for n in range(1, 301):
        out = (r.standard_normal((n, n_classes or 1)) * 10.0 ** r.integers(-3, 4)
               ).astype(DTYPE)
        target = (r.standard_normal(n).astype(DTYPE) if n_classes is None
                  else r.integers(0, n_classes, size=n))
        got, want = _LOSSES[name][0](out, target)[0], NP_MEAN_LOSSES[name](out, target)
        assert got.dtype == DTYPE and got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n_classes", [None, 3], ids=HEADS)
def test_each_loss_gradient_reads_what_its_forward_kept(n_classes):
    """The loss gradient from what the forward kept has the bytes of the
    gradient recomputed from the output and the target, at every batch size
    from 1 to 300, and reading it twice changes nothing."""
    r = rng(10)
    name = "mse" if n_classes is None else "softmax_xent"
    forward, backward = _LOSSES[name]
    for n in range(1, 301):
        out = (r.standard_normal((n, n_classes or 1)) * 10.0 ** r.integers(-3, 4)
               ).astype(DTYPE)
        target = (r.standard_normal(n).astype(DTYPE) if n_classes is None
                  else r.integers(0, n_classes, size=n))
        kept = forward(out, target)[1]
        want = RECOMPUTED_LOSS_GRADS[name](out, target)
        for _ in range(2):
            got = backward(out, kept)
            assert got.dtype == DTYPE and got.shape == out.shape, n
            assert got.tobytes() == want.tobytes(), n


def test_the_validation_loss_keeps_nothing_for_backward():
    """``loss_of`` alone leaves no loss to differentiate; ``forward_loss``
    keeps one until the next forward."""
    g = build_mlp_regression()
    x, target = uniform(rng(3), (4, 5)), np.arange(4, dtype=DTYPE)
    g.loss_of(g.forward(x), target)
    with pytest.raises(GraphError, match="loss not computed"):
        g.backward("loss")
    g.forward_loss(x, target)
    g.backward("loss")
    g.forward(x)
    with pytest.raises(GraphError, match="loss not computed"):
        g.backward("loss")


# -- finite differences ------------------------------------------------------


def build_mlp_regression(seed=0):
    r = rng(seed)
    g = Graph(input_shape=(5,))
    w1 = g.param("w1", uniform(r, (5, 7)))
    b1 = g.param("b1", uniform(r, (7,)))
    w2 = g.param("w2", uniform(r, (7, 1)))
    h = g.relu(g.dense(g.input_node, w1, b1))
    out = linear(g, h, w2)
    g.mark_output(out)
    g.mean_squared_error(out)
    return g


def build_conv_classifier(seed=1):
    r = rng(seed)
    g = Graph(input_shape=(6, 2))
    k = g.param("k", uniform(r, (3, 2, 4)))
    bk = g.param("bk", uniform(r, (4,)))
    w = g.param("w", uniform(r, (24, 3)))
    h = g.relu(g.conv1d(g.input_node, k, bk, padding=1))
    out = linear(g, g.flatten(h), w)
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    return g


def build_recurrent_cell(seed=2):
    """One relu step applied twice to the last time step, sharing ``wx`` and
    ``b``, with dropout between the two, then a state layer that uses ``b`` a
    third time."""
    r = rng(seed)
    g = Graph(input_shape=(2, 4))
    wx = g.param("wx", uniform(r, (4, 4)))
    wh = g.param("wh", uniform(r, (4, 4)))
    b = g.param("b", uniform(r, (4,)))
    wo = g.param("wo", uniform(r, (4, 1)))
    h1 = g.relu(g.dense(g.slice_time(g.input_node, 1), wx, b))
    h2 = g.relu(g.dense(g.dropout(h1, "drop0", 0.25), wx, b))
    out = linear(g, g.relu(g.dense(h2, wh, b)), wo)
    g.mark_output(out)
    g.mean_squared_error(out)
    return g


def test_finite_difference_mlp_loss():
    g = build_mlp_regression()
    target = np.array([0.3, -0.2, 0.8], dtype=DTYPE)
    x = draw_clean_input(g, (3, 5), seed=10)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor
    assert report.max_rel_error <= 1e-3


def test_finite_difference_conv_classifier_loss():
    g = build_conv_classifier()
    target = np.array([0, 2])
    x = draw_clean_input(g, (2, 6, 2), seed=11)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor


def test_finite_difference_recurrent_cell_loss():
    """Reused parameter tensors accumulate gradients across the steps that
    share them, through a drawn dropout mask."""
    g = build_recurrent_cell()
    target = np.array([0.1, -0.4], dtype=DTYPE)
    x = draw_clean_input(g, (2, 2, 4), seed=12)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor


GATES = {"rnn": 1, "lstm": 4, "gru": 3}


def build_recurrent_stack(cell, depth, seed=6):
    """``depth`` stacked recurrent layers read out from every step, so the
    upstream gradient enters the time loop at each step."""
    r = rng(seed)
    k, hid, t = GATES[cell], 3, 3
    g = Graph(input_shape=(t, 2))
    h, d = g.input_node, 2
    for layer in range(depth):
        wx = g.param(f"wx{layer}", uniform(r, (d, k * hid)))
        wh = g.param(f"wh{layer}", uniform(r, (hid, k * hid)))
        b = g.param(f"b{layer}", uniform(r, (k * hid,)))
        h, d = g.recurrent(h, wx, wh, b, cell), hid
    out = linear(g, g.flatten(h), g.param("w", uniform(r, (t * hid, 3))))
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    return g


@pytest.mark.parametrize("selector", ["loss", pytest.param(np.full(3, 1), id="1")])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_finite_difference_recurrent_op(cell, depth, selector):
    """Backprop through time inside the recurrent kernel, every cell."""
    g = build_recurrent_stack(cell, depth)
    target = np.array([0, 2, 1])
    x = rng(15).normal(size=(3, 3, 2)).astype(DTYPE)
    report = finite_difference_check(g, x, selector=selector, target=target)
    assert report.passed, report.per_tensor


def test_finite_difference_check_stays_quiet_at_a_large_loss():
    """The oracle's own rounding must not grow with the loss: differencing
    the float32 mean loss read 1.9e-3 on this gru's correct gradients."""
    spec = ModelSpec(Architecture.GRU, hidden_size=3)
    g = build(spec, grid_schema(4, 2), seed=1).graph
    r = rng(1)
    x = r.standard_normal((3, 4, 2)).astype(DTYPE)
    target = r.standard_normal(3).astype(DTYPE)
    assert g.forward_loss(x, target) == pytest.approx(15.06, abs=0.01)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor


def test_recurrent_op_validates_its_arguments():
    g = Graph(input_shape=(4, 2))
    wx = g.param("wx", np.ones((2, 12)))
    wh = g.param("wh", np.ones((3, 12)))
    b = g.param("b", np.ones(12))
    assert g.nodes[g.recurrent(g.input_node, wx, wh, b, "lstm")].shape == (4, 3)
    with pytest.raises(GraphError, match="unknown recurrent cell 'elman'"):
        g.recurrent(g.input_node, wx, wh, b, "elman")
    with pytest.raises(GraphError, match="gru shape mismatch"):
        g.recurrent(g.input_node, wx, wh, b, "gru")
    with pytest.raises(GraphError, match="must be parameters"):
        g.recurrent(g.input_node, g.flatten(g.input_node), wh, b, "lstm")


def test_finite_difference_output_column_selector():
    g = build_conv_classifier(seed=3)
    x = draw_clean_input(g, (2, 6, 2), seed=13)
    report = finite_difference_check(g, x, selector=np.full(2, 1))
    assert report.passed, report.per_tensor


def test_per_sample_selector_matches_columns():
    g = build_conv_classifier(seed=4)
    x = rng(14).normal(size=(3, 6, 2)).astype(DTYPE)
    g.forward(x)
    picked = g.backward(selector=np.array([0, 2, 1])).input
    by_col = []
    for col in range(3):
        g.forward(x)
        by_col.append(g.backward(selector=np.full(3, col)).input)
    np.testing.assert_array_equal(picked[0], by_col[0][0])
    np.testing.assert_array_equal(picked[1], by_col[2][1])
    np.testing.assert_array_equal(picked[2], by_col[1][2])


# -- dropout -----------------------------------------------------------------


def dropout_graph(rate=0.5, width=3):
    """``x`` [width] through one dropout node into a linear readout."""
    g = Graph(input_shape=(width,))
    d = g.dropout(g.input_node, "drop0", rate)
    g.mark_output(linear(g, d, g.param("w", np.ones((width, 1)))))
    return g, d


def test_dropout_passes_its_input_through_outside_training():
    """Without a generator the slot holds None and the node's value is its
    input array itself: nothing is allocated or multiplied."""
    g, d = dropout_graph()
    x = rng(0).normal(size=(4, 3)).astype(DTYPE)
    g.forward(x)
    mask = g.nodes[d].args[1]
    assert g._cache[mask] is None
    assert g._cache[d] is g._cache[g.input_node]
    np.testing.assert_array_equal(g._cache[d], x)
    # the backward of an inference forward passes the gradient on
    np.testing.assert_array_equal(g.backward(np.full(4, 0)).input, np.ones((4, 3), DTYPE))


def test_a_training_forward_draws_inverted_masks_from_its_generator():
    """Entries are 0 or 1 / (1 - rate), and equal generators draw equal
    bytes."""
    g, d = dropout_graph(rate=0.75, width=50)
    x = np.ones((200, 50), DTYPE)
    g.forward(x, rng(3))
    mask = g._cache[g.nodes[d].args[1]]
    assert mask.shape == (200, 50) and mask.dtype == DTYPE
    assert set(np.unique(mask)) == {0.0, 4.0}
    assert 0.2 < (mask > 0).mean() < 0.3
    np.testing.assert_array_equal(g._cache[d], x * mask)
    first = g._cache[d].copy()
    g.forward(x, rng(3))
    assert g._cache[d].tobytes() == first.tobytes()
    g.forward(x, rng(4))
    assert g._cache[d].tobytes() != first.tobytes()


def test_mask_zero_blocks_gradient():
    g, d = dropout_graph(rate=0.5, width=64)
    g.forward(np.ones((1, 64), DTYPE), rng(1))
    mask = g._cache[g.nodes[d].args[1]]
    assert 0 < np.count_nonzero(mask) < 64
    np.testing.assert_array_equal(g.backward(selector=np.full(1, 0)).input, mask)


def test_mask_slot_gets_no_gradient_and_dropout_gradients_are_unchanged():
    model = build(ModelSpec(Architecture.MLP, width=8, dropout=0.5),
                  grid_schema(3, 2), seed=0)
    g = model.graph
    r = rng(4)
    x = r.normal(size=(6, 3, 2)).astype(DTYPE)
    g.forward_loss(x, r.normal(size=6).astype(DTYPE), r)
    drops = [node for node in g.nodes if node.op == "dropout"]
    assert len(drops) == 2 and all(g.nodes[n.args[1]].op == "mask" for n in drops)
    for node in drops:
        upstream = np.ones((6, *node.shape), dtype=DTYPE)
        assert node.bwd(upstream, None, g._cache)[1] is None
    got = g.backward("loss")
    # the reference rule computes the mask's gradient too, and backward drops it
    for node in drops:
        a, b = node.args
        g.nodes[node.idx] = replace(
            node, bwd=lambda gr, y, v, a=a, b=b: (gr * v[b], gr * v[a]))
    want = g.backward("loss")
    assert got.input.tobytes() == want.input.tobytes()
    assert got.params.keys() == want.params.keys()
    for name, value in want.params.items():
        assert got.params[name].tobytes() == value.tobytes(), name


def test_dropout_checks_its_name_and_rate():
    g = Graph(input_shape=(3,))
    g.dropout(g.input_node, "drop0", 0.5)
    with pytest.raises(GraphError, match="duplicate mask slot 'drop0'"):
        g.dropout(g.input_node, "drop0", 0.25)
    for rate in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(GraphError, match="dropout rate must lie in"):
            g.dropout(g.input_node, f"drop{rate}", rate)
    assert list(g.mask_shapes) == ["drop0"]


# -- determinism and isolation -----------------------------------------------


def test_forward_is_pure():
    g = build_conv_classifier(seed=5)
    x = rng(20).normal(size=(8, 6, 2)).astype(DTYPE)
    first = g.forward(x).copy()
    g.backward(selector=np.full(8, 0))
    second = g.forward(x)
    assert first.tobytes() == second.tobytes()


# -- error handling ----------------------------------------------------------


def test_shape_mismatch_rejected_at_build_time():
    g = Graph(input_shape=(3,))
    w = g.param("w", np.ones((4, 2)))
    with pytest.raises(GraphError, match="dense shape mismatch"):
        g.dense(g.input_node, w, g.param("b", np.ones(2)))


def test_bias_shape_mismatch_rejected():
    """A bias must be a parameter of the layer's output width."""
    g = Graph(input_shape=(4, 3))
    flat = g.flatten(g.input_node)
    w = g.param("w", np.ones((12, 2)))
    k = g.param("k", np.ones((2, 3, 5)))
    for shape in [(3,), (1,), (2, 1), ()]:
        with pytest.raises(GraphError, match="dense shape mismatch"):
            g.dense(flat, w, g.param(f"dense{shape}", np.ones(shape)))
    with pytest.raises(GraphError, match="must be parameters"):
        g.dense(flat, w, g.slice_time(g.input_node, 0))
    for shape in [(3,), (1,), (4, 5), ()]:
        with pytest.raises(GraphError, match="conv1d bias must be a parameter"):
            g.conv1d(g.input_node, k, g.param(f"conv{shape}", np.ones(shape)))
    with pytest.raises(GraphError, match="conv1d bias must be a parameter"):
        g.conv1d(g.input_node, k, g.flatten(g.input_node))


def test_conv_kernel_longer_than_input_rejected():
    g = Graph(input_shape=(2, 1))
    w = g.param("w", np.ones((5, 1, 1)))
    with pytest.raises(GraphError, match="does not fit"):
        g.conv1d(g.input_node, w, g.param("b", np.ones(1)))


def test_duplicate_parameter_name_rejected():
    g = Graph(input_shape=(2,))
    g.param("w", np.ones((2, 2)))
    with pytest.raises(GraphError, match="duplicate parameter"):
        g.param("w", np.ones((2, 2)))


def test_backward_before_forward_rejected():
    g = build_mlp_regression()
    with pytest.raises(GraphError, match="prior forward"):
        g.backward(selector=np.full(1, 0))


def test_non_scalar_selection_rejected():
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    with pytest.raises(GraphError, match="non-scalar selection"):
        g.backward(selector="everything")
    with pytest.raises(GraphError, match="non-scalar selection"):
        g.backward(selector=np.ones((2, 2)))
    # a bare column index is not a per-row selection
    for column in (0, np.int64(0)):
        with pytest.raises(GraphError, match="non-scalar selection"):
            g.backward(selector=column)


def test_output_index_out_of_range():
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    with pytest.raises(GraphError, match="out of range"):
        g.backward(selector=np.full(2, 9))


@pytest.mark.parametrize("bad", [3, 5, -1])
def test_per_sample_selector_entries_are_range_checked(bad):
    """Every entry of a per-sample selector must name a column of the
    [N, 3] output; a negative one must not wrap to the last column."""
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    with pytest.raises(GraphError, match=f"output index {bad} out of range"):
        g.backward(selector=np.array([bad, 0]))
    with pytest.raises(GraphError, match=f"output index {bad} out of range"):
        g.backward(selector=np.array([0, bad]))


@pytest.mark.parametrize("selector, named", [
    (np.array([True, False]), "bool"),
    (np.array([0.6, 1.2]), "0.6"),
    (np.array([1.0, 2.5]), "2.5"),
    (np.array([0.0, np.nan]), "nan"),
    (np.array(["0", "1"]), "<U1"),
])
def test_a_selector_that_is_not_whole_numbers_is_refused(selector, named):
    """A per-row bool selector would read as columns [1, 0], and a
    fractional one would be truncated."""
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    with pytest.raises(GraphError, match=f"output indices must be whole numbers, got .*{named}"):
        g.backward(selector=selector)


def test_a_selector_of_whole_floats_reads_as_integers():
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    want = g.backward(selector=np.array([2, 0])).input
    assert g.backward(selector=np.array([2.0, 0.0])).input.tobytes() == want.tobytes()


@pytest.mark.parametrize("target, named", [
    (np.array([0.7, 1.9]), "0.7"),
    (np.array([0.0, 1.5]), "1.5"),
    (np.array([np.inf, 0.0]), "inf"),
    (np.array([True, False]), "bool"),
])
def test_a_class_target_that_is_not_whole_numbers_is_refused(target, named):
    """[0.7, 1.9] would be scored as classes [0, 1]."""
    m = build(ModelSpec(Architecture.MLP, width=4), grid_schema(2, 3, 3), seed=0)
    x = uniform(rng(0), (2, 2, 3))
    out = m.graph.forward(x)
    for call, batch in ((m.graph.loss_of, out), (m.graph.forward_loss, x)):
        with pytest.raises(GraphError, match=f"class indices must be whole numbers, got .*{named}"):
            call(batch, target)


@pytest.mark.parametrize("n_classes", [None, 3], ids=["regression", "classification"])
def test_the_loss_of_zero_rows_is_an_error(n_classes):
    """The mean over no rows would be a silent NaN."""
    m = build(ModelSpec(Architecture.MLP, width=4), grid_schema(2, 3, n_classes), seed=0)
    x = uniform(rng(0), (0, 2, 3))
    for call, batch in ((m.graph.loss_of, m.graph.forward(x)), (m.graph.forward_loss, x)):
        with pytest.raises(GraphError, match="zero rows has no mean loss"):
            call(batch, np.zeros(0))


def test_a_class_target_of_whole_floats_reads_as_integers():
    m = build(ModelSpec(Architecture.MLP, width=4), grid_schema(2, 3, 3), seed=0)
    out = m.graph.forward(uniform(rng(0), (3, 2, 3)))
    assert m.graph.loss_of(out, np.array([2.0, 0.0, 1.0])) == \
        m.graph.loss_of(out, np.array([2, 0, 1]))


def test_loss_selector_requires_target():
    g = build_mlp_regression()
    g.forward(rng(0).normal(size=(2, 5)).astype(DTYPE))
    with pytest.raises(GraphError, match="loss not computed"):
        g.backward(selector="loss")
    # an inference forward forgets the last forward_loss's target, which
    # would otherwise be differentiated against the new outputs
    g.forward_loss(rng(1).normal(size=(2, 5)).astype(DTYPE), np.zeros(2, DTYPE))
    g.forward(rng(2).normal(size=(2, 5)).astype(DTYPE))
    with pytest.raises(GraphError, match="loss not computed"):
        g.backward(selector="loss")


@pytest.mark.parametrize("shape", [(5, 1), (1,), (4,), (5, 5)])
@pytest.mark.parametrize("n_classes", [None, 3], ids=["regression", "classification"])
def test_target_must_have_one_entry_per_row(shape, n_classes):
    """A (5, 1) or (1,) target broadcasts against the batch and gives a wrong loss."""
    m = build(ModelSpec(Architecture.MLP, width=4), grid_schema(2, 3, n_classes), seed=0)
    x = uniform(rng(0), (5, 2, 3))
    m.graph.forward_loss(x, np.zeros(5))
    out = m.graph.forward(x)
    for call, batch in ((m.graph.forward_loss, x), (m.graph.loss_of, out)):
        with pytest.raises(GraphError, match=rf"target shape \({shape[0]},"):
            call(batch, np.zeros(shape))


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_cross_entropy_rejects_a_class_index_out_of_range(bad):
    """Index -1 would otherwise score the last class."""
    m = build(ModelSpec(Architecture.MLP, width=4), grid_schema(2, 3, 3), seed=0)
    x = uniform(rng(0), (5, 2, 3))
    target = np.array([0, 1, 2, 1, bad])
    with pytest.raises(GraphError, match=r"class indices must lie in \[0, 3\)"):
        m.graph.forward_loss(x, target)


def test_input_batch_shape_validated():
    g = build_mlp_regression()
    with pytest.raises(GraphError, match="does not match slot"):
        g.forward(np.ones((2, 4), dtype=DTYPE))
