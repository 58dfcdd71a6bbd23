"""Differentiation engine tests: hand oracles, finite differences, modes."""

import numpy as np
import pytest
from conftest import draw_clean_input, finite_difference_check

from roarsel.data import Task
from roarsel.engine import DTYPE, Graph, _keep
from roarsel.models import Architecture, Head, ModelSpec, build
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
    g.mark_output(g.conv1d(g.input_node, w))
    out = g.forward(np.array([[[1.0], [2.0], [3.0]]]))
    np.testing.assert_array_equal(out, np.array([[[3.0], [5.0]]], dtype=DTYPE))


def test_conv1d_hand_oracle_padded():
    # same input with one zero on each side -> [1, 3, 5, 3]
    g = Graph(input_shape=(3, 1))
    w = g.param("w", np.array([[[1.0]], [[1.0]]]))
    g.mark_output(g.conv1d(g.input_node, w, padding=1))
    out = g.forward(np.array([[[1.0], [2.0], [3.0]]]))
    np.testing.assert_array_equal(out, np.array([[[1.0], [3.0], [5.0], [3.0]]], dtype=DTYPE))


def test_conv1d_stride_two():
    # windows start at t = 0 and t = 2
    g = Graph(input_shape=(5, 1))
    w = g.param("w", np.array([[[1.0]], [[1.0]]]))
    g.mark_output(g.conv1d(g.input_node, w, stride=2))
    out = g.forward(np.arange(5, dtype=DTYPE).reshape(1, 5, 1))
    np.testing.assert_array_equal(out.ravel(), [1.0, 5.0])


def test_matmul_gradients_linear_form():
    # f(x) = 2 x0 + 3 x1: input grad is the weight, weight grad is the input
    g = Graph(input_shape=(2,))
    w = g.param("w", np.array([[2.0], [3.0]]))
    g.mark_output(g.matmul(g.input_node, w))
    x = np.array([[5.0, 7.0]])
    g.forward(x)
    grads = g.backward(selector=0)
    np.testing.assert_array_equal(grads.input, [[2.0, 3.0]])
    np.testing.assert_array_equal(grads.params["w"], [[5.0], [7.0]])


def test_maxpool_forward_and_gradient_routing():
    g = Graph(input_shape=(4, 1))
    pooled = g.max_pool1d(g.input_node, width=2, stride=2)
    g.mark_output(g.flatten(pooled))
    x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
    out = g.forward(x)
    np.testing.assert_array_equal(out.ravel(), [3.0, 5.0])
    g.forward(x)
    grad0 = g.backward(selector=0).input
    # gradient of the first pooled value flows only to its max position
    np.testing.assert_array_equal(grad0.ravel(), [0.0, 1.0, 0.0, 0.0])
    g.forward(x)
    grad1 = g.backward(selector=1).input
    np.testing.assert_array_equal(grad1.ravel(), [0.0, 0.0, 0.0, 1.0])


def test_maxpool_tie_goes_to_first_position():
    g = Graph(input_shape=(2, 1))
    g.mark_output(g.flatten(g.max_pool1d(g.input_node, width=2)))
    g.forward(np.array([[[4.0], [4.0]]]))
    grads = g.backward(selector=0)
    np.testing.assert_array_equal(grads.input.ravel(), [1.0, 0.0])


def test_softmax_cross_entropy_hand_value():
    g = Graph(input_shape=(2,))
    w = g.param("w", np.eye(2))
    out = g.matmul(g.input_node, w)
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    loss = g.forward_loss(np.array([[1.0, 2.0]]), target=np.array([1]))
    # hand-computed: log(1 + e^-1) = 0.31326169
    assert loss == pytest.approx(0.31326169, rel=1e-5)


def test_mean_squared_error_hand_value():
    g = Graph(input_shape=(1,))
    w = g.param("w", np.eye(1))
    out = g.matmul(g.input_node, w)
    g.mark_output(out)
    g.mean_squared_error(out)
    loss = g.forward_loss(np.array([[1.0], [2.0]]), target=np.array([3.0, 5.0]))
    assert loss == pytest.approx(6.5, rel=1e-6)


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
    g.mark_output(g.matmul(g.slice_time(g.input_node, 1), w))
    g.forward(np.ones((2, 3, 2), dtype=DTYPE))
    grads = g.backward(selector=0)
    expected = np.zeros((2, 3, 2), dtype=DTYPE)
    expected[:, 1, :] = 1.0
    np.testing.assert_array_equal(grads.input, expected)


# -- guided mode -------------------------------------------------------------


def test_guided_zeroes_negative_upstream_gradient():
    """f(x) = -relu(x) at x = 1: standard gradient -1, guided 0."""
    g = Graph(input_shape=(1,))
    g.mark_output(g.affine(g.relu(g.input_node), scale=-1.0))
    x = np.array([[1.0]])
    g.forward(x)
    assert g.backward(selector=0).input.item() == pytest.approx(-1.0)
    g.forward(x)
    assert g.backward_guided(selector=0).item() == 0.0


def test_guided_zeroes_non_positive_forward_input():
    """f(x) = relu(-x) at x = 1: forward input to relu is -1, both modes 0."""
    g = Graph(input_shape=(1,))
    g.mark_output(g.relu(g.affine(g.input_node, scale=-1.0)))
    x = np.array([[1.0]])
    g.forward(x)
    assert g.backward(selector=0).input.item() == 0.0
    g.forward(x)
    assert g.backward_guided(selector=0).item() == 0.0


def test_guided_passes_positive_path():
    # positive forward input and positive upstream gradient flow unchanged
    g = Graph(input_shape=(1,))
    g.mark_output(g.affine(g.relu(g.input_node), scale=2.0))
    g.forward(np.array([[3.0]]))
    assert g.backward_guided(selector=0).item() == pytest.approx(2.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guided_equals_standard_without_relu(seed):
    """The guided rule touches relu only, so relu-free graphs agree."""
    r = rng(seed)
    g = Graph(input_shape=(6,))
    w1 = g.param("w1", uniform(r, (6, 5)))
    b1 = g.param("b1", uniform(r, (5,)))
    w2 = g.param("w2", uniform(r, (5, 3)))
    h = g.tanh(g.add(g.matmul(g.input_node, w1), b1))
    g.mark_output(g.matmul(g.sigmoid(h), w2))
    x = uniform(r, (4, 6), -2, 2)
    g.forward(x)
    standard = g.backward(selector=1).input
    g.forward(x)
    guided = g.backward_guided(selector=1)
    np.testing.assert_array_equal(standard, guided)


def test_guided_differs_from_standard_with_relu():
    r = rng(7)
    g = Graph(input_shape=(4,))
    w1 = g.param("w1", uniform(r, (4, 8)))
    w2 = g.param("w2", uniform(r, (8, 2)))
    g.mark_output(g.matmul(g.relu(g.matmul(g.input_node, w1)), w2))
    x = uniform(r, (16, 4), -2, 2)
    g.forward(x)
    standard = g.backward(selector=0).input
    g.forward(x)
    guided = g.backward_guided(selector=0)
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
    h1 = g.relu(g.add(g.matmul(h0, g.param("w1", w1)), g.param("b1", b1)))
    h2 = g.relu(g.matmul(h1, g.param("w2", w2)))
    g.mark_output(g.matmul(h2, g.param("w3", w3)))
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
@pytest.mark.parametrize("head", [Head(Task.REGRESSION),
                                  Head(Task.CLASSIFICATION, n_classes=3)],
                         ids=["regression", "classification"])
def test_backward_gradients_are_float32(arch, head):
    """Backward keeps each first gradient as the kernel returned it, so every
    kernel must return float32."""
    spec = ModelSpec(arch, head, width=8, channels=4, dense_size=8,
                     hidden_size=4, kernel_size=3, dropout=0.25)
    m = build(spec, 5, 3, seed=0)
    r = rng(1)
    x = uniform(r, (6, 5, 3), -2, 2)
    target = (r.integers(0, 3, size=6) if head.task is Task.CLASSIFICATION
              else uniform(r, (6,)))
    masks = {k: np.ones((6, *s), DTYPE) for k, s in m.graph.mask_shapes.items()}
    m.graph.forward_loss(x, target, masks=masks)
    grads = m.graph.backward("loss")
    assert grads.input.dtype == DTYPE
    assert {k: v.dtype for k, v in grads.params.items()} == {
        k: DTYPE for k in m.graph.params}


# -- finite differences ------------------------------------------------------


def build_mlp_regression(seed=0):
    r = rng(seed)
    g = Graph(input_shape=(5,))
    w1 = g.param("w1", uniform(r, (5, 7)))
    b1 = g.param("b1", uniform(r, (7,)))
    w2 = g.param("w2", uniform(r, (7, 1)))
    h = g.relu(g.add(g.matmul(g.input_node, w1), b1))
    out = g.matmul(h, w2)
    g.mark_output(out)
    g.mean_squared_error(out)
    return g


def build_conv_classifier(seed=1):
    r = rng(seed)
    g = Graph(input_shape=(6, 2))
    k = g.param("k", uniform(r, (3, 2, 4)))
    bk = g.param("bk", uniform(r, (4,)))
    w = g.param("w", uniform(r, (8, 3)))
    h = g.tanh(g.add(g.conv1d(g.input_node, k, padding=1), bk))
    pooled = g.max_pool1d(h, width=3, stride=3)
    out = g.matmul(g.flatten(pooled), w)
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    return g


def build_recurrent_cell(seed=2):
    """Two unrolled tanh steps; weight tensors are reused across steps."""
    r = rng(seed)
    g = Graph(input_shape=(2, 3))
    wx = g.param("wx", uniform(r, (3, 4)))
    wh = g.param("wh", uniform(r, (4, 4)))
    b = g.param("b", uniform(r, (4,)))
    wo = g.param("wo", uniform(r, (4, 1)))
    h1 = g.tanh(g.add(g.matmul(g.slice_time(g.input_node, 0), wx), b))
    pre = g.add(g.matmul(g.slice_time(g.input_node, 1), wx), g.matmul(h1, wh))
    h2 = g.tanh(g.add(pre, b))
    out = g.matmul(h2, wo)
    g.mark_output(out)
    g.mean_squared_error(out)
    return g


def test_finite_difference_mlp_loss():
    g = build_mlp_regression()
    target = np.array([0.3, -0.2, 0.8], dtype=DTYPE)
    x = draw_clean_input(g, (3, 5), seed=10, target=target)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor
    assert report.max_rel_error <= 1e-3


def test_finite_difference_conv_classifier_loss():
    g = build_conv_classifier()
    target = np.array([0, 2])
    x = draw_clean_input(g, (2, 6, 2), seed=11, target=target)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor


def test_finite_difference_recurrent_cell_loss():
    """Reused parameter tensors accumulate gradients across time steps."""
    g = build_recurrent_cell()
    target = np.array([0.1, -0.4], dtype=DTYPE)
    x = draw_clean_input(g, (2, 2, 3), seed=12, target=target)
    report = finite_difference_check(g, x, target=target)
    assert report.passed, report.per_tensor


def test_finite_difference_output_column_selector():
    g = build_conv_classifier(seed=3)
    x = draw_clean_input(g, (2, 6, 2), seed=13)
    report = finite_difference_check(g, x, selector=1)
    assert report.passed, report.per_tensor


def test_per_sample_selector_matches_columns():
    g = build_conv_classifier(seed=4)
    x = rng(14).normal(size=(3, 6, 2)).astype(DTYPE)
    g.forward(x)
    picked = g.backward(selector=np.array([0, 2, 1])).input
    by_col = []
    for col in range(3):
        g.forward(x)
        by_col.append(g.backward(selector=col).input)
    np.testing.assert_array_equal(picked[0], by_col[0][0])
    np.testing.assert_array_equal(picked[1], by_col[2][1])
    np.testing.assert_array_equal(picked[2], by_col[1][2])


# -- masks -------------------------------------------------------------------


def test_mask_defaults_to_ones():
    g = Graph(input_shape=(3,))
    m = g.mask_input("drop0", (3,))
    g.mark_output(g.mul(g.input_node, m))
    x = rng(0).normal(size=(4, 3)).astype(DTYPE)
    default = g.forward(x)
    explicit = g.forward(x, masks={"drop0": np.ones((4, 3), dtype=DTYPE)})
    np.testing.assert_array_equal(default, explicit)
    np.testing.assert_array_equal(default, x)


def test_mask_zero_blocks_gradient():
    g = Graph(input_shape=(2,))
    m = g.mask_input("drop0", (2,))
    w = g.param("w", np.ones((2, 1)))
    g.mark_output(g.matmul(g.mul(g.input_node, m), w))
    x = np.ones((1, 2), dtype=DTYPE)
    mask = np.array([[1.0, 0.0]], dtype=DTYPE)
    g.forward(x, masks={"drop0": mask})
    grads = g.backward(selector=0)
    np.testing.assert_array_equal(grads.input, [[1.0, 0.0]])


# -- determinism and isolation -----------------------------------------------


def test_forward_is_pure():
    g = build_conv_classifier(seed=5)
    x = rng(20).normal(size=(8, 6, 2)).astype(DTYPE)
    first = g.forward(x).copy()
    g.backward(selector=0)
    second = g.forward(x)
    assert first.tobytes() == second.tobytes()


# -- error handling ----------------------------------------------------------


def test_shape_mismatch_rejected_at_build_time():
    g = Graph(input_shape=(3,))
    w = g.param("w", np.ones((4, 2)))
    with pytest.raises(GraphError, match="matmul shape mismatch"):
        g.matmul(g.input_node, w)


def test_add_shape_mismatch_rejected():
    g = Graph(input_shape=(3,))
    other = g.param("b", np.ones((2,)))
    with pytest.raises(GraphError, match="add shape mismatch"):
        g.add(g.input_node, other)


def test_conv_kernel_longer_than_input_rejected():
    g = Graph(input_shape=(2, 1))
    w = g.param("w", np.ones((5, 1, 1)))
    with pytest.raises(GraphError, match="does not fit"):
        g.conv1d(g.input_node, w)


def test_duplicate_parameter_name_rejected():
    g = Graph(input_shape=(2,))
    g.param("w", np.ones((2, 2)))
    with pytest.raises(GraphError, match="duplicate parameter"):
        g.param("w", np.ones((2, 2)))


def test_backward_before_forward_rejected():
    g = build_mlp_regression()
    with pytest.raises(GraphError, match="prior forward"):
        g.backward(selector=0)


def test_non_scalar_selection_rejected():
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    with pytest.raises(GraphError, match="non-scalar selection"):
        g.backward(selector="everything")
    with pytest.raises(GraphError, match="non-scalar selection"):
        g.backward(selector=np.ones((2, 2)))


def test_output_index_out_of_range():
    g = build_conv_classifier()
    g.forward(rng(0).normal(size=(2, 6, 2)).astype(DTYPE))
    with pytest.raises(GraphError, match="out of range"):
        g.backward(selector=9)


def test_loss_selector_requires_target():
    g = build_mlp_regression()
    g.forward(rng(0).normal(size=(2, 5)).astype(DTYPE))
    with pytest.raises(GraphError, match="loss not computed"):
        g.backward(selector="loss")


def test_input_batch_shape_validated():
    g = build_mlp_regression()
    with pytest.raises(GraphError, match="does not match slot"):
        g.forward(np.ones((2, 4), dtype=DTYPE))
