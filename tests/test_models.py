"""Architecture builders: shape contracts, determinism, resize rules."""

import gc
import weakref

import numpy as np
import pytest
from conftest import grid_schema

from roarsel.engine import DTYPE
from roarsel import models
from roarsel.errors import BuildError
from roarsel.models import (
    Architecture,
    ModelSpec,
    build,
    resize_for_input,
)

CLASSES = 4  # the class count of every classification schema here

SMALL = dict(width=8, channels=6, dense_size=16, hidden_size=8)


def batch(t, b, n=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, t, b)).astype(DTYPE)


# -- shape contracts ---------------------------------------------------------


def test_mlp_first_layer_fan_in_is_flattened_input():
    # 12 steps x 18 bands -> 216 inputs
    m = build(ModelSpec(Architecture.MLP), grid_schema(12, 18, CLASSES), seed=0)
    assert m.graph.params["layer0/w"].shape == (216, 128)


def test_mlp_fan_in_shrinks_after_band_deletion():
    # deleting one of 18 bands leaves 12 * 17 = 204 inputs
    m = resize_for_input(ModelSpec(Architecture.MLP), grid_schema(12, 17, CLASSES), seed=0)
    assert m.graph.params["layer0/w"].shape == (204, 128)


def test_tempcnn_default_output_matches_head():
    m = build(ModelSpec(Architecture.TEMPCNN), grid_schema(12, 18, CLASSES), seed=0)
    out = m.graph.forward(batch(12, 18))
    assert out.shape == (3, 4)
    assert m.graph.params["conv0/w"].shape == (5, 18, 64)
    assert m.graph.params["conv1/w"].shape == (5, 64, 64)
    assert m.graph.params["dense/w"].shape == (12 * 64, 256)


def test_tempcnn_resize_adjusts_first_conv_channels():
    m = resize_for_input(ModelSpec(Architecture.TEMPCNN), grid_schema(12, 17, CLASSES), seed=1)
    assert m.graph.params["conv0/w"].shape == (5, 17, 64)
    assert m.graph.forward(batch(12, 17)).shape == (3, 4)


@pytest.mark.parametrize("arch", list(Architecture))
def test_regression_head_outputs_one_value(arch):
    spec = ModelSpec(arch, **SMALL)
    m = build(spec, grid_schema(6, 3), seed=2)
    out = m.graph.forward(batch(6, 3))
    assert out.shape == (3, 1)
    assert m.graph.loss is not None


# -- determinism and weight freshness ----------------------------------------


@pytest.mark.parametrize("arch", list(Architecture))
def test_same_seed_gives_bit_identical_parameters(arch):
    spec = ModelSpec(arch, **SMALL)
    a = build(spec, grid_schema(6, 5, CLASSES), seed=123)
    b_ = build(spec, grid_schema(6, 5, CLASSES), seed=123)
    assert sorted(a.graph.params) == sorted(b_.graph.params)
    for name in a.graph.params:
        assert a.graph.params[name].tobytes() == b_.graph.params[name].tobytes()


@pytest.mark.parametrize("arch", list(Architecture))
def test_different_seeds_differ_in_every_tensor(arch):
    """Resize never reuses weights: distinct seeds disagree everywhere."""
    spec = ModelSpec(arch, **SMALL)
    a = resize_for_input(spec, grid_schema(6, 5, CLASSES), seed=1)
    b_ = resize_for_input(spec, grid_schema(6, 5, CLASSES), seed=2)
    for name in a.graph.params:
        assert not np.array_equal(a.graph.params[name], b_.graph.params[name]), name


# -- kernel rules ------------------------------------------------------------


def test_build_rejects_kernel_longer_than_input():
    with pytest.raises(BuildError, match="kernel 5 larger than input length 3"):
        build(ModelSpec(Architecture.TEMPCNN), grid_schema(3, 4, CLASSES), seed=0)


@pytest.mark.parametrize("t, clamps", [
    (3, ["kernel clamped from 5 to 3 for input length 3"]),
    # kernel 4 pads by 1, so the 4 steps conv0 fits leave 3 for conv1
    (4, ["kernel clamped from 5 to 4 for input length 4",
         "kernel clamped from 4 to 3 for input length 3"]),
])
def test_resize_clamps_kernel_with_warning(t, clamps):
    spec = ModelSpec(Architecture.TEMPCNN, **SMALL)
    with pytest.warns(UserWarning) as record:
        m = resize_for_input(spec, grid_schema(t, 4, CLASSES), seed=0)
    assert [str(w.message) for w in record] == clamps  # one per clamp
    assert {w.filename for w in record} == {__file__}  # the caller's line
    assert m.graph.params["conv0/w"].shape[0] == min(t, 5)
    assert m.graph.forward(batch(t, 4)).shape == (3, 4)


def test_an_even_kernel_is_fitted_at_every_layer():
    """Kernel 4 fits T=4, but its padding of 1 leaves 3 steps for conv1."""
    spec = ModelSpec(Architecture.TEMPCNN, kernel_size=4, channels=3, dense_size=4)
    schema = grid_schema(4, 2)
    with pytest.raises(BuildError, match="kernel 4 larger than input length 3 at conv1"):
        build(spec, schema, 0)
    with pytest.warns(UserWarning) as record:
        m = resize_for_input(spec, schema, 0)
    assert [str(w.message) for w in record] == ["kernel clamped from 4 to 3 for input length 3"]
    assert [m.graph.params[f"conv{i}/w"].shape[0] for i in range(3)] == [4, 3, 3]
    assert m.graph.forward(batch(4, 2)).shape == (3, 1)


def test_resize_handles_single_step_input():
    spec = ModelSpec(Architecture.TEMPCNN, **SMALL)
    with pytest.warns(UserWarning):
        m = resize_for_input(spec, grid_schema(1, 2, CLASSES), seed=0)
    assert m.graph.forward(batch(1, 2)).shape == (3, 4)


# -- shape fuzz --------------------------------------------------------------


@pytest.mark.parametrize("arch", list(Architecture))
def test_shape_fuzz_build_and_forward(arch):
    """Random (T, B) in [1..64]^2: forward succeeds, output matches head."""
    r = np.random.default_rng(99)
    pairs = [(1, 1), (1, 64), (64, 1)] + [
        (int(r.integers(1, 65)), int(r.integers(1, 65))) for _ in range(5)
    ]
    for t, b in pairs:
        kwargs = dict(SMALL)
        if arch is Architecture.TEMPCNN:
            kwargs["kernel_size"] = min(5, t)
        m = build(ModelSpec(arch, **kwargs), grid_schema(t, b, CLASSES), seed=7)
        out = m.graph.forward(batch(t, b, n=2, seed=t * 64 + b))
        assert out.shape == (2, 4), (arch, t, b)


# -- recurrent cell semantics ------------------------------------------------


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v.astype(np.float64)))


# the engine's documented gate column order: sigmoid gates first, tanh last
COLUMNS = {"rnn": "h", "lstm": "ifog", "gru": "zrn"}


def gate_blocks(p, prefix, cell):
    """Per-gate ``wx``, ``wh`` and ``b`` sliced out of the fused tensors."""
    hid = p[f"{prefix}/wh"].shape[0]
    return {
        gate: {name: p[f"{prefix}/{name}"][..., j * hid:(j + 1) * hid]
               for name in ("wx", "wh", "b")}
        for j, gate in enumerate(COLUMNS[cell])
    }


def test_gru_follows_update_gate_convention():
    """h2 = (1 - z2) h1 + z2 n2, candidate gated by the reset product."""
    spec = ModelSpec(Architecture.GRU, hidden_size=3)
    m = build(spec, grid_schema(2, 2), seed=5)
    p = m.graph.params
    q = gate_blocks(p, "cell0", "gru")
    x = batch(2, 2, n=1, seed=11)
    x1, x2 = x[0, 0], x[0, 1]

    z1 = sigmoid(x1 @ q["z"]["wx"] + q["z"]["b"])
    n1 = np.tanh(x1 @ q["n"]["wx"] + q["n"]["b"])
    h1 = z1 * n1
    z2 = sigmoid(x2 @ q["z"]["wx"] + h1 @ q["z"]["wh"] + q["z"]["b"])
    r2 = sigmoid(x2 @ q["r"]["wx"] + h1 @ q["r"]["wh"] + q["r"]["b"])
    n2 = np.tanh(x2 @ q["n"]["wx"] + r2 * (h1 @ q["n"]["wh"]) + q["n"]["b"])
    h2 = (1.0 - z2) * h1 + z2 * n2
    expected = h2 @ p["head/w"] + p["head/b"]

    np.testing.assert_allclose(m.graph.forward(x).ravel(), expected.ravel(), rtol=1e-5, atol=1e-6)


def test_lstm_cell_state_recurrence():
    spec = ModelSpec(Architecture.LSTM, hidden_size=3)
    m = build(spec, grid_schema(2, 2), seed=6)
    p = m.graph.params
    q = gate_blocks(p, "cell0", "lstm")
    x = batch(2, 2, n=1, seed=12)
    x1, x2 = x[0, 0], x[0, 1]

    def gates(xv, h):
        pre = {}
        for gate in ("i", "f", "g", "o"):
            v = xv @ q[gate]["wx"] + q[gate]["b"]
            if h is not None:
                v = v + h @ q[gate]["wh"]
            pre[gate] = v
        return pre

    g1 = gates(x1, None)
    c1 = sigmoid(g1["i"]) * np.tanh(g1["g"])
    h1 = sigmoid(g1["o"]) * np.tanh(c1)
    g2 = gates(x2, h1)
    c2 = sigmoid(g2["f"]) * c1 + sigmoid(g2["i"]) * np.tanh(g2["g"])
    h2 = sigmoid(g2["o"]) * np.tanh(c2)
    expected = h2 @ p["head/w"] + p["head/b"]

    np.testing.assert_allclose(m.graph.forward(x).ravel(), expected.ravel(), rtol=1e-5, atol=1e-6)


def reference_lstm(xs, q):
    """All hidden states of one sample's [T, in] sequence, from zero state."""
    h = c = np.zeros(q["i"]["wh"].shape[0])
    out = []
    for xv in xs:
        pre = {gate: xv @ q[gate]["wx"] + h @ q[gate]["wh"] + q[gate]["b"]
               for gate in ("i", "f", "g", "o")}
        c = sigmoid(pre["f"]) * c + sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = sigmoid(pre["o"]) * np.tanh(c)
        out.append(h)
    return np.array(out)


def reference_gru(xs, q):
    h = np.zeros(q["z"]["wh"].shape[0])
    out = []
    for xv in xs:
        z = sigmoid(xv @ q["z"]["wx"] + h @ q["z"]["wh"] + q["z"]["b"])
        r = sigmoid(xv @ q["r"]["wx"] + h @ q["r"]["wh"] + q["r"]["b"])
        n = np.tanh(xv @ q["n"]["wx"] + r * (h @ q["n"]["wh"]) + q["n"]["b"])
        h = (1.0 - z) * h + z * n
        out.append(h)
    return np.array(out)


@pytest.mark.parametrize("arch, reference", [(Architecture.LSTM, reference_lstm),
                                             (Architecture.GRU, reference_gru)],
                         ids=["lstm", "gru"])
def test_stacked_cells_match_the_reference_recurrence(arch, reference):
    """Depth 2: the second layer reads every hidden state of the first."""
    spec = ModelSpec(arch, depth=2, hidden_size=3)
    m = build(spec, grid_schema(4, 2), seed=13)
    p = m.graph.params
    x = batch(4, 2, n=3, seed=14)
    expected = []
    for xs in x:
        h = reference(reference(xs, gate_blocks(p, "cell0", arch.value)),
                      gate_blocks(p, "cell1", arch.value))
        expected.append(h[-1] @ p["head/w"] + p["head/b"])

    np.testing.assert_allclose(m.graph.forward(x).ravel(), np.ravel(expected),
                               rtol=1e-5, atol=1e-6)


def test_stacked_recurrent_layers():
    spec = ModelSpec(Architecture.RNN, depth=2, hidden_size=4)
    m = build(spec, grid_schema(3, 2, CLASSES), seed=8)
    assert "cell0/wx" in m.graph.params and "cell1/wx" in m.graph.params
    assert m.graph.params["cell1/wx"].shape == (4, 4)
    assert m.graph.forward(batch(3, 2)).shape == (3, 4)


@pytest.mark.parametrize("arch", [Architecture.RNN, Architecture.LSTM, Architecture.GRU])
def test_fused_cell_tensors_hold_the_per_gate_draws(arch):
    """Each gate draws wx, wh and b in turn, in the order h / i f g o / z r n,
    and the fused tensors lay them out in column order; the head draws last."""
    cell, in_dim, hid, seed = arch.value, 5, 4, 21
    m = build(ModelSpec(arch, depth=2, hidden_size=hid), grid_schema(3, in_dim, CLASSES),
              seed=seed)
    p = m.graph.params
    rng = np.random.default_rng(np.random.SeedSequence([seed]))

    def draw(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape).astype(DTYPE)

    for layer in range(2):
        q = gate_blocks(p, f"cell{layer}", cell)
        for gate in {"rnn": "h", "lstm": "ifgo", "gru": "zrn"}[cell]:
            assert draw((in_dim, hid), in_dim).tobytes() == q[gate]["wx"].tobytes()
            assert draw((hid, hid), hid).tobytes() == q[gate]["wh"].tobytes()
            assert draw((hid,), in_dim).tobytes() == q[gate]["b"].tobytes()
        in_dim = hid
    assert draw((hid, 4), hid).tobytes() == p["head/w"].tobytes()
    k = len(COLUMNS[cell])
    per_gate = (5 * hid + hid * hid + hid) + (hid * hid + hid * hid + hid)
    assert m.n_params == k * per_gate + hid * 4 + 4


def test_single_step_recurrent_input():
    for arch in (Architecture.RNN, Architecture.LSTM, Architecture.GRU):
        m = build(ModelSpec(arch, hidden_size=4), grid_schema(1, 3), seed=9)
        assert m.graph.forward(batch(1, 3)).shape == (3, 1)


# -- dropout masks -----------------------------------------------------------


def test_dropout_masks_empty_for_zero_rate():
    """At rate zero a model has no mask slot, so a training forward draws
    nothing from its generator and equals an inference forward."""
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(4, 2, CLASSES), seed=0)
    assert m.graph.mask_shapes == {}
    x = batch(4, 2)
    r = np.random.default_rng(0)
    state = r.bit_generator.state
    assert m.graph.forward(x, r).tobytes() == m.graph.forward(x).tobytes()
    assert r.bit_generator.state == state


def test_dropout_masks_are_inverted_scaled():
    spec = ModelSpec(Architecture.MLP, dropout=0.5, **SMALL)
    m = build(spec, grid_schema(4, 2, CLASSES), seed=0)
    assert list(m.graph.mask_shapes) == ["drop0", "drop1"]
    m.graph.forward(batch(4, 2, n=200), np.random.default_rng(3))
    masks = [m.graph._cache[n.idx] for n in m.graph.nodes if n.op == "mask"]
    assert len(masks) == 2
    for mask in masks:
        assert mask.shape == (200, 8)
        assert mask.dtype == DTYPE
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert 0.3 < (mask > 0).mean() < 0.7


@pytest.mark.parametrize("arch", list(Architecture))
def test_dropout_changes_training_forward_only(arch):
    # one mask slot per dropout site: each MLP hidden layer, else one
    sites = 2 if arch is Architecture.MLP else 1
    assert build(ModelSpec(arch, **SMALL), grid_schema(6, 2), seed=0).graph.mask_shapes == {}
    spec = ModelSpec(arch, dropout=0.3, **SMALL)
    m = build(spec, grid_schema(6, 2), seed=0)
    assert sorted(m.graph.mask_shapes) == [f"drop{i}" for i in range(sites)]
    x = batch(6, 2)
    eval_out = m.graph.forward(x)
    train_out = m.graph.forward(x, np.random.default_rng(1))
    assert not np.array_equal(eval_out, train_out)
    np.testing.assert_array_equal(m.graph.forward(x), eval_out)


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("n_classes", [None, CLASSES], ids=["regression", "classification"])
def test_dropout_leaves_inference_bytes_unchanged(arch, n_classes):
    """Inverted dropout is the identity outside training: a dropout model's
    ``infer`` gives the bytes of the same spec and seed at rate zero."""
    schema = grid_schema(6, 2, n_classes)
    x = batch(6, 2, n=300, seed=4)
    plain = build(ModelSpec(arch, **SMALL), schema, seed=3)
    dropped = build(ModelSpec(arch, dropout=0.4, **SMALL), schema, seed=3)
    assert dropped.graph.mask_shapes and not plain.graph.mask_shapes
    assert dropped.infer(x).tobytes() == plain.infer(x).tobytes()


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("n_classes", [None, CLASSES], ids=["regression", "classification"])
def test_zero_rows_give_the_empty_output(arch, n_classes):
    """A zero-row batch forwards like any other: ``flatten`` and conv1d
    reshape to their static sizes, and ``infer`` returns the empty output."""
    m = build(ModelSpec(arch, dropout=0.2, kernel_size=3, **SMALL),
              grid_schema(6, 2, n_classes), seed=0)
    empty = (0, n_classes or 1)
    x = batch(6, 2, n=0)
    for out in (m.graph.forward(x), m.infer(x)):
        assert out.shape == empty and out.dtype == DTYPE


@pytest.mark.parametrize("arch", list(Architecture))
def test_used_model_is_freed_without_the_cyclic_collector(arch):
    """Kernels never reference their Graph, so no reference cycle keeps a
    trained-on model and its activation cache alive after the last use."""
    m = build(ModelSpec(arch, **SMALL), grid_schema(6, 2, CLASSES), seed=0)
    m.graph.forward_loss(batch(6, 2), np.array([0, 1, 3]))
    m.graph.backward("loss")
    m.graph.backward_guided(np.array([2, 0, 1]))
    ref = weakref.ref(m.graph)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


# -- spec plumbing -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(BuildError, match="width must be positive"):
        ModelSpec(Architecture.MLP, width=0)
    with pytest.raises(BuildError, match="dropout rate"):
        ModelSpec(Architecture.MLP, dropout=1.0)
    with pytest.raises(BuildError, match="depth must be positive"):
        ModelSpec(Architecture.MLP, depth=0)


# Each of these asks for more than intp's maximum number of bytes, which
# NumPy refuses before it allocates anything.
@pytest.mark.parametrize("arch, size", [
    (Architecture.MLP, dict(width=10**18)),
    (Architecture.MLP, dict(width=10**19)),
    (Architecture.GRU, dict(hidden_size=10**18)),
    (Architecture.TEMPCNN, dict(channels=10**18)),
], ids=["mlp-too-big", "mlp-dimension", "gru", "tempcnn"])
def test_a_parameter_too_large_to_allocate_is_a_build_error(arch, size):
    with pytest.raises(BuildError, match=r"cannot allocate a parameter of shape \("):
        build(ModelSpec(arch, **size), grid_schema(8, 3), seed=0)


def test_an_exhausted_allocation_is_a_build_error_naming_the_shape():
    class Exhausted:
        def uniform(self, *args, **kwargs):
            raise MemoryError("Unable to allocate 8.73 TiB")

    with pytest.raises(BuildError, match=r"shape \(12, 5\): Unable to allocate"):
        models._init(Exhausted(), (12, 5), 12)


def test_default_depths():
    assert ModelSpec(Architecture.MLP).resolved_depth == 2
    assert ModelSpec(Architecture.TEMPCNN).resolved_depth == 3
    assert ModelSpec(Architecture.GRU).resolved_depth == 1
    assert ModelSpec(Architecture.MLP, depth=5).resolved_depth == 5
