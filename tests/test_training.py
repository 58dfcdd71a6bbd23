"""Training loop, metrics, and the selection harness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import ORACLE_LOSSES, grid_schema, linear

from roarsel import engine, training
from roarsel.data import SplitTriple, Task, TensorDataset, default_schema
from roarsel.engine import DTYPE, Graph
from roarsel.errors import TrainingDiverged, TrainingError
from roarsel.models import TILE, Architecture, Model, ModelSpec, build, macs_per_row
from roarsel.training import (
    BETA1,
    BETA2,
    EPS,
    MetricKind,
    TrainConfig,
    _Adam,
    default_grid,
    evaluate,
    select_model,
    split_loss,
    train,
)

SMALL = dict(width=8, channels=6, dense_size=16, hidden_size=8)


def regression_dataset(values, targets, t=1, b=1):
    n = len(targets)
    schema = default_schema(n_timesteps=t, n_bands=b, task=Task.REGRESSION)
    return TensorDataset(
        schema=schema,
        values=np.asarray(values, dtype=DTYPE).reshape(n, t, b),
        targets=np.asarray(targets, dtype=DTYPE),
        years=np.full(n, 2020, dtype=np.int64),
    )


def separable_splits(n=64, t=2, b=3, seed=0):
    """Class 1 iff the first feature is positive, with a wide margin."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, t, b)).astype(DTYPE)
    y = (r.random(n) < 0.5).astype(np.int64)
    x[:, 0, 0] = np.where(y == 1, 2.0, -2.0) + r.normal(scale=0.1, size=n)
    schema = default_schema(t, b, Task.CLASSIFICATION, n_classes=2)
    years = np.full(n, 2020, dtype=np.int64)
    half = n // 2
    d = TensorDataset(schema, x, y, years)
    return d.take(np.arange(half)), d.take(np.arange(half, n))


def task_splits(task):
    """Separable classification splits, or a regression pair on one grid."""
    if task is Task.CLASSIFICATION:
        return separable_splits()
    r = np.random.default_rng(0)
    x = r.normal(size=(64, 2, 3))
    d = regression_dataset(x, x[:, 0, 0] + 0.1 * r.normal(size=64), t=2, b=3)
    return d.take(np.arange(32)), d.take(np.arange(32, 64))


def passthrough_model() -> Model:
    """Regression model whose prediction is exactly its single input value."""
    g = Graph(input_shape=(1, 1))
    w = g.param("w", np.eye(1))
    out = linear(g, g.flatten(g.input_node), w)
    g.mark_output(out)
    g.mean_squared_error(out)
    spec = ModelSpec(Architecture.MLP)
    return Model(spec=spec, graph=g, task=Task.REGRESSION)


# -- evaluate ----------------------------------------------------------------


def test_r2_perfect_fit_is_one():
    d = regression_dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    metric = evaluate(passthrough_model(), d)
    assert metric.kind is MetricKind.R2
    assert metric.value == pytest.approx(1.0)


def test_r2_mean_predictor_is_zero():
    d = regression_dataset([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert evaluate(passthrough_model(), d).value == pytest.approx(0.0)


def test_r2_hand_case_is_half():
    # SSres = 1, SStot = 2
    d = regression_dataset([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
    assert evaluate(passthrough_model(), d).value == pytest.approx(0.5)


def test_r2_constant_targets_rejected():
    d = regression_dataset([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    with pytest.raises(TrainingError, match="constant targets"):
        evaluate(passthrough_model(), d)


def test_accuracy_counts_correct_argmax():
    g = Graph(input_shape=(1, 2))
    w = g.param("w", np.eye(2))
    out = linear(g, g.flatten(g.input_node), w)
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    model = Model(spec=ModelSpec(Architecture.MLP), graph=g, task=Task.CLASSIFICATION)
    schema = default_schema(1, 2, Task.CLASSIFICATION, n_classes=2)
    values = np.array([[[2.0, 1.0]], [[1.0, 2.0]], [[3.0, 0.0]], [[0.0, 3.0]]], dtype=DTYPE)
    targets = np.array([0, 1, 1, 1], dtype=np.int64)  # third sample is wrong
    d = TensorDataset(schema, values, targets, np.full(4, 2020, dtype=np.int64))
    metric = evaluate(model, d)
    assert metric.kind is MetricKind.ACCURACY
    assert metric.value == pytest.approx(0.75)


def test_evaluate_is_order_independent():
    train_split, _ = separable_splits()
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=0)
    direct = evaluate(m, train_split)
    perm = np.random.default_rng(1).permutation(train_split.n_samples)
    shuffled = evaluate(m, train_split.take(perm))
    assert direct.value == pytest.approx(shuffled.value)


# -- train -------------------------------------------------------------------


def test_separable_toy_reaches_full_training_accuracy():
    train_split, val_split = separable_splits()
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=1)
    m, report = train(m, train_split, val_split, TrainConfig(), seed=1)
    assert evaluate(m, train_split).value == 1.0
    assert report.epochs_run <= 100


def test_patience_rule_monotone_val_loss_stops_at_eleven():
    """Val targets oppose train targets, so val loss rises every epoch."""
    r = np.random.default_rng(0)
    x = np.ones((32, 1, 1), dtype=DTYPE) + r.normal(scale=0.01, size=(32, 1, 1)).astype(DTYPE)
    train_split = regression_dataset(x, 5.0 + r.normal(scale=0.01, size=32))
    val_split = regression_dataset(x, -5.0 + r.normal(scale=0.01, size=32))
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(1, 1), seed=2)
    m, report = train(m, train_split, val_split, TrainConfig(patience=10), seed=2)
    diffs = np.diff(report.val_loss)
    assert (diffs > 0).all(), "scenario must produce monotone increasing val loss"
    assert report.epochs_run == 11
    assert report.best_epoch == 1


def test_same_seed_bit_identical_weights():
    train_split, val_split = separable_splits()
    outs = []
    for _ in range(2):
        m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=3)
        m, report = train(m, train_split, val_split,
                          TrainConfig(max_epochs=12, patience=5), seed=3)
        outs.append((m, report))
    a, b = outs
    for name in a[0].graph.params:
        assert a[0].graph.params[name].tobytes() == b[0].graph.params[name].tobytes()
    assert a[1].val_loss == b[1].val_loss


def _reference_adam(params, grad_steps, learning_rate):
    """The optimizer as one update per tensor, each step rebinding every
    parameter to a fresh array: the element-wise oracle for the flat one."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        b1t = 1.0 - BETA1 ** t
        b2t = 1.0 - BETA2 ** t
        for name, g in grads.items():
            m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
            v[name] = BETA2 * v[name] + (1.0 - BETA2) * (g * g)
            update = (learning_rate * (m[name] / b1t)
                      / (np.sqrt(v[name] / b2t) + EPS)).astype(DTYPE)
            params[name] = params[name] - update
    return params


@pytest.mark.parametrize("arch", [Architecture.MLP, Architecture.LSTM,
                                  Architecture.TEMPCNN])
def test_flat_adam_matches_the_per_tensor_reference(arch):
    spec = ModelSpec(arch, width=8, channels=6, dense_size=16,
                     hidden_size=8, kernel_size=3)
    params = build(spec, grid_schema(5, 3, 2), seed=6).graph.params
    r = np.random.default_rng(6)
    grad_steps = [
        {k: (r.standard_normal(p.shape) * 10.0 ** r.integers(-6, 2)).astype(DTYPE)
         for k, p in params.items()}
        for _ in range(50)
    ]
    want = _reference_adam(params, grad_steps, 3e-3)
    opt = _Adam(params, 3e-3)
    for grads in grad_steps:
        opt.step(grads)
    assert list(params) == list(want)
    for name, p in params.items():
        assert p.base is opt.flat, name
        assert p.dtype == DTYPE and p.shape == want[name].shape
        assert p.tobytes() == want[name].tobytes(), name


def expression_adam_step(opt, grads):
    """The step as one NumPy expression per moment, each allocating fresh
    arrays: the byte oracle for the in-place step."""
    opt.t += 1
    b1t = 1.0 - BETA1 ** opt.t
    b2t = 1.0 - BETA2 ** opt.t
    g = np.concatenate([grads[k].reshape(-1) for k in opt.names], out=opt.g)
    m = opt.m = BETA1 * opt.m + (1.0 - BETA1) * g
    v = opt.v = BETA2 * opt.v + (1.0 - BETA2) * (g * g)
    opt.flat -= float(opt.learning_rate) * (m / b1t) / (np.sqrt(v / b2t) + EPS)


@pytest.mark.parametrize("lr", [1e-3, 3e-3, 0.7])
def test_the_in_place_adam_step_matches_the_expression_form(lr):
    spec = ModelSpec(Architecture.GRU, width=8, hidden_size=8)
    params = build(spec, grid_schema(5, 3, 2), seed=2).graph.params
    r = np.random.default_rng(2)
    grad_steps = [
        {k: (r.standard_normal(p.shape) * 10.0 ** r.integers(-8, 3)).astype(DTYPE)
         for k, p in params.items()}
        for _ in range(60)
    ]
    grad_steps[7] = {k: np.zeros(p.shape, DTYPE) for k, p in params.items()}
    got = _Adam(dict(params), lr)
    want = _Adam(dict(params), lr)
    for step, grads in enumerate(grad_steps):
        got.step(grads)
        expression_adam_step(want, grads)
        for name in ("flat", "m", "v"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == DTYPE and a.tobytes() == b.tobytes(), (step, name)


def test_restored_best_weights_forward_through_the_views():
    """Val loss rises every epoch, so the best epoch is the first of eleven
    and the restore must overwrite the last epoch's weights in place."""
    r = np.random.default_rng(0)
    x = np.ones((32, 1, 1), dtype=DTYPE) + r.normal(scale=0.01, size=(32, 1, 1)).astype(DTYPE)
    train_split = regression_dataset(x, 5.0 + r.normal(scale=0.01, size=32))
    val_split = regression_dataset(x, -5.0 + r.normal(scale=0.01, size=32))
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(1, 1), seed=2)
    cfg = TrainConfig(patience=10)
    m, report = train(m, train_split, val_split, cfg, seed=2)
    assert (report.best_epoch, report.epochs_run) == (1, 11)
    flat = m.graph.params["layer0/w"].base
    assert flat is not None
    assert all(p.base is flat for p in m.graph.params.values())
    assert split_loss(m, val_split) == report.val_loss[0]
    assert split_loss(m, val_split) != report.val_loss[-1]


def test_best_epoch_weights_reproduce_best_val_loss():
    train_split, val_split = separable_splits(seed=4)
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=4)
    cfg = TrainConfig(max_epochs=15, patience=5)
    m, report = train(m, train_split, val_split, cfg, seed=4)
    best = min(report.val_loss)
    assert report.val_loss[report.best_epoch - 1] == best
    assert split_loss(m, val_split) == best


def test_forward_loss_serves_training_batches_only(monkeypatch):
    """Targeted forwards are the training batches; the validation loss and
    the metric forward whole ``TILE``-row tiles without a target."""
    r = np.random.default_rng(7)
    schema = default_schema(2, 3, Task.CLASSIFICATION, n_classes=2)
    d = TensorDataset(schema, r.normal(size=(450, 2, 3)).astype(DTYPE),
                      r.integers(0, 2, size=450), np.full(450, 2020, dtype=np.int64))
    train_split, val_split = d.take(np.arange(300)), d.take(np.arange(300, 450))
    targeted, untargeted, inside = [], [], []
    real_forward, real_forward_loss = Graph.forward, Graph.forward_loss

    def spy_forward_loss(self, x, target, rng=None):
        targeted.append(len(x))
        inside.append(True)
        try:
            return real_forward_loss(self, x, target, rng)
        finally:
            inside.pop()

    def spy_forward(self, x, rng=None):
        if not inside:
            untargeted.append(len(x))
        return real_forward(self, x, rng)

    monkeypatch.setattr(Graph, "forward_loss", spy_forward_loss)
    monkeypatch.setattr(Graph, "forward", spy_forward)
    m = build(ModelSpec(Architecture.MLP, **SMALL), schema, seed=7)
    cfg = TrainConfig(max_epochs=5, patience=4, batch_size=32)
    _, report = train(m, train_split, val_split, cfg, seed=7)
    assert report.epochs_run == 5
    assert len(targeted) == 5 * math.ceil(300 / 32)
    assert set(untargeted) == {TILE}


# Per task, a head weight and a validation value scale whose outputs make the
# loss kernel overflow: inf logits make inf - inf in the softmax, and a large
# finite prediction has an overflowing square.
OVERFLOW = [(Task.CLASSIFICATION, 3e38, 5e37), (Task.REGRESSION, 1e30, 1e20)]


@pytest.mark.parametrize("task, head, _", OVERFLOW)
def test_the_loss_of_overflowing_outputs_is_non_finite_without_a_warning(task, head, _):
    train_split, val_split = task_splits(task)
    m = build(ModelSpec(Architecture.MLP, **SMALL), train_split.schema, seed=0)
    m.graph.params["head/w"][...] = head
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(split_loss(m, val_split))


@pytest.mark.parametrize("task, _, scale", OVERFLOW)
def test_an_overflowing_validation_split_diverges_at_epoch_1(task, _, scale):
    train_split, val_split = task_splits(task)
    huge = replace(val_split, values=np.sign(val_split.values) * scale)
    m = build(ModelSpec(Architecture.MLP, **SMALL), train_split.schema, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged,
                           match=r"^non-finite validation loss at epoch 1$"):
            train(m, train_split, huge, TrainConfig(max_epochs=5, patience=4), seed=0)


def test_training_with_dropout_is_deterministic():
    train_split, val_split = separable_splits(seed=5)
    losses = []
    for _ in range(2):
        m = build(ModelSpec(Architecture.MLP, dropout=0.3, **SMALL), grid_schema(2, 3, 2), seed=5)
        _, report = train(m, train_split, val_split,
                          TrainConfig(max_epochs=8, patience=4), seed=5)
        losses.append(report.train_loss)
    assert losses[0] == losses[1]


def _fit_small(arch, task):
    r = np.random.default_rng(4)
    x = r.normal(size=(60, 5, 3)).astype(DTYPE)
    classify = task is Task.CLASSIFICATION
    y = ((x[:, 0, 0] > 0).astype(np.int64) + (x[:, 1, 1] > 0) if classify
         else x[:, 0, 0] - x[:, 2, 1])
    d = TensorDataset(default_schema(5, 3, task, 3 if classify else None), x, y,
                      np.full(60, 2020, dtype=np.int64))
    train_split, val_split = d.take(np.arange(40)), d.take(np.arange(40, 60))
    spec = ModelSpec(arch, kernel_size=3, dropout=0.3, **SMALL)
    m = build(spec, d.schema, seed=4)
    cfg = TrainConfig(max_epochs=6, patience=5, batch_size=12, learning_rate=3e-3)
    return train(m, train_split, val_split, cfg, seed=4)


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("task", list(Task))
def test_training_keeps_the_bytes_of_the_full_step(arch, task, monkeypatch):
    """``train`` with the full backward, the expression form of the Adam step,
    ``np.mean`` in the loss values and loss gradients recomputed from the
    target patched in gives the same parameters, loss histories and report:
    the lean step computes no other bytes."""
    model, report = _fit_small(arch, task)
    calls = []
    real_backward = Graph.backward

    def full_backward(self, selector="loss", guided=False, input_grad=True):
        calls.append("backward")
        grads = real_backward(self, selector, guided)
        assert grads.input is not None
        return grads

    def adam_step(opt, grads):
        calls.append("adam")
        expression_adam_step(opt, grads)

    monkeypatch.setattr(Graph, "backward", full_backward)
    monkeypatch.setattr(_Adam, "step", adam_step)
    for name, kernels in ORACLE_LOSSES.items():
        monkeypatch.setitem(engine._LOSSES, name, kernels)
    want_model, want = _fit_small(arch, task)
    assert calls.count("backward") == calls.count("adam") > 0
    assert report == want
    assert model.graph.params.keys() == want_model.graph.params.keys()
    for name, p in model.graph.params.items():
        assert p.tobytes() == want_model.graph.params[name].tobytes(), name


def test_divergence_aborts_with_diagnostic():
    train_split, val_split = separable_splits(seed=6)
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=6)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train(m, train_split, val_split,
              TrainConfig(learning_rate=1e22, max_epochs=30, patience=5), seed=6)


def test_split_shape_mismatch_rejected():
    train_split, val_split = separable_splits()
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(4, 3, 2), seed=0)
    with pytest.raises(TrainingError, match="does not match model"):
        train(m, train_split, val_split, TrainConfig(), seed=0)


@pytest.mark.parametrize("empty", ["train", "validation"])
def test_an_empty_split_is_named_before_training(empty):
    splits = dict(zip(("train", "validation"), separable_splits()))
    splits[empty] = splits[empty].take(np.arange(0))
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=0)
    with pytest.raises(TrainingError, match=f"^{empty} split is empty$"):
        train(m, splits["train"], splits["validation"], TrainConfig(), seed=0)


def test_evaluating_an_empty_split_is_an_error():
    _, val_split = separable_splits()
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=0)
    with pytest.raises(TrainingError, match="cannot evaluate an empty split"):
        evaluate(m, val_split.take(np.arange(0)))


def test_the_loss_of_an_empty_split_is_an_error():
    _, val_split = separable_splits()
    m = build(ModelSpec(Architecture.MLP, **SMALL), grid_schema(2, 3, 2), seed=0)
    with pytest.raises(TrainingError, match="cannot take the loss of an empty split"):
        split_loss(m, val_split.take(np.arange(0)))


def test_an_empty_validation_split_fails_each_candidate():
    splits = three_way_splits()
    splits = SplitTriple(splits.train, splits.validation.take(np.arange(0)), splits.test)
    grid = [(ModelSpec(arch, **SMALL), quick_cfg())
            for arch in (Architecture.MLP, Architecture.GRU)]
    with pytest.raises(TrainingError, match="#0: validation split is empty; "
                                            "#1: validation split is empty"):
        select_model(grid, splits, seed=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_a_non_finite_learning_rate(value):
    with pytest.raises(TrainingError, match=f"^learning rate must be finite, got {value}$"):
        TrainConfig(learning_rate=value)


def test_config_validation():
    with pytest.raises(TrainingError, match="patience"):
        TrainConfig(max_epochs=10, patience=10)
    with pytest.raises(TrainingError, match="positive"):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainingError, match="learning rate"):
        TrainConfig(learning_rate=0.0)


# -- selection ---------------------------------------------------------------


def three_way_splits(seed=0):
    a, b = separable_splits(n=96, seed=seed)
    half = b.n_samples // 2
    return SplitTriple(
        train=a,
        validation=b.take(np.arange(half)),
        test=b.take(np.arange(half, b.n_samples)),
    )


def quick_cfg(lr=3e-3):
    return TrainConfig(max_epochs=60, patience=20, batch_size=16, learning_rate=lr)


def test_grid_of_one_wins():
    splits = three_way_splits()
    spec = ModelSpec(Architecture.MLP, **SMALL)
    model, report = select_model([(spec, quick_cfg())], splits, seed=0)
    assert report.best_index == 0
    assert report.ranking[0].val_metric is not None
    assert report.test_metric is not None
    # the returned model is the trained one
    assert evaluate(model, splits.validation).value == report.ranking[0].val_metric


def test_metric_tie_keeps_earlier_grid_index():
    # both candidates solve the task exactly, so the tie rule decides
    splits = three_way_splits()
    spec = ModelSpec(Architecture.MLP, **SMALL)
    grid = [(spec, quick_cfg()), (spec, quick_cfg())]
    _, report = select_model(grid, splits, seed=1)
    assert report.ranking[0].val_metric == report.ranking[1].val_metric
    assert report.best_index == 0


def test_failing_candidate_recorded_and_grid_continues():
    splits = three_way_splits()
    bad = ModelSpec(Architecture.TEMPCNN, **SMALL)  # kernel 5 > T = 2
    good = ModelSpec(Architecture.MLP, **SMALL)
    _, report = select_model([(bad, quick_cfg()), (good, quick_cfg())], splits, seed=0)
    assert report.best_index == 1
    failed = [c for c in report.ranking if c.error is not None]
    assert len(failed) == 1 and "kernel" in failed[0].error


def test_failed_candidates_stay_in_grid_order():
    """A build failure is known before any training starts, and a divergence
    only once its training ends; the failed rows still read in grid order."""
    splits = three_way_splits()  # T = 2
    grid = [(ModelSpec(Architecture.MLP, **SMALL), quick_cfg(lr=1e22)),  # diverges
            (ModelSpec(Architecture.TEMPCNN, **SMALL), quick_cfg()),     # kernel 5 > T
            (ModelSpec(Architecture.MLP, **SMALL), quick_cfg())]
    _, report = select_model(grid, splits, seed=0)
    assert report.best_index == 2
    failed = [c for c in report.ranking if c.error is not None]
    assert [c.index for c in failed] == [0, 1]
    assert "non-finite" in failed[0].error and "kernel 5" in failed[1].error


def test_select_builds_each_candidate_once(monkeypatch):
    splits = three_way_splits()  # one lane (conftest's one_lane)
    cfg = TrainConfig(max_epochs=3, patience=1, batch_size=16, learning_rate=3e-3)
    grid = [(ModelSpec(Architecture.MLP, **SMALL), cfg),
            (ModelSpec(Architecture.TEMPCNN, **SMALL), cfg),  # kernel 5 > T = 2 fails
            (ModelSpec(Architecture.GRU, **SMALL), cfg)]
    built = []

    def counting_build(spec, schema, seed):
        built.append(spec.architecture.value)
        return build(spec, schema, seed)

    monkeypatch.setattr(training, "build", counting_build)
    model, report = select_model(grid, splits, seed=0)
    assert built == ["mlp", "tempcnn", "gru"]
    assert evaluate(model, splits.validation).value == report.ranking[0].val_metric


def test_all_candidates_failing_is_an_error():
    splits = three_way_splits()
    bad = ModelSpec(Architecture.TEMPCNN, **SMALL)
    with pytest.raises(TrainingError, match="every candidate failed"):
        select_model([(bad, quick_cfg())], splits, seed=0)


def test_candidates_train_costliest_first_and_keep_their_grid_indices(monkeypatch):
    splits = three_way_splits()  # T = 2, 3 bands, 2 classes
    cfg = TrainConfig(max_epochs=3, patience=1, batch_size=16, learning_rate=3e-3)
    grid = [(ModelSpec(Architecture.MLP, **SMALL), cfg),                   # 128 MACs
            (ModelSpec(Architecture.TEMPCNN, **SMALL), cfg),               # fails
            (ModelSpec(Architecture.LSTM, **SMALL), cfg),                  # 720
            (ModelSpec(Architecture.MLP, **SMALL), replace(cfg, learning_rate=1e-3)),
            (ModelSpec(Architecture.GRU, **SMALL), cfg),                   # 544
            (ModelSpec(Architecture.RNN, **SMALL), cfg)]                   # 192
    assert [macs_per_row(build(spec, splits.train.schema, seed=0))
            for spec, _ in grid[:1] + grid[2:]] == [128, 720, 128, 544, 192]
    trained = []

    def recording_train(model, train_split, val_split, cfg, seed):
        trained.append((model.spec.architecture.value, cfg.learning_rate))
        return train(model, train_split, val_split, cfg, seed)

    monkeypatch.setattr(training, "train", recording_train)
    _, report = select_model(grid, splits, seed=0)
    # the tempcnn's kernel 5 > T = 2 fails at build, so no lane claims it
    assert trained == [("lstm", 3e-3), ("gru", 3e-3), ("rnn", 3e-3),
                       ("mlp", 3e-3), ("mlp", 1e-3)]  # equal costs in grid order
    assert sorted(c.index for c in report.ranking) == list(range(len(grid)))
    for c in report.ranking:
        spec, cand_cfg = grid[c.index]
        assert (c.architecture, c.learning_rate) == (spec.architecture, cand_cfg.learning_rate)
    (failed,) = [c for c in report.ranking if c.error is not None]
    assert failed.index == 1 and "kernel 5 larger than input length 2" in failed.error


class _GuardedSplit:
    """Stands in for the test split: reading anything but the schema fails
    until ``is_open()`` holds."""

    def __init__(self, split, is_open):
        self.schema = split.schema
        self._split = split
        self._is_open = is_open

    def __getattr__(self, name):
        if not self._is_open():
            raise AssertionError(f"test split was read (attribute {name!r}) "
                                 "before every candidate had trained")
        return getattr(self._split, name)


def test_ranking_never_reads_test_split(monkeypatch):
    base = three_way_splits()
    spec = ModelSpec(Architecture.MLP, **SMALL)
    grid = [(spec, quick_cfg()), (spec, quick_cfg())]
    trained = []

    def counting_train(*args, **kwargs):
        result = train(*args, **kwargs)
        trained.append(result)
        return result

    monkeypatch.setattr(training, "train", counting_train)
    test = _GuardedSplit(base.test, lambda: len(trained) == len(grid))
    splits = SplitTriple(train=base.train, validation=base.validation, test=test)
    model, report = select_model(grid, splits, seed=1)
    assert len(trained) == len(grid)
    assert report.best_index == 0
    assert report.test_metric == evaluate(model, base.test).value


def test_default_grid_covers_architectures_and_rates():
    base = TrainConfig(max_epochs=7, patience=3, batch_size=5, learning_rate=0.5)
    grid = default_grid(base)
    assert len(grid) == 10
    archs = {spec.architecture for spec, _ in grid}
    assert archs == set(Architecture)
    rates = {cfg.learning_rate for _, cfg in grid}
    assert rates == {1e-3, 1e-4}
    assert all(replace(cfg, learning_rate=0.5) == base for _, cfg in grid)
