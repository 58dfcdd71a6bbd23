"""Acceptance gate: ten end-to-end behavior guarantees, one verdict line each.

Every test prints `[PASS]`/`[FAIL] criterion N: ...` so the gate reads off a
plain `pytest -s tests/test_acceptance.py` run. Tolerances and time budgets
are asserted inside the tests themselves.
"""

import json
import time
import warnings
from contextlib import contextmanager

import numpy as np
from conftest import (
    draw_clean_input,
    exact_shapley,
    finite_difference_check,
    forked_lanes,
    grid_schema,
    linear,
    run_pinned,
)

from roarsel.attribution import (
    ExplainBudget,
    GroupingAxis,
    feature_groups,
    run_estimator,
)
from roarsel.cli import main
from roarsel.config import section_seed
from roarsel.data import (
    Task,
    TensorDataset,
    default_schema,
    delete_bands,
    delete_timesteps,
    load_dataset,
    save_dataset,
    split_by_year,
)
from roarsel.engine import DTYPE, Graph
from roarsel.models import Architecture, ModelSpec, resize_for_input
from roarsel.roar import DeletionOrder, DeletionPlan, run_roar, sufficient_set
from roarsel.synthetic import PlantSpec, generate
from roarsel.training import TrainConfig


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}", flush=True)
        raise
    print(f"[PASS] {label}", flush=True)


def _uniform(r, shape, lo=-0.5, hi=0.5):
    return r.uniform(lo, hi, size=shape).astype(DTYPE)


# -- 1: gradient correctness ------------------------------------------------

ALL_OPS = frozenset({
    "dense", "dropout", "relu", "conv1d", "flatten", "slice_time", "recurrent",
})
LOSSES = frozenset({"mse", "softmax_xent"})  # loss kinds, off the tape
CELLS = {"rnn": 1, "lstm": 4, "gru": 3}  # recurrent cell -> gates


def random_graph(seed, linear_only=False, cell=None):
    """Random small [T, C] graph; returns (graph, ops used, target kind).
    A given recurrent ``cell`` is the graph's first op."""
    r = np.random.default_rng(seed)
    t, c = int(r.integers(4, 8)), int(r.integers(2, 5))
    g = Graph(input_shape=(t, c))
    used = set()
    h, ht, hc = g.input_node, t, c
    serial = 0

    def param(shape):
        nonlocal serial
        serial += 1
        return g.param(f"p{serial}", _uniform(r, shape))

    def recurrent(kind):
        nonlocal h, hc
        k, hid = CELLS[kind], int(r.integers(2, 4))
        h = g.recurrent(h, param((hc, k * hid)), param((hid, k * hid)),
                        param((k * hid,)), kind)
        hc = hid
        used.add("recurrent")

    if cell is not None:
        recurrent(cell)
    seq_ops = ["conv1d", "dropout"]
    if not linear_only:
        seq_ops += ["nl", "recurrent"]
    for _ in range(int(r.integers(1, 3))):
        op = r.choice(seq_ops)
        if op == "conv1d":
            k = int(r.integers(2, min(4, ht) + 1))
            pad = int(r.integers(0, 2))
            t_out = ht + 2 * pad - k + 1
            if t_out < 2:
                continue
            co = int(r.integers(2, 4))
            h = g.conv1d(h, param((k, hc, co)), param((co,)), padding=pad)
            ht, hc = t_out, co
            used.add("conv1d")
        elif op == "recurrent":
            recurrent(str(r.choice(list(CELLS))))
        elif op == "dropout":
            h = g.dropout(h, f"drop{len(g.mask_shapes)}", 0.5)
            used.add("dropout")
        else:
            h = g.relu(h)
            used.add("relu")
    if r.random() < 0.5:
        h, d = g.slice_time(h, int(r.integers(0, ht))), hc
        used.add("slice_time")
    else:
        h, d = g.flatten(h), ht * hc
        used.add("flatten")
    for _ in range(int(r.integers(1, 3))):
        d2 = int(r.integers(3, 7))
        h = g.dense(h, param((d, d2)), param((d2,)))
        used.add("dense")
        d = d2
        if r.random() < 0.5 and not linear_only:
            h = g.relu(h)
            used.add("relu")
    if linear_only or r.random() < 0.5:
        out = g.dense(h, param((d, 1)), param((1,)))
        g.mark_output(out)
        g.mean_squared_error(out)
        return g, used, "mse"
    n_classes = int(r.integers(2, 4))
    out = g.dense(h, param((d, n_classes)), param((n_classes,)))
    g.mark_output(out)
    g.softmax_cross_entropy(out)
    return g, used, n_classes


def _graph_target(kind, n, seed):
    r = np.random.default_rng(seed)
    if kind == "mse":
        return r.standard_normal(n).astype(DTYPE)
    return r.integers(0, kind, size=n)


def test_reverse_mode_gradients_match_finite_differences():
    with criterion("criterion 1: reverse-mode gradients match central finite "
                   "differences on random graphs covering every operator"):
        start = time.monotonic()
        covered, cells, losses = set(), set(), set()
        # 24 random graphs, then one that starts with each recurrent cell
        for i, cell in enumerate([None] * 24 + list(CELLS)):
            g, used, kind = random_graph(1000 + i, cell=cell)
            target = _graph_target(kind, 3, i)
            x = draw_clean_input(g, (3, *g.input_shape), 2000 + i)
            report = finite_difference_check(g, x, h=1e-3, tolerance=1e-3,
                                             target=target)
            assert report.passed, (i, report.max_rel_error, sorted(used))
            covered |= used
            losses.add(g.loss)
            cells |= {n.attrs["cell"] for n in g.nodes if n.op == "recurrent"}
        assert covered == ALL_OPS, sorted(ALL_OPS - covered)
        assert losses == LOSSES, sorted(LOSSES - losses)
        assert cells == set(CELLS), sorted(set(CELLS) - cells)
        assert time.monotonic() - start < 60.0


def test_all_ops_is_every_op_the_model_families_build():
    """Criterion 1 covers every graph operator: ``ALL_OPS`` is exactly what
    the five families build, dropout included, besides the slots that read
    the batch and the parameters; ``LOSSES`` is both heads' losses."""
    built, losses = set(), set()
    for arch in Architecture:
        for schema in (grid_schema(5, 3), grid_schema(5, 3, 3)):
            spec = ModelSpec(arch, width=4, channels=2, dense_size=4,
                             hidden_size=2, kernel_size=3, dropout=0.5)
            graph = resize_for_input(spec, schema, seed=0).graph
            built |= {n.op for n in graph.nodes}
            losses.add(graph.loss)
    assert built == ALL_OPS | {"input", "param", "mask"}
    assert losses == LOSSES


# -- 2 and 3: Shapley estimates ----------------------------------------------


def _scalar_model(seed=3):
    return resize_for_input(ModelSpec(Architecture.MLP, width=24),
                            grid_schema(2, 5), seed=seed)


def test_sampled_shapley_matches_exact_enumeration():
    with criterion("criterion 2: sampled Shapley scores agree with exact "
                   "enumeration within three standard errors"):
        start = time.monotonic()
        model = _scalar_model()
        r = np.random.default_rng(42)
        samples = r.standard_normal((6, 2, 5)).astype(DTYPE)
        baseline = np.zeros((2, 5), dtype=DTYPE)
        groups = feature_groups(grid_schema(2, 5), GroupingAxis.BY_BAND)
        budget = ExplainBudget(n_samples=6, n_permutations=4096)
        m = run_estimator("svs", model, samples, groups, budget, seed=77,
                          baseline=baseline)
        exact = np.stack(
            [exact_shapley(model, s, groups, baseline) for s in samples]
        ).astype(np.float64)
        gap = np.abs(m.scores.astype(np.float64) - exact)
        within = gap <= 3.0 * m.stderr.astype(np.float64)
        assert within.mean() >= 0.95, within.mean()
        assert time.monotonic() - start < 300.0


def test_exact_shapley_satisfies_efficiency():
    with criterion("criterion 3: exact Shapley scores sum to the prediction "
                   "gap against the baseline within 1e-4"):
        groups = feature_groups(grid_schema(2, 5), GroupingAxis.BY_BAND)
        r = np.random.default_rng(8)
        baseline = (0.1 * r.standard_normal((2, 5))).astype(DTYPE)

        model = _scalar_model()
        xs = r.standard_normal((5, 2, 5)).astype(DTYPE)
        f_x = model.graph.forward(xs)[:, 0].astype(np.float64)
        f_b = float(model.graph.forward(baseline[None])[0, 0])
        for x, fx in zip(xs, f_x):
            total = float(exact_shapley(model, x, groups, baseline).sum())
            assert abs(total - (fx - f_b)) < 1e-4

        clf = resize_for_input(ModelSpec(Architecture.MLP, width=24),
                               grid_schema(2, 5, 3), seed=5)
        for x in xs:
            logits = clf.graph.forward(x[None])[0]
            c = int(np.argmax(logits))
            f_gap = float(logits[c]) - float(clf.graph.forward(baseline[None])[0, c])
            total = float(exact_shapley(clf, x, groups, baseline).sum())
            assert abs(total - f_gap) < 1e-4


# -- 4 and 5: gradient estimator identities ----------------------------------


def test_guided_collapse_on_linear_graphs_and_negative_relu_gate():
    with criterion("criterion 4: guided backprop equals the standard gradient "
                   "on linear graphs and gates negative relu flow"):
        for i in range(12):
            g, used, _ = random_graph(3000 + i, linear_only=True)
            assert not used & {"relu", "recurrent"}
            x = np.random.default_rng(i).standard_normal(
                (3, *g.input_shape)).astype(DTYPE)
            first = np.full(len(x), 0)
            g.forward(x)
            standard = g.backward(first).input
            g.forward(x)
            guided = g.backward_guided(first)
            assert np.array_equal(standard, guided)

        # f(x) = -relu(x): upstream gradient at the relu is -1 everywhere,
        # so guided zeroes it while the standard gradient passes it through
        g = Graph(input_shape=(1,))
        g.mark_output(linear(g, g.relu(g.input_node), g.param("w", [[-1.0]])))
        x = np.array([[2.0]], dtype=DTYPE)
        g.forward(x)
        assert np.array_equal(g.backward(np.full(1, 0)).input, [[-1.0]])
        g.forward(x)
        assert np.array_equal(g.backward_guided(np.full(1, 0)), [[0.0]])


def test_zero_noise_ensembles_collapse():
    with criterion("criterion 5: with zero noise, smoothgrad-squared equals "
                   "the squared base attribution and vargrad is exactly zero"):
        model = _scalar_model()
        r = np.random.default_rng(11)
        samples = r.standard_normal((4, 2, 5)).astype(DTYPE)
        baseline = np.zeros((2, 5), dtype=DTYPE)
        groups = feature_groups(grid_schema(2, 5), GroupingAxis.BY_BAND)
        budget = ExplainBudget(n_samples=4, n_permutations=16,
                               ensemble_size=3, noise_scale=0.0)
        for base, kwargs in (("svs", {"baseline": baseline}), ("gb", {})):
            plain = run_estimator(base, model, samples, groups, budget, seed=9,
                                  **kwargs)
            sq = run_estimator(f"sgs-{base}", model, samples, groups, budget,
                               seed=9, **kwargs)
            assert np.array_equal(sq.scores, plain.scores * plain.scores)
            vg = run_estimator(f"vargrad-{base}", model, samples, groups, budget,
                               seed=9, **kwargs)
            assert np.all(vg.scores == 0.0)


# -- 6: planted-signal deletion curves ---------------------------------------


def test_planted_signal_deletion_curves_recover_the_signal_bands():
    with criterion("criterion 6: deletion curves on a planted signal keep "
                   "accuracy until only the signal bands survive, and "
                   "collapse within two cycles when removal starts there"):
        start = time.monotonic()
        plant = PlantSpec(n=4000, t=12, b=8, signal_bands=frozenset({2, 5}),
                          signal_steps=frozenset(range(12)), noise=1.0)
        # the attainable R^2: planted signal variance over total variance
        signal = len(plant.signal_cells) * plant.weight ** 2
        assert abs(signal / (signal + plant.noise ** 2) - 0.96) < 1e-9
        d = generate(plant, seed=section_seed(17, "generate"))
        splits = split_by_year(d, 2, seed=section_seed(17, "split"))
        spec = ModelSpec(Architecture.MLP, width=64)
        cfg = TrainConfig(max_epochs=100, patience=25, batch_size=64,
                          learning_rate=3e-3)
        budget = ExplainBudget(n_samples=96, n_permutations=32, ensemble_size=2)

        least = run_roar(
            splits, spec, cfg,
            DeletionPlan(axis=GroupingAxis.BY_BAND,
                         order=DeletionOrder.LEAST_FIRST, estimator_tag="svs",
                         budget=budget, tolerance=0.05),
            seed=section_seed(17, "roar"),
        )
        base = least.baseline.val_metric.value
        assert base >= 0.9, base
        for rec in least.records:
            if rec.cycle <= 6:
                assert rec.val_metric.value >= base - 0.05, (rec.cycle, rec.val_metric)
        assert set(least.all_records()[6].ranking.group_ids) == {2, 5}
        ids, _ = sufficient_set(least)
        assert ids == frozenset({2, 5})

        most = run_roar(
            splits, spec, cfg,
            DeletionPlan(axis=GroupingAxis.BY_BAND,
                         order=DeletionOrder.MOST_FIRST, estimator_tag="svs",
                         budget=ExplainBudget(n_samples=96, n_permutations=32,
                                              ensemble_size=2),
                         tolerance=0.05),
            seed=section_seed(17, "roar"),
        )
        assert most.baseline.val_metric.value == base  # shared-seed baseline
        assert most.records[1].cycle == 2
        assert most.records[1].val_metric.value < 0.2
        assert time.monotonic() - start < 1800.0


# -- 7: structural resize ------------------------------------------------------


def test_resize_after_any_deletion_builds_fresh_models():
    with criterion("criterion 7: after any band/step deletion, every "
                   "architecture rebuilds at the new size with no weight reuse"):
        rng = np.random.default_rng(505)
        full_t = full_b = 32
        base = TensorDataset(
            schema=default_schema(full_t, full_b, Task.REGRESSION),
            values=rng.standard_normal((4, full_t, full_b)).astype(DTYPE),
            targets=rng.standard_normal(4).astype(DTYPE),
            years=2016 + np.arange(4) % 4,
        )
        grid = {
            Architecture.MLP: dict(width=16),
            Architecture.RNN: dict(hidden_size=8),
            Architecture.LSTM: dict(hidden_size=8),
            Architecture.GRU: dict(hidden_size=8),
            Architecture.TEMPCNN: dict(channels=4, kernel_size=5, dense_size=8),
        }
        pairs = {(1, 1), (1, full_b), (full_t, 1), (full_t, full_b)}
        while len(pairs) < 28:
            pairs.add((int(rng.integers(1, full_t + 1)),
                       int(rng.integers(1, full_b + 1))))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tempcnn kernel clamping at tiny T
            for arch, kw in grid.items():
                spec = ModelSpec(arch, **kw)
                donor = resize_for_input(spec, base.schema, seed=1)
                for p in donor.graph.params.values():
                    # marker perturbation: any copied tensor would match it
                    p += rng.standard_normal(p.shape).astype(DTYPE) * 0.1
                for t, b in sorted(pairs):
                    cut = base
                    if t < full_t:
                        cut = delete_timesteps(cut, range(t, full_t))
                    if b < full_b:
                        cut = delete_bands(cut, range(b, full_b))
                    model = resize_for_input(spec, cut.schema, seed=2)
                    out = model.graph.forward(cut.values)
                    assert out.shape == (4, 1)
                    assert np.all(np.isfinite(out))
                    for name, p in model.graph.params.items():
                        old = donor.graph.params.get(name)
                        if old is not None and old.shape == p.shape:
                            assert not np.array_equal(old, p), (arch, name, t, b)


# -- 8: campaign determinism through the command layer -------------------------


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def test_deletion_campaign_reruns_reproduce_csv_bytes(tmp_path):
    with criterion("criterion 8: rerunning the deletion command with the same "
                   "config and seed reproduces curve CSVs byte-identically"):
        cfg = {
            "seed": 13,
            "out_dir": str(tmp_path / "out"),
            "dataset": {
                "path": str(tmp_path / "data"),
                "plant": {"n": 240, "t": 3, "b": 4, "signal_bands": [1, 3],
                          "signal_steps": [0, 1, 2], "noise": 0.2},
            },
            "model": {"architecture": "mlp", "width": 16},
            "train": {"max_epochs": 8, "patience": 3, "batch_size": 32,
                      "learning_rate": 0.003},
            "budget": {"n_samples": 24, "n_permutations": 6,
                       "ensemble_size": 2},
            "plans": [
                {"axis": "by_band", "order": "least_first",
                 "estimator_tag": "svs"},
                {"axis": "by_band", "order": "least_first",
                 "estimator_tag": "gb"},
            ],
        }
        path = _write_config(tmp_path / "run.json", cfg)
        assert main(["generate", "--config", path]) == 0
        assert main(["roar", "--config", path]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes()
                 for p in out.glob("*.curve.*")}
        first |= {p.name: p.read_bytes() for p in out.glob("*.svg")}
        assert len([n for n in first if n.endswith(".curve.csv")]) == 2
        assert main(["roar", "--config", path]) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload, name


# -- 9: dataset format round trip ----------------------------------------------


def _random_dataset(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 41))
    t = int(r.integers(1, 13))
    b = int(r.integers(1, 11))
    task = Task.CLASSIFICATION if r.random() < 0.4 else Task.REGRESSION
    n_classes = int(r.integers(2, 6)) if task is Task.CLASSIFICATION else None
    values = r.standard_normal((n, t, b)).astype(DTYPE)
    targets = (r.integers(0, n_classes, size=n) if n_classes
               else r.standard_normal(n).astype(DTYPE))
    years = 2000 + r.integers(0, 6, size=n)
    d = TensorDataset(schema=default_schema(t, b, task, n_classes),
                      values=values, targets=targets, years=years)
    # shrink some to cover non-contiguous stable ids in the saved schema
    if b > 2 and r.random() < 0.5:
        d = delete_bands(d, [int(r.integers(0, b))])
    if t > 2 and r.random() < 0.5:
        d = delete_timesteps(d, [int(r.integers(0, t))])
    return d


def test_dataset_round_trip_is_byte_stable_over_100_datasets(tmp_path):
    with criterion("criterion 9: dataset save/load round trip is byte-stable "
                   "over 100 randomized datasets"):
        for seed in range(100):
            d = _random_dataset(seed)
            a, b = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
            save_dataset(d, a)
            loaded = load_dataset(a)
            assert loaded.schema == d.schema
            assert np.array_equal(loaded.values, d.values)
            assert np.array_equal(loaded.targets, d.targets)
            assert np.array_equal(loaded.years, d.years)
            save_dataset(loaded, b)
            names_a = sorted(p.name for p in a.iterdir())
            assert names_a == sorted(p.name for p in b.iterdir())
            for name in names_a:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (
                    seed, name)


# -- 10: selection never consults the test split while ranking ------------------


def _selection_csv_columns(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return ([r[0] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


def _selection_ignores_the_test_split_until_ranked(tmp_path, select, label):
    with criterion("criterion 10: selection ranks the dominant candidate "
                   f"first and never consults the test split while ranking{label}"):
        base_cfg = {
            "seed": 21,
            "dataset": {"path": str(tmp_path / "clean"),
                        "plant": {"n": 400, "t": 3, "b": 4,
                                  "signal_bands": [1, 3],
                                  "signal_steps": [0, 1, 2], "noise": 0.3}},
            "train": {"max_epochs": 30, "patience": 10, "batch_size": 32,
                      "learning_rate": 0.003},
            "grid": [{"architecture": "mlp", "width": 64},
                     {"architecture": "rnn", "hidden_size": 1}],
            "workers": 1,
            "out_dir": str(tmp_path / "out_clean"),
        }
        path = _write_config(tmp_path / "clean.json", base_cfg)
        assert main(["generate", "--config", path]) == 0
        assert select(path) == 0

        # poison exactly the rows the year split sends to the test bucket;
        # if ranking ever touched them, the val column below would move
        d = load_dataset(tmp_path / "clean")
        distinct = np.unique(d.years)
        cutoff = distinct[-2]
        pool = np.flatnonzero(d.years >= cutoff)
        perm = np.random.default_rng(
            section_seed(21, "split")).permutation(len(pool))
        test_rows = pool[perm][(len(pool) + 1) // 2:]
        values = d.values.copy()
        values[test_rows] = 1e6
        save_dataset(TensorDataset(schema=d.schema, values=values,
                                   targets=d.targets, years=d.years),
                     tmp_path / "poisoned")

        poisoned_cfg = dict(base_cfg)
        poisoned_cfg["dataset"] = {"path": str(tmp_path / "poisoned")}
        poisoned_cfg["out_dir"] = str(tmp_path / "out_poisoned")
        path2 = _write_config(tmp_path / "poisoned.json", poisoned_cfg)
        assert select(path2) == 0

        clean = json.loads((tmp_path / "out_clean" / "selection.json").read_text())
        poisoned = json.loads(
            (tmp_path / "out_poisoned" / "selection.json").read_text())
        assert clean["ranking"][0]["architecture"] == "mlp"
        assert [r["index"] for r in clean["ranking"]] == \
               [r["index"] for r in poisoned["ranking"]]

        archs_c, val_c, test_c = _selection_csv_columns(
            tmp_path / "out_clean" / "selection.csv")
        archs_p, val_p, test_p = _selection_csv_columns(
            tmp_path / "out_poisoned" / "selection.csv")
        assert archs_c == archs_p and archs_c[0] == "mlp"
        assert val_c == val_p  # ranking inputs untouched by the poison
        assert test_c != test_p  # the poison did reach the test-only column


def test_model_selection_ignores_the_test_split_until_ranked(tmp_path):
    _selection_ignores_the_test_split_until_ranked(
        tmp_path, lambda path: main(["select", "--config", path]), "")


@forked_lanes
def test_forked_model_selection_ignores_the_test_split_until_ranked(tmp_path):
    def select(path):
        done = run_pinned("-m", "roarsel", "select", "--config", path)
        assert done.stderr == ""
        return done.returncode

    _selection_ignores_the_test_split_until_ranked(
        tmp_path, select, " (forked lanes)")
