"""Attribution estimators: hand oracles, Shapley axioms, ensemble collapses."""

import math

import numpy as np
import pytest

from roarsel import attribution, models
from roarsel.attribution import (
    AttributionMatrix,
    ExplainBudget,
    GroupingAxis,
    aggregate_rank,
    cell_span,
    feature_groups,
    FeatureGroups,
    mean_baseline,
    run_estimator,
)
from roarsel.data import Task, delete_bands, default_schema
from roarsel.engine import DTYPE, Graph
from roarsel.errors import EstimatorError
from roarsel.models import Architecture, Model, ModelSpec, build

from conftest import cell_groups, exact_shapley, grid_schema, linear, make_dataset

# a schema's task and class count
REG = (Task.REGRESSION, None)
CLS = (Task.CLASSIFICATION, 3)


def linear_model(weights) -> Model:
    """f(x) = w . x over a [1, D] grid."""
    w = np.asarray(weights, dtype=DTYPE).reshape(-1, 1)
    g = Graph(input_shape=(1, len(w)))
    wp = g.param("w", w)
    out = linear(g, g.flatten(g.input_node), wp)
    g.mark_output(out)
    g.mean_squared_error(out)
    return Model(spec=ModelSpec(Architecture.MLP), graph=g, task=Task.REGRESSION)


def symmetric_model(scale=1.3) -> Model:
    """f(x) = relu(s x_t0) + relu(s x_t1): symmetric in the two time steps."""
    g = Graph(input_shape=(2, 1))
    k = g.param("k", np.array([[[scale]]], dtype=DTYPE))
    h = g.relu(g.conv1d(g.input_node, k, g.param("bk", np.zeros(1, DTYPE))))
    ones = g.param("sum", np.ones((2, 1), dtype=DTYPE))
    out = linear(g, g.flatten(h), ones)
    g.mark_output(out)
    g.mean_squared_error(out)
    return Model(spec=ModelSpec(Architecture.MLP), graph=g, task=Task.REGRESSION)


def small_mlp(head=REG, t=2, b=3, seed=0) -> Model:
    spec = ModelSpec(Architecture.MLP, width=8)
    return build(spec, default_schema(t, b, *head), seed=seed)


def budget(**kw) -> ExplainBudget:
    return ExplainBudget(**kw)


def by_band(model: Model):
    return feature_groups(grid_schema(*model.graph.input_shape), GroupingAxis.BY_BAND)


def by_step(model: Model):
    return feature_groups(grid_schema(*model.graph.input_shape),
                          GroupingAxis.BY_TIMESTEP)


# -- grouping ----------------------------------------------------------------


def test_groupings_partition_the_grid():
    schema = default_schema(3, 4, Task.REGRESSION)
    for axis in GroupingAxis:
        groups = feature_groups(schema, axis)
        assert groups.mask.shape == (groups.n_groups, 3, 4)
        assert (groups.mask.sum(axis=0) == 1).all()
        cells = np.arange(12)
        assert groups.mask.reshape(groups.n_groups, 12)[groups.cell_group, cells].all()
    assert feature_groups(schema, GroupingAxis.BY_BAND).n_groups == 4
    assert feature_groups(schema, GroupingAxis.BY_TIMESTEP).n_groups == 3


def test_band_groups_keep_stable_ids_after_deletion():
    d = make_dataset(n=4, t=3, b=5)
    shrunk = delete_bands(d, {1, 3})
    groups = feature_groups(shrunk.schema, GroupingAxis.BY_BAND)
    assert groups.ids == (0, 2, 4)
    assert groups.mask.shape[2] == 3  # positions are current, ids are stable


def test_feature_groups_reject_a_mask_that_is_not_a_partition():
    good = feature_groups(grid_schema(2, 3), GroupingAxis.BY_BAND)
    overlap = good.mask.copy()
    overlap[0, 0, 1] = True
    uncovered = good.mask.copy()
    uncovered[2, 1, 2] = False
    for mask in (overlap, uncovered):
        with pytest.raises(EstimatorError, match="partition"):
            FeatureGroups(GroupingAxis.BY_BAND, good.ids, mask)
    with pytest.raises(EstimatorError, match="one id per group"):
        FeatureGroups(GroupingAxis.BY_BAND, good.ids[:2], good.mask)


# -- svs hand oracles --------------------------------------------------------


def test_svs_linear_singletons_recovers_weights():
    # f = 2 x0 + 3 x1, baseline 0: every permutation yields the same marginals
    model = linear_model([2.0, 3.0])
    x = np.ones((1, 1, 2), dtype=DTYPE)
    m = run_estimator("svs", model, x, cell_groups(1, 2), budget(n_permutations=16),
                      seed=0, baseline=np.zeros((1, 2), dtype=DTYPE))
    np.testing.assert_allclose(m.scores[0], [2.0, 3.0], atol=1e-6)
    np.testing.assert_allclose(m.stderr[0], [0.0, 0.0], atol=1e-6)


def test_svs_single_group_gets_full_difference():
    # both cells in one group: score = f(x) - f(baseline) = 5
    model = linear_model([2.0, 3.0])
    x = np.ones((1, 1, 2), dtype=DTYPE)
    m = run_estimator("svs", model, x, by_step(model), budget(n_permutations=8),
                      seed=0, baseline=np.zeros((1, 2), dtype=DTYPE))
    assert m.scores.shape == (1, 1)
    assert m.scores[0, 0] == pytest.approx(5.0, abs=1e-6)


def test_svs_at_baseline_is_zero():
    model = small_mlp()
    base = np.random.default_rng(0).normal(size=(2, 3)).astype(DTYPE)
    m = run_estimator("svs", model, base[None], cell_groups(2, 3),
                      budget(n_permutations=8), seed=1, baseline=base)
    np.testing.assert_array_equal(m.scores, np.zeros((1, 6), dtype=DTYPE))


def test_svs_deterministic_per_seed_and_keyed_by_sample_id():
    model = small_mlp(seed=3)
    x = np.random.default_rng(1).normal(size=(2, 2, 3)).astype(DTYPE)
    base = np.zeros((2, 3), dtype=DTYPE)
    groups = by_band(model)
    a = run_estimator("svs", model, x, groups, budget(n_permutations=16), seed=7,
                      baseline=base)
    b = run_estimator("svs", model, x, groups, budget(n_permutations=16), seed=7,
                      baseline=base)
    assert a.scores.tobytes() == b.scores.tobytes()
    # row for a sample depends on its id, not its batch position
    c = run_estimator("svs", model, x[::-1], groups, budget(n_permutations=16),
                      seed=7, baseline=base, sample_ids=[1, 0])
    np.testing.assert_array_equal(c.scores[::-1], a.scores)


def _permutation_positions(g, p, seed, sid):
    rng = np.random.default_rng(np.random.SeedSequence([seed, sid]))
    return np.argsort(np.stack([rng.permutation(g) for _ in range(p)]), axis=1)


def _reference_svs(model, samples, ids, groups, baseline, p, seed):
    """svs one sample and one composite at a time; svs must match its bytes.
    A sample's rows are the baseline, composites 1..G-1 of each permutation,
    then the sample, forwarded through ``Model.infer`` on their own."""
    g = groups.n_groups
    classes = model.infer(samples).argmax(axis=1)  # column 0 for regression
    scores = np.empty((len(samples), g), dtype=DTYPE)
    stderr = np.zeros_like(scores)
    for i, sid in enumerate(ids):
        pos = _permutation_positions(g, p, seed, sid)
        rows = [baseline]
        for j in range(p):
            for k in range(1, g):
                on = groups.mask[pos[j] < k].any(axis=0)
                rows.append(np.where(on, samples[i], baseline))
        rows.append(samples[i])
        out = model.infer(np.stack(rows).astype(DTYPE))[:, classes[i]].astype(np.float64)
        values = np.empty((p, g + 1))
        values[:, 0], values[:, g] = out[0], out[-1]
        values[:, 1:g] = out[1:-1].reshape(p, g - 1)
        marginals = np.take_along_axis(np.diff(values, axis=1), pos, axis=1)
        scores[i] = marginals.mean(axis=0)
        stderr[i] = marginals.std(axis=0, ddof=1) / math.sqrt(p)
    return scores, stderr


def _full_composite_svs(model, samples, ids, groups, baseline, p, seed):
    """svs forwarding every prefix 0..G of every permutation, P*(G+1) rows per
    sample: the same estimate as svs up to the last bits of a forward call."""
    g = groups.n_groups
    masks = groups.mask.reshape(g, -1).astype(np.uint8)
    prefix = np.arange(g + 1)[None, :, None]
    classes = None
    if model.task is Task.CLASSIFICATION:
        classes = model.graph.forward(samples).argmax(axis=1)
    scores = np.empty((len(samples), g), dtype=DTYPE)
    for i, sid in enumerate(ids):
        pos = _permutation_positions(g, p, seed, sid)
        cell_on = (pos[:, None, :] < prefix).astype(np.uint8) @ masks
        composites = np.where(
            cell_on.astype(bool), samples[i].reshape(-1), baseline.reshape(-1)
        ).astype(DTYPE).reshape(p * (g + 1), *samples.shape[1:])
        col = 0 if classes is None else int(classes[i])
        values = model.graph.forward(composites)[:, col].astype(np.float64)
        marginals = np.take_along_axis(
            np.diff(values.reshape(p, g + 1), axis=1), pos, axis=1
        )
        scores[i] = marginals.mean(axis=0)
    return scores


SVS_CASES = [
    pytest.param(REG, 2, 3, GroupingAxis.BY_BAND, id="reg-bands"),
    pytest.param(CLS, 2, 3, GroupingAxis.BY_TIMESTEP, id="cls-steps"),
    pytest.param(REG, 3, 1, GroupingAxis.BY_BAND, id="reg-one-group"),
    pytest.param(CLS, 3, 1, GroupingAxis.BY_BAND, id="cls-one-group"),
]


@pytest.mark.parametrize("block_rows", [200, 40])
@pytest.mark.parametrize("head, t, b, axis", SVS_CASES)
def test_svs_blocks_match_the_per_sample_reference(
    head, t, b, axis, block_rows, monkeypatch
):
    """Same bytes as the per-sample loop over several blocks and a partial one."""
    monkeypatch.setattr(attribution, "_BLOCK_ROWS", block_rows)
    model = small_mlp(head=head, t=t, b=b, seed=4)
    groups = feature_groups(grid_schema(t, b), axis)
    p = 8
    per_block = max(1, block_rows // (p * (groups.n_groups - 1) + 2))
    n = 3 * per_block + per_block // 2 + 1
    r = np.random.default_rng(6)
    x = r.normal(size=(n, t, b)).astype(DTYPE)
    base = r.normal(size=(t, b)).astype(DTYPE)
    ids = [1000 + 3 * i for i in range(n)]
    m = run_estimator("svs", model, x, groups, budget(n_permutations=p), seed=11,
                      baseline=base, sample_ids=ids)
    scores, stderr = _reference_svs(model, x, ids, groups, base, p, 11)
    assert m.scores.tobytes() == scores.tobytes()
    assert m.stderr.tobytes() == stderr.tobytes()

    # a subset straddling a block boundary gets the same rows as in the full run
    part = slice(per_block - 1, per_block + 2)
    sub = run_estimator("svs", model, x[part], groups, budget(n_permutations=p),
                        seed=11, baseline=base, sample_ids=ids[part])
    assert sub.scores.tobytes() == m.scores[part].tobytes()
    assert sub.stderr.tobytes() == m.stderr[part].tobytes()


@pytest.mark.parametrize("p", [1, 6])
@pytest.mark.parametrize("head, t, b, axis", SVS_CASES)
def test_svs_matches_the_full_composite_estimate(head, t, b, axis, p):
    """Forwarding prefixes 0 and G once per sample moves only the last bits."""
    model = small_mlp(head=head, t=t, b=b, seed=5)
    groups = feature_groups(grid_schema(t, b), axis)
    r = np.random.default_rng(8)
    x = r.normal(size=(9, t, b)).astype(DTYPE)
    base = r.normal(size=(t, b)).astype(DTYPE)
    ids = list(range(40, 49))
    m = run_estimator("svs", model, x, groups, budget(n_permutations=p), seed=3,
                      baseline=base, sample_ids=ids)
    full = _full_composite_svs(model, x, ids, groups, base, p, 3)
    np.testing.assert_allclose(m.scores, full, rtol=1e-5)


# -- exact shapley -----------------------------------------------------------


def test_exact_shapley_linear_closed_form():
    model = linear_model([2.0, 3.0])
    x = np.array([[[1.0, 0.5]]], dtype=DTYPE)
    scores = exact_shapley(model, x[0], cell_groups(1, 2),
                           np.zeros((1, 2), dtype=DTYPE))
    np.testing.assert_allclose(scores, [2.0, 1.5], atol=1e-6)


def test_exact_shapley_symmetry_axiom():
    model = symmetric_model()
    x = np.full((2, 1), 0.7, dtype=DTYPE)
    scores = exact_shapley(model, x, by_step(model), np.zeros((2, 1), dtype=DTYPE))
    assert scores[0] == pytest.approx(scores[1], abs=1e-6)


@pytest.mark.parametrize("head", [REG, CLS])
def test_exact_shapley_efficiency(head):
    """Scores sum to f(x) - f(baseline) for the explained scalar."""
    model = small_mlp(head=head, seed=5)
    r = np.random.default_rng(2)
    x = r.normal(size=(2, 3)).astype(DTYPE)
    base = r.normal(size=(2, 3)).astype(DTYPE)
    scores = exact_shapley(model, x, cell_groups(2, 3), base)
    out_x = model.graph.forward(x[None])
    col = int(out_x.argmax(axis=1)[0]) if head is CLS else 0
    f_x = float(out_x[0, col])
    f_base = float(model.graph.forward(base[None])[0, col])
    assert float(scores.sum()) == pytest.approx(f_x - f_base, abs=1e-4)


def test_exact_shapley_group_cap():
    model = small_mlp(t=4, b=4)
    with pytest.raises(EstimatorError, match="too many groups"):
        exact_shapley(model, np.zeros((4, 4), dtype=DTYPE),
                      cell_groups(4, 4), np.zeros((4, 4), dtype=DTYPE))


def test_svs_converges_to_exact():
    model = small_mlp(seed=6)
    r = np.random.default_rng(3)
    x = r.normal(size=(1, 2, 3)).astype(DTYPE)
    base = np.zeros((2, 3), dtype=DTYPE)
    exact = exact_shapley(model, x[0], cell_groups(2, 3), base)
    m = run_estimator("svs", model, x, cell_groups(2, 3),
                      budget(n_permutations=2048), seed=4, baseline=base)
    gap = np.abs(m.scores[0].astype(np.float64) - exact.astype(np.float64))
    bound = np.maximum(4.0 * m.stderr[0].astype(np.float64), 1e-4)
    assert (gap <= bound).all(), (gap, m.stderr[0])


def test_svs_standard_error_shrinks_with_permutations():
    """Reported SE scales like 1/sqrt(p): quadrupling p halves it twice."""
    model = small_mlp(seed=8)
    x = np.random.default_rng(5).normal(size=(1, 2, 3)).astype(DTYPE)
    base = np.zeros((2, 3), dtype=DTYPE)
    se16 = run_estimator("svs", model, x, cell_groups(2, 3),
                         budget(n_permutations=16), seed=9,
                         baseline=base).stderr.mean()
    se256 = run_estimator("svs", model, x, cell_groups(2, 3),
                          budget(n_permutations=256), seed=9,
                          baseline=base).stderr.mean()
    assert 0.15 < se256 / se16 < 0.40  # ideal ratio 0.25


# -- guided backprop ---------------------------------------------------------


def test_gb_linear_recovers_summed_weights():
    model = linear_model([2.0, -3.0])
    x = np.random.default_rng(0).normal(size=(4, 1, 2)).astype(DTYPE)
    m = run_estimator("gb", model, x, cell_groups(1, 2), budget(), seed=0)
    # linear graph has no relu, so guided = standard = the weights
    np.testing.assert_allclose(m.scores, np.tile([2.0, -3.0], (4, 1)), atol=1e-6)


def test_gb_constant_band_scores_zero():
    model = linear_model([2.0, 0.0])
    x = np.random.default_rng(0).normal(size=(3, 1, 2)).astype(DTYPE)
    m = run_estimator("gb", model, x,
                      by_band(model),
                      budget(), seed=0)
    np.testing.assert_array_equal(m.scores[:, 1], np.zeros(3, dtype=DTYPE))


def test_gb_identical_samples_identical_rows():
    model = small_mlp(head=CLS, seed=7)
    x = np.tile(np.random.default_rng(1).normal(size=(1, 2, 3)).astype(DTYPE), (5, 1, 1))
    m = run_estimator("gb", model, x, by_step(model), budget(), seed=0)
    for row in m.scores[1:]:
        np.testing.assert_array_equal(row, m.scores[0])


def test_gb_group_scores_sum_cells():
    model = linear_model([1.0, 2.0])
    x = np.ones((1, 1, 2), dtype=DTYPE)
    one_group = run_estimator("gb", model, x, by_step(model), budget(), seed=0)
    assert one_group.scores[0, 0] == pytest.approx(3.0, abs=1e-6)


# -- ensembles ---------------------------------------------------------------


def ensemble_fixture(seed=0):
    d = make_dataset(n=12, t=2, b=3, task=Task.REGRESSION, seed=seed)
    model = small_mlp(seed=seed)
    samples = d.values[:3].copy()
    return model, samples, cell_span(d), mean_baseline(d)


def test_sgs_zero_noise_is_elementwise_square_of_svs():
    model, samples, span, base = ensemble_fixture()
    quiet = budget(n_permutations=8, ensemble_size=5, noise_scale=0.0)
    base_m = run_estimator("svs", model, samples, by_band(model), quiet, seed=1,
                           baseline=base)
    sgs = run_estimator("sgs-svs", model, samples, by_band(model),
                        quiet, seed=1, baseline=base)
    assert sgs.scores.tobytes() == np.square(base_m.scores).tobytes()


def test_sgs_zero_noise_is_elementwise_square_of_gb():
    model, samples, span, base = ensemble_fixture(seed=2)
    quiet = budget(ensemble_size=5, noise_scale=0.0)
    base_m = run_estimator("gb", model, samples, by_band(model), quiet, seed=1)
    sgs = run_estimator("sgs-gb", model, samples, by_band(model),
                        quiet, seed=1)
    assert sgs.scores.tobytes() == np.square(base_m.scores).tobytes()


def test_sgs_single_replica_zero_noise_same_collapse():
    model, samples, span, base = ensemble_fixture(seed=3)
    quiet = budget(n_permutations=8, ensemble_size=1, noise_scale=0.0)
    base_m = run_estimator("svs", model, samples, by_band(model), quiet, seed=2,
                           baseline=base)
    sgs = run_estimator("sgs-svs", model, samples, by_band(model),
                        quiet, seed=2, baseline=base)
    assert sgs.scores.tobytes() == np.square(base_m.scores).tobytes()


def test_vargrad_zero_noise_is_exactly_zero():
    model, samples, span, base = ensemble_fixture(seed=4)
    quiet = budget(n_permutations=8, ensemble_size=5, noise_scale=0.0)
    for base_tag in ("svs", "gb"):
        m = run_estimator(f"vargrad-{base_tag}", model, samples,
                          by_band(model), quiet, seed=3, baseline=base)
        assert m.scores.tobytes() == np.zeros_like(m.scores).tobytes()


def test_noisy_ensembles_nonnegative_and_deterministic():
    model, samples, span, base = ensemble_fixture(seed=5)
    loud = budget(n_permutations=8, ensemble_size=5)
    for tag in ("sgs-gb", "vargrad-gb"):
        a = run_estimator(tag, model, samples, by_band(model), loud, seed=4,
                          noise_range=span)
        b_ = run_estimator(tag, model, samples, by_band(model), loud, seed=4,
                           noise_range=span)
        assert (a.scores >= 0).all()
        assert a.scores.tobytes() == b_.scores.tobytes()
        c = run_estimator(tag, model, samples, by_band(model), loud, seed=5,
                          noise_range=span)
        assert a.scores.tobytes() != c.scores.tobytes()


@pytest.mark.parametrize("head", [REG, CLS])
@pytest.mark.parametrize("tag", ["sgs-svs", "vargrad-svs"])
def test_noisy_svs_ensembles_are_per_sample(tag, head, monkeypatch):
    """Each sample's replicas draw from its own (seed, id, replica) streams,
    so its row does not depend on the other samples explained with it."""
    monkeypatch.setattr(attribution, "_BLOCK_ROWS", 100)
    model = small_mlp(head=head, seed=4)
    groups = by_band(model)
    p = 8
    per_block = attribution._BLOCK_ROWS // (p * (groups.n_groups - 1) + 2)
    n = 2 * per_block + 2
    r = np.random.default_rng(7)
    x = r.normal(size=(n, 2, 3)).astype(DTYPE)
    base = r.normal(size=(2, 3)).astype(DTYPE)
    span = np.abs(r.normal(size=(2, 3))).astype(DTYPE)
    ids = [500 + 2 * i for i in range(n)]
    loud = budget(n_permutations=p, ensemble_size=3, noise_scale=0.2)

    def run(part):
        return run_estimator(tag, model, x[part], groups, loud, seed=9, baseline=base,
                             noise_range=span, sample_ids=ids[part]).scores

    full = run(slice(None))
    assert run(slice(None)).tobytes() == full.tobytes()
    part = slice(per_block - 1, per_block + 2)
    assert run(part).tobytes() == full[part].tobytes()


def test_noisy_ensemble_requires_a_noise_range():
    model, samples, span, base = ensemble_fixture(seed=6)
    loud = budget(ensemble_size=3, noise_scale=0.2)
    with pytest.raises(EstimatorError, match="need a noise_range"):
        run_estimator("sgs-gb", model, samples, by_band(model), loud, seed=0)
    with pytest.raises(EstimatorError, match="noise_range shape"):
        run_estimator("sgs-gb", model, samples, by_band(model), loud, seed=0,
                      noise_range=span[0])


@pytest.mark.parametrize("kind", ["sgs", "vargrad"])
def test_replica_reduction_does_not_depend_on_the_block(kind):
    """Entry by entry, the reduction adds replicas in turn, as NumPy reduces a
    stack of several entries; NumPy adds a lone entry's 15 replicas pairwise."""
    stack = np.random.default_rng(2).normal(size=(15, 40, 1)).astype(DTYPE)
    whole = attribution._reduced(kind, stack)
    wide = stack.astype(np.float64)
    expected = np.mean(wide * wide, axis=0) if kind == "sgs" else np.var(wide, axis=0)
    assert whole.tobytes() == expected.tobytes()
    for i in range(40):
        alone = attribution._reduced(kind, stack[:, i:i + 1])
        assert alone.tobytes() == whole[i:i + 1].tobytes()


# -- call sizes and plans ----------------------------------------------------


@pytest.mark.parametrize("head", [REG, CLS])
@pytest.mark.parametrize("tag", attribution.ESTIMATOR_TAGS)
def test_forward_call_sizes(tag, head, monkeypatch):
    """Every forward call has ``TILE`` rows, however the samples fall into
    blocks: the last bits of a row depend on the size of the call that
    computed it."""
    monkeypatch.setattr(models, "TILE", 4)
    monkeypatch.setattr(attribution, "_BLOCK_ROWS", 12)
    model = small_mlp(head=head)  # T=2, B=3: three band groups
    sizes = []
    forward = model.graph.forward

    def counted(x, *args, **kwargs):
        sizes.append(len(x))
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(model.graph, "forward", counted)
    x = np.random.default_rng(3).normal(size=(5, 2, 3)).astype(DTYPE)
    run_estimator(tag, model, x, by_band(model),
                  budget(n_permutations=2, ensemble_size=2, noise_scale=0.2), seed=1,
                  baseline=np.zeros((2, 3), DTYPE), noise_range=np.ones((2, 3), DTYPE))
    replicas = 2 if "-" in tag else 1
    # the explained columns: 5 rows in 2 tiles
    if tag.endswith("gb"):  # one block of 5 samples: 2 tiles per replica
        calls = 2 + 2 * replicas
    else:  # 2 * (3 - 1) + 2 rows a sample, blocks of 2, 2 and 1 samples
        calls = 2 + (3 + 3 + 2) * replicas
    assert sizes == [4] * calls


FAMILIES = {
    "mlp": ModelSpec(Architecture.MLP, width=8),
    "tempcnn": ModelSpec(Architecture.TEMPCNN, depth=2, kernel_size=2, channels=4,
                         dense_size=8),
    "gru": ModelSpec(Architecture.GRU, hidden_size=4),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("head", [REG, CLS], ids=["reg", "cls"])
@pytest.mark.parametrize("tag", attribution.ESTIMATOR_TAGS)
def test_a_samples_scores_depend_on_it_alone(tag, head, family, monkeypatch):
    """A sample's scores and svs stderr have the same bytes explained alone,
    at any position in any block, and in a call of any size."""
    monkeypatch.setattr(attribution, "_BLOCK_ROWS", 24)  # gb: 24 samples a block
    schema = grid_schema(3, 4, head[1])
    model = build(FAMILIES[family], schema, seed=2)
    groups = feature_groups(schema, GroupingAxis.BY_TIMESTEP)  # svs: 10 rows a sample
    x = np.random.default_rng(10).normal(size=(30, 3, 4)).astype(DTYPE)
    base, ids = x.mean(axis=0), np.arange(200, 230)
    loud = budget(n_permutations=4, ensemble_size=2, noise_scale=0.3)

    def run(part):
        return run_estimator(tag, model, x[part], groups, loud, seed=8, baseline=base,
                             noise_range=np.ones((3, 4), DTYPE), sample_ids=ids[part])

    full = run(slice(None))
    for part in [slice(i, i + 1) for i in (0, 5, 13, 23, 24, 29)] + [slice(7, 20)]:
        m = run(part)
        assert m.scores.tobytes() == full.scores[part].tobytes(), part
        if tag == "svs":
            assert m.stderr.tobytes() == full.stderr[part].tobytes(), part


@pytest.mark.parametrize("tag", attribution.ESTIMATOR_TAGS)
def test_each_sample_draws_its_permutations_once_per_call(tag, monkeypatch):
    """One (seed, id) stream per sample and call feeds its permutations and
    then every replica's noise; plain gb draws nothing."""
    monkeypatch.setattr(attribution, "_BLOCK_ROWS", 30)
    model = small_mlp(seed=2)
    lengths = []
    real = np.random.SeedSequence

    def counted(entropy, *args, **kwargs):
        lengths.append(len(entropy))
        return real(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    x = np.random.default_rng(4).normal(size=(7, 2, 3)).astype(DTYPE)
    run_estimator(tag, model, x, by_band(model),
                  budget(n_permutations=2, ensemble_size=3, noise_scale=0.2), seed=5,
                  baseline=np.zeros((2, 3), DTYPE), noise_range=np.ones((2, 3), DTYPE))
    assert lengths.count(2) == (0 if tag == "gb" else 7)
    assert len(lengths) == lengths.count(2)


# -- aggregation -------------------------------------------------------------


def matrix(scores, ids=None, axis=GroupingAxis.BY_BAND):
    scores = np.asarray(scores, dtype=DTYPE)
    ids = tuple(range(scores.shape[1])) if ids is None else tuple(ids)
    return AttributionMatrix(
        sample_ids=tuple(range(scores.shape[0])), axis=axis,
        group_ids=ids, scores=scores, estimator_tag="gb",
    )


def test_aggregate_rank_hand_case():
    # means of |scores| are [1, 3] -> group 1 first
    r = aggregate_rank(matrix([[1.0, -3.0], [-1.0, 3.0]]))
    assert r.group_ids == (1, 0)
    assert r.scores == (3.0, 1.0)


def test_aggregate_rank_all_zero_falls_back_to_ascending_ids():
    r = aggregate_rank(matrix(np.zeros((3, 4)), ids=(2, 5, 7, 9)))
    assert r.group_ids == (2, 5, 7, 9)


def test_aggregate_rank_single_sample():
    r = aggregate_rank(matrix([[0.5, -2.0, 1.0]]))
    assert r.group_ids == (1, 2, 0)


def test_aggregate_rank_invariant_under_sample_order():
    scores = np.random.default_rng(0).normal(size=(6, 4)).astype(DTYPE)
    perm = np.random.default_rng(1).permutation(6)
    assert aggregate_rank(matrix(scores)) == aggregate_rank(matrix(scores[perm]))


def test_ranking_invariant_under_positive_rescale():
    scores = np.random.default_rng(2).normal(size=(5, 4)).astype(DTYPE)
    a = aggregate_rank(matrix(scores))
    b = aggregate_rank(matrix(scores * 7.25))
    assert a.group_ids == b.group_ids


def test_top_and_bottom_selectors():
    r = aggregate_rank(matrix([[4.0, 1.0, 3.0, 2.0]]))
    assert r.group_ids == (0, 2, 3, 1)
    assert r.top(2) == (0, 2)
    assert r.bottom(2) == (3, 1)


# -- budget ------------------------------------------------------------------


def test_budget_noise_range_is_per_cell_span():
    d = make_dataset(n=15, t=2, b=3)
    span = d.values.max(axis=0) - d.values.min(axis=0)
    assert cell_span(d).dtype == DTYPE
    np.testing.assert_allclose(cell_span(d), span, rtol=1e-6)


def test_budget_validation():
    with pytest.raises(EstimatorError):
        budget(n_permutations=0)
    with pytest.raises(EstimatorError):
        budget(noise_scale=-0.1)
    with pytest.raises(EstimatorError):
        budget(n_samples=0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_budget_rejects_a_non_finite_noise_scale(scale):
    # a NaN scale used to noise nothing, and an infinite one zeroed every score
    with pytest.raises(EstimatorError, match=f"noise scale must be finite, got {scale}"):
        budget(noise_scale=scale)


# -- dispatch and serialization ----------------------------------------------


def test_run_estimator_dispatch_covers_all_tags():
    model, samples, span, base = ensemble_fixture(seed=7)
    small = budget(n_permutations=4, ensemble_size=2, noise_scale=0.0)
    for tag in ("svs", "gb", "sgs-svs", "sgs-gb", "vargrad-svs", "vargrad-gb"):
        m = run_estimator(tag, model, samples, by_band(model),
                          small, seed=0, baseline=base)
        assert m.estimator_tag == tag
        assert m.scores.shape == (3, 3)


def test_run_estimator_rejects_unknown_tag():
    model, samples, span, base = ensemble_fixture(seed=8)
    with pytest.raises(EstimatorError, match="unknown estimator tag"):
        run_estimator("lrp", model, samples, by_band(model),
                      budget(), seed=0, baseline=base)


def test_svs_requires_baseline_via_dispatch():
    model, samples, span, base = ensemble_fixture(seed=9)
    with pytest.raises(EstimatorError, match="baseline"):
        run_estimator("svs", model, samples, by_band(model),
                      budget(n_permutations=4), seed=0)


@pytest.mark.parametrize("bad, message", [
    (dict(n=0), "samples must hold at least one sample"),
    (dict(ids=[3, -4]), "sample_ids must not be negative, got -4"),
    (dict(seed=-1), "seed must not be negative, got -1"),
    (dict(samples=np.nan), "samples must be finite"),
    (dict(baseline=np.nan), "baseline must be finite"),
    (dict(noise_range=np.inf), "noise_range must be finite"),
    (dict(noise_scale=1e300), "noise_scale 1e.300 times noise_range exceeds float32"),
], ids=["no-samples", "negative-id", "negative-seed", "nan-sample", "nan-baseline",
        "infinite-noise-range", "huge-noise-scale"])
@pytest.mark.parametrize("head", [REG, CLS])
@pytest.mark.parametrize("tag", attribution.ESTIMATOR_TAGS)
def test_bad_input_is_named_before_any_forward(tag, head, bad, message, monkeypatch):
    model = small_mlp(head=head)

    def forward(*args, **kwargs):
        raise AssertionError("forward ran before the inputs were checked")

    monkeypatch.setattr(model.graph, "forward", forward)
    x = np.zeros((bad.get("n", 2), 2, 3), dtype=DTYPE)
    x[-1:, 1, 2] = bad.get("samples", 0.0)
    cells = {name: np.ones((2, 3), dtype=DTYPE) for name in ("baseline", "noise_range")}
    for name, c in cells.items():
        c[0, 1] = bad.get(name, 1.0)
    with pytest.raises(EstimatorError, match=message):
        run_estimator(tag, model, x, by_band(model),
                      budget(noise_scale=bad.get("noise_scale", 0.15)),
                      seed=bad.get("seed", 0), sample_ids=bad.get("ids"), **cells)


@pytest.mark.parametrize("tag", ["sgs-gb", "vargrad-gb", "sgs-svs", "vargrad-svs"])
def test_noise_beyond_float32_range_fails_instead_of_zeroing_scores(tag):
    # each cell's standard deviation fits float32, but most draws overflow it;
    # this used to zero some samples' scores with only a RuntimeWarning
    model = small_mlp()
    x = np.random.default_rng(0).normal(size=(3, 2, 3)).astype(DTYPE)
    ones = np.ones((2, 3), dtype=DTYPE)
    with pytest.raises(EstimatorError, match="a noised sample leaves float32 range"):
        run_estimator(tag, model, x, by_band(model),
                      budget(n_permutations=2, ensemble_size=2, noise_scale=3e38),
                      seed=1, baseline=ones, noise_range=ones)


def test_shape_mismatch_rejected():
    model = small_mlp()
    bad = np.zeros((2, 3, 4), dtype=DTYPE)
    with pytest.raises(EstimatorError, match="does not match model input"):
        run_estimator("gb", model, bad, by_band(model), budget(), seed=0)
    with pytest.raises(EstimatorError, match="baseline shape"):
        run_estimator("svs", model, np.zeros((1, 2, 3), dtype=DTYPE), by_band(model),
                      budget(), seed=0, baseline=np.zeros((3, 2), dtype=DTYPE))


def test_groups_over_another_grid_rejected():
    model = small_mlp()  # input (2, 3)
    other = feature_groups(grid_schema(3, 2), GroupingAxis.BY_BAND)
    x = np.zeros((1, 2, 3), dtype=DTYPE)
    with pytest.raises(EstimatorError, match="groups over"):
        run_estimator("gb", model, x, other, budget(), seed=0)
    with pytest.raises(EstimatorError, match="groups over"):
        exact_shapley(model, x[0], other, np.zeros((2, 3), dtype=DTYPE))


def test_mean_baseline_matches_per_cell_average():
    d = make_dataset(n=9, t=2, b=3)
    np.testing.assert_allclose(
        mean_baseline(d), d.values.mean(axis=0), rtol=1e-6, atol=1e-7
    )
