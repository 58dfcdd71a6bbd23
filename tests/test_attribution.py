"""Attribution estimators: hand oracles, Shapley axioms, ensemble collapses."""

import math

import numpy as np
import pytest

from roarsel import attribution
from roarsel.attribution import (
    AttributionMatrix,
    ExplainBudget,
    GroupingAxis,
    aggregate_rank,
    cell_span,
    exact_shapley,
    feature_groups,
    FeatureGroups,
    mean_baseline,
    run_estimator,
)
from roarsel.data import Task, delete_bands, default_schema
from roarsel.engine import DTYPE, Graph
from roarsel.errors import EstimatorError
from roarsel.models import Architecture, Head, Model, ModelSpec, build

from conftest import cell_groups, make_dataset

REG = Head(task=Task.REGRESSION)
CLS = Head(task=Task.CLASSIFICATION, n_classes=3)


def linear_model(weights) -> Model:
    """f(x) = w . x over a [1, D] grid."""
    w = np.asarray(weights, dtype=DTYPE).reshape(-1, 1)
    g = Graph(input_shape=(1, len(w)))
    wp = g.param("w", w)
    out = g.matmul(g.flatten(g.input_node), wp)
    g.mark_output(out)
    g.mean_squared_error(out)
    return Model(spec=ModelSpec(Architecture.MLP, REG), graph=g, input_shape=(1, len(w)))


def symmetric_model(scale=1.3) -> Model:
    """f(x) = tanh(s x_t0) + tanh(s x_t1): symmetric in the two time steps."""
    g = Graph(input_shape=(2, 1))
    k = g.param("k", np.array([[[scale]]], dtype=DTYPE))
    h = g.tanh(g.conv1d(g.input_node, k))
    ones = g.param("sum", np.ones((2, 1), dtype=DTYPE))
    out = g.matmul(g.flatten(h), ones)
    g.mark_output(out)
    g.mean_squared_error(out)
    return Model(spec=ModelSpec(Architecture.MLP, REG), graph=g, input_shape=(2, 1))


def small_mlp(head=REG, t=2, b=3, seed=0) -> Model:
    spec = ModelSpec(Architecture.MLP, head, width=8)
    return build(spec, t, b, seed=seed)


def budget(**kw) -> ExplainBudget:
    return ExplainBudget(**kw)


def by_band(model: Model):
    return feature_groups(model.input_shape, GroupingAxis.BY_BAND)


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
    good = feature_groups((2, 3), GroupingAxis.BY_BAND)
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
    m = run_estimator("svs", model, x,
                      feature_groups(model.input_shape, GroupingAxis.BY_TIMESTEP),
                      budget(n_permutations=8), seed=0,
                      baseline=np.zeros((1, 2), dtype=DTYPE))
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


def _reference_svs(model, samples, ids, groups, baseline, p, seed):
    """svs one sample and one permutation at a time; svs must match its bytes."""
    g = groups.n_groups
    masks = groups.mask.reshape(g, -1).astype(np.uint8)
    prefix = np.arange(g + 1)[None, :, None]
    classes = None
    if model.spec.head.task is Task.CLASSIFICATION:
        classes = model.forward(samples).argmax(axis=1)
    scores = np.empty((len(samples), g), dtype=DTYPE)
    stderr = np.zeros_like(scores)
    for i, sid in enumerate(ids):
        rng = np.random.default_rng(np.random.SeedSequence([seed, sid]))
        perms = np.stack([rng.permutation(g) for _ in range(p)])
        pos = np.argsort(perms, axis=1)
        cell_on = (pos[:, None, :] < prefix).astype(np.uint8) @ masks
        composites = np.where(
            cell_on.astype(bool), samples[i].reshape(-1), baseline.reshape(-1)
        ).astype(DTYPE).reshape(p * (g + 1), *samples.shape[1:])
        col = 0 if classes is None else int(classes[i])
        values = model.forward(composites)[:, col].astype(np.float64)
        marginals = np.take_along_axis(
            np.diff(values.reshape(p, g + 1), axis=1), pos, axis=1
        )
        scores[i] = marginals.mean(axis=0)
        stderr[i] = marginals.std(axis=0, ddof=1) / math.sqrt(p)
    return scores, stderr


SVS_CASES = [
    pytest.param(REG, 2, 3, GroupingAxis.BY_BAND, id="reg-bands"),
    pytest.param(CLS, 2, 3, GroupingAxis.BY_TIMESTEP, id="cls-steps"),
    pytest.param(REG, 3, 1, GroupingAxis.BY_BAND, id="reg-one-group"),
    pytest.param(CLS, 3, 1, GroupingAxis.BY_BAND, id="cls-one-group"),
]


@pytest.mark.parametrize("block_rows", [None, 40])
@pytest.mark.parametrize("head, t, b, axis", SVS_CASES)
def test_svs_blocks_match_the_per_sample_reference(
    head, t, b, axis, block_rows, monkeypatch
):
    """Same bytes as the per-sample loop over several blocks and a partial one."""
    if block_rows is not None:
        monkeypatch.setattr(attribution, "_SVS_BLOCK_ROWS", block_rows)
    model = small_mlp(head=head, t=t, b=b, seed=4)
    groups = feature_groups((t, b), axis)
    p = 8
    per_block = max(1, attribution._SVS_BLOCK_ROWS // (p * (groups.n_groups + 1)))
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
    scores = exact_shapley(model, x,
                           feature_groups(model.input_shape, GroupingAxis.BY_TIMESTEP),
                           np.zeros((2, 1), dtype=DTYPE))
    assert scores[0] == pytest.approx(scores[1], abs=1e-6)


@pytest.mark.parametrize("head", [REG, CLS])
def test_exact_shapley_efficiency(head):
    """Scores sum to f(x) - f(baseline) for the explained scalar."""
    model = small_mlp(head=head, seed=5)
    r = np.random.default_rng(2)
    x = r.normal(size=(2, 3)).astype(DTYPE)
    base = r.normal(size=(2, 3)).astype(DTYPE)
    scores = exact_shapley(model, x, cell_groups(2, 3), base)
    out_x = model.forward(x[None])
    col = int(out_x.argmax(axis=1)[0]) if head is CLS else 0
    f_x = float(out_x[0, col])
    f_base = float(model.forward(base[None])[0, col])
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
    m = run_estimator("gb", model, x,
                      feature_groups(model.input_shape, GroupingAxis.BY_TIMESTEP),
                      budget(), seed=0)
    for row in m.scores[1:]:
        np.testing.assert_array_equal(row, m.scores[0])


def test_gb_group_scores_sum_cells():
    model = linear_model([1.0, 2.0])
    x = np.ones((1, 1, 2), dtype=DTYPE)
    by_step = run_estimator(  # single group
        "gb", model, x, feature_groups(model.input_shape, GroupingAxis.BY_TIMESTEP),
        budget(), seed=0,
    )
    assert by_step.scores[0, 0] == pytest.approx(3.0, abs=1e-6)


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


def test_noisy_ensemble_requires_a_noise_range():
    model, samples, span, base = ensemble_fixture(seed=6)
    loud = budget(ensemble_size=3, noise_scale=0.2)
    with pytest.raises(EstimatorError, match="need a noise_range"):
        run_estimator("sgs-gb", model, samples, by_band(model), loud, seed=0)
    with pytest.raises(EstimatorError, match="noise_range shape"):
        run_estimator("sgs-gb", model, samples, by_band(model), loud, seed=0,
                      noise_range=span[0])


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
    other = feature_groups((3, 2), GroupingAxis.BY_BAND)
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
