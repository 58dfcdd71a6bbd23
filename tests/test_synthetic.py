"""Planted-signal generator: ground truth, determinism, year layout."""

import numpy as np
import pytest

from roarsel.codec import decode, encode
from roarsel.data import Task
from roarsel.errors import DatasetError
from roarsel.synthetic import PlantSpec, generate


def spec(**kw) -> PlantSpec:
    base = dict(n=100, t=4, b=3, signal_bands=frozenset({2}),
                signal_steps=frozenset(range(4)))
    base.update(kw)
    return PlantSpec(**base)


def test_noise_free_signal_band_explains_target_exactly():
    """Linear probe on band 2 (the sum of its cells) reaches R^2 = 1."""
    d = generate(spec(noise=0.0), seed=0)
    probe = d.values[:, :, 2].sum(axis=1)
    residual = d.targets.astype(np.float64) - probe
    ss_tot = np.sum((d.targets - d.targets.mean()) ** 2)
    assert np.sum(residual**2) / ss_tot < 1e-9


def test_irrelevant_cells_uncorrelated_with_target():
    d = generate(spec(n=10_000, noise=0.5), seed=1)
    y = d.targets.astype(np.float64)
    y = (y - y.mean()) / y.std()
    for b_ in (0, 1):  # non-signal bands
        for t_ in range(4):
            x = d.values[:, t_, b_].astype(np.float64)
            corr = np.mean((x - x.mean()) / x.std() * y)
            assert abs(corr) <= 0.05, (t_, b_, corr)


def test_generator_is_deterministic():
    a = generate(spec(noise=0.3), seed=42)
    b = generate(spec(noise=0.3), seed=42)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()
    assert a.years.tobytes() == b.years.tobytes()
    c = generate(spec(noise=0.3), seed=43)
    assert a.values.tobytes() != c.values.tobytes()


def test_years_round_robin():
    d = generate(spec(n=10, year_start=2018, n_years=3), seed=0)
    np.testing.assert_array_equal(
        d.years, 2018 + np.arange(10) % 3
    )


@pytest.mark.parametrize("n, year_start, n_years, years", [
    (10, -3, 4, "-3 to 0"),
    (10, -1, 1, "-1 to -1"),
    (10, 2**32 - 3, 4, "4294967293 to 4294967296"),
    (2, 2**32 - 1, 4, "4294967295 to 4294967296"),
])
def test_years_outside_u32_are_rejected(n, year_start, n_years, years):
    """The dataset file stores years as u32: a plant whose years leave that
    range is refused before anything is drawn."""
    with pytest.raises(DatasetError, match=f"years {years} must lie in"):
        spec(n=n, year_start=year_start, n_years=n_years)


@pytest.mark.parametrize("n, year_start, n_years", [
    (10, 0, 4), (10, 2**32 - 4, 4), (3, 2**32 - 3, 100), (1, 2**32 - 1, 5),
    (3, 0, 2**63), (3, 2016, 10**30)])
def test_years_at_the_ends_of_u32_are_kept(n, year_start, n_years):
    """So is an ``n_years`` beyond int64: each sample's year still fits."""
    d = generate(spec(n=n, year_start=year_start, n_years=n_years), seed=0)
    assert d.years.min() == year_start and d.years.max() < 2**32


def test_classification_thresholds_latent_at_zero():
    reg = generate(spec(noise=0.0), seed=7)
    cls = generate(spec(noise=0.0, task=Task.CLASSIFICATION), seed=7)
    np.testing.assert_array_equal(cls.targets, (reg.targets > 0).astype(np.int64))
    assert cls.schema.task is Task.CLASSIFICATION
    assert cls.schema.n_classes == 2
    # same seed, same draw order: inputs agree between the two tasks
    assert cls.values.tobytes() == reg.values.tobytes()


def test_cell_weights_override_uniform_weight():
    s = spec(t=1, signal_steps=frozenset({0}), signal_bands=frozenset({0, 2}),
             weight=2.0, cell_weights={(0, 2): 5.0}, noise=0.0)
    d = generate(s, seed=3)
    expected = 2.0 * d.values[:, 0, 0] + 5.0 * d.values[:, 0, 2]
    np.testing.assert_allclose(d.targets, expected, rtol=1e-6)


def test_spec_validation():
    with pytest.raises(DatasetError, match="non-empty"):
        spec(signal_bands=frozenset())
    with pytest.raises(DatasetError, match="out of range"):
        spec(signal_bands=frozenset({9}))
    with pytest.raises(DatasetError, match="noise"):
        spec(noise=-0.1)
    with pytest.raises(DatasetError, match="non-signal cell"):
        spec(cell_weights={(0, 1): 2.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["weight", "noise", "cell_weights"])
def test_spec_rejects_a_non_finite_real(field, value):
    """Refused when built, naming the field, before anything is drawn."""
    kw = {"cell_weights": {(0, 2): value}} if field == "cell_weights" else {field: value}
    with pytest.raises(DatasetError, match=f"^{field} .*must be finite, got {value}$"):
        spec(**kw)


def test_a_plant_too_large_to_allocate_is_a_dataset_error():
    """Below NumPy's byte limit, so the spec holds, but beyond any address
    space."""
    with pytest.raises(DatasetError, match=f"^cannot allocate a plant of N={10**17}, "
                                           "T=4, B=3: "):
        generate(spec(n=10**17), seed=0)


def test_spec_dict_round_trip():
    s = spec(noise=0.25, task=Task.CLASSIFICATION,
             cell_weights={(1, 2): 3.0})
    assert decode(PlantSpec, encode(s), "plant") == s
