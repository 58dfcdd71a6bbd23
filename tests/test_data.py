import json

import numpy as np
import pytest

from roarsel.data import (
    Band,
    DatasetError,
    FeatureSchema,
    Task,
    TensorDataset,
    TimeStep,
    default_schema,
    delete_bands,
    delete_timesteps,
    load_dataset,
    save_dataset,
    split_by_year,
)

from conftest import make_dataset


class TestSchema:
    def test_ids_must_increase(self):
        with pytest.raises(DatasetError, match="strictly increasing"):
            FeatureSchema(
                bands=(Band(1, "a", "m"), Band(0, "b", "m")),
                timesteps=(TimeStep(0, "t0"),),
                task=Task.REGRESSION,
            )

    def test_classification_needs_two_classes(self):
        with pytest.raises(DatasetError, match="n_classes"):
            default_schema(2, 2, Task.CLASSIFICATION, n_classes=1)

    def test_stable_ids_survive_deletion(self):
        d = make_dataset(b=6)
        out = delete_bands(d, {3})
        assert out.schema.band_ids == (0, 1, 2, 4, 5)


class TestRoundTrip:
    def test_shape_passthrough(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.shape == (4, 3, 2)

    def test_bit_identical(self, tmp_path):
        d = make_dataset(n=7, t=5, b=4)
        save_dataset(d, tmp_path / "a")
        loaded = load_dataset(tmp_path / "a")
        assert loaded == d
        # byte level: saving the loaded dataset reproduces identical files
        save_dataset(loaded, tmp_path / "b")
        for name in ("manifest", "values.bin", "targets.bin", "years.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_classification_round_trip(self, tmp_path, tiny_classification):
        save_dataset(tiny_classification, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded == tiny_classification
        assert loaded.targets.dtype == np.int64

    def test_payload_size_mismatch(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        payload = tmp_path / "values.bin"
        raw = payload.read_bytes()
        # header declares [4,3,2] (24 floats) but we truncate the file to 20
        payload.write_bytes(raw[: 20 + 4 * 20])
        with pytest.raises(DatasetError, match="payload size mismatch"):
            load_dataset(tmp_path)

    def test_values_payload_length(self, tmp_path):
        # magic(4) + version(4) + N,T,B(12) = 20 bytes of header, then f32 data
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        assert (tmp_path / "values.bin").stat().st_size == 20 + 4 * 4 * 3 * 2
        assert (tmp_path / "targets.bin").stat().st_size == 12 + 4 * 4
        assert (tmp_path / "years.bin").stat().st_size == 12 + 4 * 4

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="missing manifest"):
            load_dataset(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        d = make_dataset()
        save_dataset(d, tmp_path)
        (tmp_path / "manifest").write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt manifest"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("classes", [False, True])
    def test_manifest_without_unset_class_keys_loads(self, tmp_path, classes,
                                                     tiny_classification):
        """The older layout left out n_classes and class_names when unset."""
        d = tiny_classification if classes else make_dataset()
        save_dataset(d, tmp_path)
        manifest = json.loads((tmp_path / "manifest").read_text())
        older = {k: v for k, v in manifest.items() if v is not None}
        assert len(older) < len(manifest)
        (tmp_path / "manifest").write_text(json.dumps(older))
        assert load_dataset(tmp_path) == d

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_manifest_id_must_be_an_integer(self, tmp_path, value):
        save_dataset(make_dataset(), tmp_path)
        manifest = json.loads((tmp_path / "manifest").read_text())
        manifest["bands"][0]["id"] = value
        (tmp_path / "manifest").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError,
                           match=r"corrupt manifest .*manifest\.bands\[0\]\.id must be an integer"):
            load_dataset(tmp_path)

    def test_dimension_mismatch(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        other = make_dataset(n=4, t=3, b=5)
        import roarsel.data as data_mod

        data_mod.write_payload(tmp_path / "values.bin", other.values, "f32")
        with pytest.raises(DatasetError, match="dimension mismatch"):
            load_dataset(tmp_path)

    def test_empty_dataset_rejected(self, tmp_path):
        d = make_dataset(n=4)
        empty = d.take(np.array([], dtype=int))
        with pytest.raises(DatasetError, match="empty dataset"):
            save_dataset(empty, tmp_path)

    def test_nan_rejected_before_write(self, tmp_path):
        d = make_dataset()
        bad = d.values.copy()
        bad[0, 0, 0] = np.nan
        object.__setattr__(d, "values", bad)  # simulate corruption in place
        with pytest.raises(DatasetError, match="non-finite"):
            save_dataset(d, tmp_path)
        assert not (tmp_path / "values.bin").exists()

    def test_loader_rejects_non_finite(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        bad = d.values.copy()
        bad[1, 1, 1] = np.inf
        import roarsel.data as data_mod

        data_mod.write_payload(tmp_path / "values.bin", bad, "f32")
        with pytest.raises(DatasetError, match="non-finite"):
            load_dataset(tmp_path)


class TestSplitByYear:
    def _dataset_with_years(self, years):
        years = np.asarray(years)
        return make_dataset(n=len(years), years=years)

    def test_recent_years_held_out(self):
        years = np.repeat(np.arange(2016, 2022), 4)
        d = self._dataset_with_years(years)
        split = split_by_year(d, holdout_years=2, seed=1)
        assert set(np.unique(split.train.years)) == {2016, 2017, 2018, 2019}
        held = np.concatenate([split.validation.years, split.test.years])
        assert set(np.unique(held)) == {2020, 2021}
        assert len(split.validation.years) == len(split.test.years)

    @pytest.mark.parametrize("pool,expect_val", [(10, 5), (11, 6)])
    def test_fifty_fifty_rule(self, pool, expect_val):
        years = np.array([2000] * 8 + [2001] * (pool // 2) + [2002] * (pool - pool // 2))
        d = self._dataset_with_years(years)
        split = split_by_year(d, holdout_years=2, seed=0)
        assert split.validation.n_samples == expect_val
        assert split.test.n_samples == pool - expect_val

    def test_deterministic_membership(self):
        years = np.repeat(np.arange(2010, 2016), 5)
        d = self._dataset_with_years(years)
        a = split_by_year(d, seed=42)
        b = split_by_year(d, seed=42)
        assert a.validation == b.validation
        assert a.test == b.test

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        years = rng.integers(2010, 2018, size=40)
        d = self._dataset_with_years(years)
        split = split_by_year(d, seed=7)
        total = split.train.n_samples + split.validation.n_samples + split.test.n_samples
        assert total == d.n_samples
        # every sample appears exactly once: match on unique noise values
        key = d.values[:, 0, 0]
        seen = np.concatenate(
            [s.values[:, 0, 0] for s in (split.train, split.validation, split.test)]
        )
        assert np.array_equal(np.sort(key), np.sort(seen))

    def test_holdout_too_small_for_validation_and_test(self):
        d = self._dataset_with_years([2016] * 4 + [2020, 2021])
        with pytest.raises(DatasetError, match=r"holdout years \[2021\] hold 1 sample"):
            split_by_year(d, holdout_years=1)

    def test_too_few_years(self):
        d = self._dataset_with_years([2020] * 4 + [2021] * 4)
        with pytest.raises(DatasetError, match="too few distinct years"):
            split_by_year(d, holdout_years=2)


class TestDeletion:
    def test_delete_bands_bookkeeping(self):
        d = make_dataset(n=6, t=4, b=5)
        out = delete_bands(d, {1, 3})
        assert out.schema.band_ids == (0, 2, 4)
        assert out.shape == (6, 4, 3)
        np.testing.assert_array_equal(out.values, d.values[:, :, [0, 2, 4]])

    def test_delete_empty_is_identity(self):
        d = make_dataset()
        assert delete_bands(d, set()) == d
        assert delete_timesteps(d, set()) == d

    def test_delete_all_bands_rejected(self):
        d = make_dataset(b=5)
        with pytest.raises(DatasetError, match="cannot delete every band"):
            delete_bands(d, {0, 1, 2, 3, 4})

    def test_delete_unknown_band(self):
        d = make_dataset(b=3)
        with pytest.raises(DatasetError, match="unknown band id"):
            delete_bands(d, {9})

    def test_delete_timesteps_keeps_labels(self):
        d = make_dataset(n=3, t=12, b=2)
        out = delete_timesteps(d, set(range(6)))
        assert out.shape == (3, 6, 2)
        assert [t.label for t in out.schema.timesteps] == [
            f"t{i:02d}" for i in range(6, 12)
        ]

    def test_delete_all_timesteps_rejected(self):
        d = make_dataset(t=4)
        with pytest.raises(DatasetError):
            delete_timesteps(d, {0, 1, 2, 3})

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_property(self, seed):
        rng = np.random.default_rng(seed)
        d = make_dataset(n=5, t=6, b=7, seed=seed)
        ids = rng.permutation(7)
        a, b2 = set(ids[:2].tolist()), set(ids[2:4].tolist())
        lhs = delete_bands(delete_bands(d, a), b2)
        rhs = delete_bands(d, a | b2)
        assert lhs == rhs

    def test_stable_ids_after_two_rounds(self):
        d = make_dataset(b=6)
        out = delete_bands(delete_bands(d, {3}), {1})
        assert out.schema.band_ids == (0, 2, 4, 5)
