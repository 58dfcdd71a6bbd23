import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import roarsel.data as data_mod
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
    write_atomic,
)

from conftest import make_dataset, write_version_1_dataset


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

    def test_classification_needs_a_class_count(self):
        with pytest.raises(DatasetError, match="n_classes"):
            default_schema(2, 2, Task.CLASSIFICATION)

    def test_regression_takes_no_class_count(self):
        with pytest.raises(DatasetError, match="must not declare n_classes"):
            default_schema(2, 2, Task.REGRESSION, n_classes=3)

    def test_stable_ids_survive_deletion(self):
        d = make_dataset(b=6)
        out = delete_bands(d, {3})
        assert out.schema.band_ids == (0, 1, 2, 4, 5)


def write_dataset_file(root, manifest, values, targets, years):
    """The dataset file's layout, written without ``save_dataset``: the magic,
    five u32 (version, manifest length, N, T, B), the manifest padded with
    spaces so the arrays start 64-aligned, then f32 values and targets and u32
    years."""
    if not isinstance(manifest, bytes):
        manifest = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    manifest += b" " * (-(24 + len(manifest)) % 64)
    values = np.asarray(values, dtype="<f4")
    (root / "dataset.mmts").write_bytes(b"".join((
        struct.pack("<4s5I", b"MMTS", 2, len(manifest), *values.shape),
        manifest,
        values.tobytes(),
        np.asarray(targets, dtype="<f4").tobytes(),
        np.asarray(years, dtype="<u4").tobytes(),
    )))


def read_manifest(root) -> dict:
    raw = (root / "dataset.mmts").read_bytes()
    (size,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[24:24 + size])


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
        # byte level: saving the loaded dataset reproduces the file, and the
        # file is the documented layout
        save_dataset(loaded, tmp_path / "b")
        write_dataset_file(tmp_path, read_manifest(tmp_path / "a"), d.values,
                           d.targets, d.years)
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["dataset.mmts"]
        raw = (tmp_path / "a" / "dataset.mmts").read_bytes()
        assert raw == (tmp_path / "b" / "dataset.mmts").read_bytes()
        assert raw == (tmp_path / "dataset.mmts").read_bytes()

    def test_classification_round_trip(self, tmp_path, tiny_classification):
        save_dataset(tiny_classification, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded == tiny_classification
        assert loaded.targets.dtype == np.int64

    def test_payload_size_mismatch(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        file = tmp_path / "dataset.mmts"
        raw = file.read_bytes()
        # the header declares [4,3,2]: cut a float, cut a byte, or add a float
        for wrong in (raw[:-4], raw[:-1], raw + bytes(4)):
            file.write_bytes(wrong)
            with pytest.raises(DatasetError, match="size mismatch, header declares"):
                load_dataset(tmp_path)

    def test_values_payload_length(self, tmp_path):
        # magic(4) + version, manifest length, N, T, B (20) + padded manifest,
        # then f32 values and targets and u32 years, starting 64-aligned
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        raw = (tmp_path / "dataset.mmts").read_bytes()
        (size,) = struct.unpack_from("<I", raw, 8)
        assert (24 + size) % 64 == 0
        assert len(raw) == 24 + size + 4 * (4 * 3 * 2 + 4 + 4)
        assert raw[24 + size - 1:24 + size] == b" "

    @pytest.mark.parametrize("version_1", [False, True], ids=["empty", "version-1"])
    def test_missing_manifest(self, tmp_path, version_1):
        """A directory of format version 1 (a manifest and three .bin files)
        is rejected as any directory without the dataset file is."""
        if version_1:
            write_version_1_dataset(tmp_path, make_dataset())
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path)
        assert str(exc.value) == f"missing dataset.mmts in {tmp_path}"

    @pytest.mark.parametrize("edit, error", [
        (lambda raw: b"MMTX" + raw[4:], "missing MMTS magic"),
        (lambda raw: raw[:4] + struct.pack("<I", 1) + raw[8:],
         "unsupported format version 1"),
        (lambda raw: raw[:20], "missing MMTS magic"),
    ], ids=["magic", "version", "short-header"])
    def test_header_is_checked(self, tmp_path, edit, error):
        save_dataset(make_dataset(), tmp_path)
        file = tmp_path / "dataset.mmts"
        file.write_bytes(edit(file.read_bytes()))
        with pytest.raises(DatasetError, match=error):
            load_dataset(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        d = make_dataset()
        save_dataset(d, tmp_path)
        write_dataset_file(tmp_path, b"{not json", d.values, d.targets, d.years)
        with pytest.raises(DatasetError, match="corrupt manifest"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("classes", [False, True])
    def test_manifest_without_unset_class_keys_loads(self, tmp_path, classes,
                                                     tiny_classification):
        """The older layout left out n_classes and class_names when unset."""
        d = tiny_classification if classes else make_dataset()
        save_dataset(d, tmp_path)
        manifest = read_manifest(tmp_path)
        older = {k: v for k, v in manifest.items() if v is not None}
        assert len(older) < len(manifest)
        write_dataset_file(tmp_path, older, d.values, d.targets, d.years)
        assert load_dataset(tmp_path) == d

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_manifest_id_must_be_an_integer(self, tmp_path, value):
        d = make_dataset()
        save_dataset(d, tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["bands"][0]["id"] = value
        write_dataset_file(tmp_path, manifest, d.values, d.targets, d.years)
        with pytest.raises(DatasetError,
                           match=r"corrupt manifest .*manifest\.bands\[0\]\.id must be an integer"):
            load_dataset(tmp_path)

    def test_manifest_failing_the_schema_checks_names_it(self, tmp_path):
        d = make_dataset()
        save_dataset(d, tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["n_classes"] = 3
        write_dataset_file(tmp_path, manifest, d.values, d.targets, d.years)
        with pytest.raises(DatasetError, match=r"corrupt manifest .*: manifest: "
                                               "regression schema must not declare n_classes"):
            load_dataset(tmp_path)

    def test_dimension_mismatch(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        other = make_dataset(n=4, t=3, b=5)
        write_dataset_file(tmp_path, read_manifest(tmp_path), other.values,
                           d.targets, d.years)
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
        assert not (tmp_path / "dataset.mmts").exists()

    def test_loader_rejects_non_finite(self, tmp_path):
        d = make_dataset(n=4, t=3, b=2)
        save_dataset(d, tmp_path)
        bad = d.values.copy()
        bad[1, 1, 1] = np.inf
        write_dataset_file(tmp_path, read_manifest(tmp_path), bad, d.targets, d.years)
        with pytest.raises(DatasetError, match="non-finite"):
            load_dataset(tmp_path)

    def test_a_torn_save_loads_the_old_or_the_new_dataset(self, tmp_path, monkeypatch):
        """A save over a dataset that dies at any of its renames leaves one
        whole dataset behind: the old one or the new one, never a mix."""
        old, new = make_dataset(n=6, seed=1), make_dataset(n=6, seed=2)
        renames = []

        def fail_at(k):
            def replace(src, dst):
                renames.append(dst)
                if len(renames) == k:
                    raise OSError("the save dies here")
                os.replace(src, dst)
            renames.clear()
            monkeypatch.setattr(data_mod, "os", SimpleNamespace(**{**vars(os),
                                                                   "replace": replace}))

        fail_at(0)
        save_dataset(new, tmp_path / "count")
        commits = len(renames)
        assert commits >= 1
        for k in range(1, commits + 1):
            root = tmp_path / f"torn{k}"
            fail_at(0)
            save_dataset(old, root)
            fail_at(k)
            with pytest.raises(OSError, match="the save dies here"):
                save_dataset(new, root)
            loaded = load_dataset(root)
            assert loaded == old or loaded == new, k

    def test_a_failed_rename_leaves_the_old_dataset_and_no_tmp_file(self, tmp_path,
                                                                    monkeypatch):
        old = make_dataset(n=6, seed=1)
        save_dataset(old, tmp_path)

        def replace(src, dst):
            raise OSError("the rename fails")

        monkeypatch.setattr(data_mod, "os", SimpleNamespace(**{**vars(os),
                                                               "replace": replace}))
        with pytest.raises(OSError, match="the rename fails"):
            save_dataset(make_dataset(n=6, seed=2), tmp_path)
        assert load_dataset(tmp_path) == old
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.mmts"]

    def test_a_failed_write_leaves_the_old_file_and_no_tmp_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_atomic(path, "cycle\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "\udcff")  # a lone surrogate encodes in no codec
        assert path.read_text() == "cycle\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_text_is_written_as_utf8_whatever_the_locale(self, tmp_path):
        """Text goes to disk as UTF-8 under the C locale too, where the
        locale's own encoding is ASCII."""
        path = tmp_path / "note.txt"
        src = str(Path(data_mod.__file__).parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=src)
        code = ("import sys; from roarsel.data import write_atomic; "
                "write_atomic(sys.argv[1], 'caf\\u00e9\\n')")
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes() == "café\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["note.txt"]

    def test_saving_touches_no_other_file_in_the_directory(self, tmp_path):
        write_version_1_dataset(tmp_path, make_dataset(seed=1))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        new = make_dataset(seed=2)
        save_dataset(new, tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after.pop("dataset.mmts") and after == before
        assert load_dataset(tmp_path) == new

    def test_a_path_that_names_a_file_is_a_dataset_error(self, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        with pytest.raises(DatasetError, match="cannot make the dataset directory .*file"):
            save_dataset(make_dataset(), tmp_path / "file")


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

    def test_regression_holdout_too_small_for_two_r2_targets(self):
        d = self._dataset_with_years([2016] * 4 + [2020, 2021, 2021, 2021])
        with pytest.raises(DatasetError, match=r"holdout years \[2021\] hold 3 sample\(s\); "
                                               "validation and test need at least 2 each"):
            split_by_year(d, holdout_years=1)
        split = split_by_year(d, holdout_years=2)
        assert (split.validation.n_samples, split.test.n_samples) == (2, 2)

    def test_classification_holdout_of_two_splits(self):
        d = make_dataset(n=6, task=Task.CLASSIFICATION, years=[2016] * 4 + [2021] * 2)
        split = split_by_year(d, holdout_years=1)
        assert (split.validation.n_samples, split.test.n_samples) == (1, 1)

    def test_too_few_years(self):
        d = self._dataset_with_years([2020] * 4 + [2021] * 4)
        with pytest.raises(DatasetError, match="too few distinct years"):
            split_by_year(d, holdout_years=2)

    @pytest.mark.parametrize("holdout", [0, -1])
    def test_holdout_years_below_one_is_rejected(self, holdout):
        d = make_dataset(n=40)  # 4 years of 10 samples
        with pytest.raises(DatasetError, match=f"holdout_years must be at least 1, not {holdout}"):
            split_by_year(d, holdout_years=holdout)


class TestTake:
    @pytest.mark.parametrize("empty", [[], (), np.arange(0)], ids=["list", "tuple", "array"])
    def test_no_indices_take_no_rows(self, empty):
        d = make_dataset(n=4)
        part = d.take(empty)
        assert part.n_samples == 0 and part.shape[1:] == d.shape[1:]
        assert part == d.take(np.arange(0))

    def test_integer_and_boolean_indices(self):
        d = make_dataset(n=4)
        picked = d.take([2, 0])
        np.testing.assert_array_equal(picked.values, d.values[[2, 0]])
        np.testing.assert_array_equal(picked.years, d.years[[2, 0]])
        mask = [True, False, True, False]
        assert d.take(mask) == d.take(np.array(mask)) == d.take([0, 2])
        assert d.take([True, False, True, False]) != d.take([1, 0, 1])


class TestDeletion:
    def test_delete_bands_bookkeeping(self):
        d = make_dataset(n=6, t=4, b=5)
        out = delete_bands(d, {1, 3})
        assert out.schema.band_ids == (0, 2, 4)
        assert out.shape == (6, 4, 3)
        np.testing.assert_array_equal(out.values, d.values[:, :, [0, 2, 4]])

    def test_delete_empty_is_identity(self):
        d = make_dataset()
        assert delete_bands(d, set()) is d
        assert delete_timesteps(d, set()) is d

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
