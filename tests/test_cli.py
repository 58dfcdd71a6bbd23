"""End-to-end command tests through the argparse front door."""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import fab_curve, make_dataset, write_version_1_dataset

from roarsel import cli, roar
from roarsel.cli import _selection_rows, cmd_report, main
from roarsel.config import load_config, section_seed
from roarsel.data import load_dataset
from roarsel.errors import ConfigError, RoarAborted, TrainingDiverged
from roarsel.models import Architecture
from roarsel.attribution import ESTIMATOR_TAGS
from roarsel.codec import encode
from roarsel.roar import DeletionOrder, curve_csv_text, load_curve, save_curve
from roarsel.training import CandidateResult, SelectionReport


def base_config(root: Path) -> dict:
    return {
        "seed": 5,
        "out_dir": str(root / "out"),
        "dataset": {
            "path": str(root / "data"),
            "plant": {"n": 240, "t": 3, "b": 4, "signal_bands": [1, 3],
                      "signal_steps": [0, 1, 2], "noise": 0.2},
        },
        "train": {"max_epochs": 8, "patience": 3, "batch_size": 32,
                  "learning_rate": 0.003},
        "budget": {"n_samples": 24, "n_permutations": 6, "ensemble_size": 2,
                   "noise_scale": 0.15},
        "model": {"architecture": "mlp", "width": 16},
        "plans": [
            {"axis": "by_band", "order": "least_first", "estimator_tag": "svs"},
            {"axis": "by_band", "order": "most_first", "estimator_tag": "svs"},
            {"axis": "by_band", "order": "least_first", "estimator_tag": "gb"},
            {"axis": "by_band", "order": "most_first", "estimator_tag": "gb"},
        ],
        "grid": [
            {"architecture": "mlp", "width": 16},
            {"architecture": "rnn", "hidden_size": 8},
            {"architecture": "lstm", "hidden_size": 8},
            {"architecture": "gru", "hidden_size": 8},
            {"architecture": "tempcnn", "channels": 6, "kernel_size": 3,
             "dense_size": 12},
        ],
    }


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = write_config(root / "run.json", base_config(root))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    return SimpleNamespace(root=root, cfg_path=cfg_path,
                           data=root / "data", out=root / "out")


# -- generate -------------------------------------------------------------------


def test_generate_wrote_a_loadable_dataset(workspace):
    d = load_dataset(workspace.data)
    assert d.n_samples == 240
    assert d.shape == (240, 3, 4)


def test_generate_persists_the_effective_config(workspace):
    echoed = json.loads((workspace.out / "effective.json").read_text())
    assert echoed["train"]["max_epochs"] == 8
    assert echoed["split"]["holdout_years"] == 2  # default, filled in
    assert echoed["dataset"]["plant"]["n"] == 240


def test_generate_same_seed_is_byte_identical(workspace, tmp_path):
    cfg = base_config(workspace.root)
    for name in ("copy1", "copy2"):
        cfg["dataset"]["path"] = str(tmp_path / name)
        cfg["out_dir"] = str(tmp_path / f"out_{name}")
        assert main(["generate", "--config",
                     str(write_config(tmp_path / f"{name}.json", cfg))]) == 0
    a = (tmp_path / "copy1" / "dataset.mmts").read_bytes()
    b = (tmp_path / "copy2" / "dataset.mmts").read_bytes()
    assert a == b
    assert a == (workspace.data / "dataset.mmts").read_bytes()


def test_generate_seed_override_changes_the_data(workspace, tmp_path):
    cfg = base_config(workspace.root)
    cfg["dataset"]["path"] = str(tmp_path / "reseeded")
    cfg["out_dir"] = str(tmp_path / "out")
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p), "--seed", "99"]) == 0
    a = (tmp_path / "reseeded" / "dataset.mmts").read_bytes()
    assert a != (workspace.data / "dataset.mmts").read_bytes()


def test_generate_without_plant_block_is_a_config_error(tmp_path, capsys):
    cfg = {"dataset": {"path": str(tmp_path / "d")}, "out_dir": str(tmp_path / "o")}
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("n, t, b", [(10**30, 12, 8), (2**60, 1, 1), (2**40, 2**20, 4)])
def test_oversized_plant_exits_2_naming_its_sizes(tmp_path, capsys, n, t, b):
    """Larger than NumPy can hold in one array: a config error, not a crash."""
    cfg = base_config(tmp_path)
    cfg["dataset"]["plant"].update(n=n, t=t, b=b, signal_bands=[0], signal_steps=[0])
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 2
    assert f"plant of N={n}, T={t}, B={b} is too large" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_a_plant_too_large_to_allocate_exits_3_without_outputs(tmp_path, capsys):
    """Within NumPy's size limit but beyond any address space: a runtime
    error naming the plant, and nothing is written."""
    cfg = base_config(tmp_path)
    cfg["dataset"]["plant"]["n"] = 10**17
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: cannot allocate a plant of N={10**17}, T=3, B=4: ")
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("year_start", [-3, 2**32 - 1])
def test_plant_years_outside_u32_exit_2_naming_the_key(tmp_path, capsys, year_start):
    """Years are stored as u32: a plant whose years leave that range is a
    config error naming its block, before any data is drawn."""
    cfg = base_config(tmp_path)
    cfg["dataset"]["plant"].update(year_start=year_start, n_years=4)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.dataset.plant: years ")
    assert "must lie in [0, 2**32)" in err
    assert not (tmp_path / "data").exists()


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["bogus"] = True
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "data").exists()


# -- select ---------------------------------------------------------------------


def test_select_emits_one_row_per_architecture(workspace):
    assert main(["select", "--config", str(workspace.cfg_path)]) == 0
    lines = (workspace.out / "selection.csv").read_text().splitlines()
    assert lines[0] == "architecture,learning_rate,val_metric,test_metric,note"
    assert len(lines) == 6
    archs = {line.split(",")[0] for line in lines[1:]}
    assert archs == {"mlp", "rnn", "lstm", "gru", "tempcnn"}
    for line in lines[1:]:
        _, lr, val, test, _ = line.split(",", 4)
        float(lr), float(val), float(test)
    report = json.loads((workspace.out / "selection.json").read_text())
    assert set(report) == {"ranking", "best_index", "test_metric"}
    assert len(report["ranking"]) == 5
    assert report["best_index"] == report["ranking"][0]["index"]
    assert report["test_metric"] == report["ranking"][0]["test_metric"]
    for row in report["ranking"]:
        assert set(row) == {"index", "architecture", "learning_rate", "val_metric",
                            "test_metric", "error"}
        for metric in (row["val_metric"], row["test_metric"], report["test_metric"]):
            assert metric is None or type(metric) in (int, float)


def test_select_rerun_over_the_five_families_is_byte_identical(workspace, tmp_path):
    cfg = base_config(workspace.root)
    outputs = []
    for name in ("first", "second"):
        cfg["out_dir"] = str(tmp_path / name)
        p = write_config(tmp_path / f"{name}.json", cfg)
        assert main(["select", "--config", str(p)]) == 0
        outputs.append({f: (tmp_path / name / f).read_bytes()
                        for f in ("selection.json", "selection.csv")})
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0]["selection.json"])
    assert {c["architecture"] for c in report["ranking"]} == {
        "mlp", "rnn", "lstm", "gru", "tempcnn"}


def test_select_seeds_every_candidate_from_the_select_section(workspace, tmp_path,
                                                             monkeypatch):
    seen = []

    def spy(grid, splits, seed, **kwargs):
        seen.append(seed)
        return real(grid[:1], splits, seed, **kwargs)

    real = cli.select_model
    monkeypatch.setattr(cli, "select_model", spy)
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["select", "--config", str(p), "--seed", "11"]) == 0
    assert seen == [section_seed(11, "select")]


def test_a_grid_model_too_large_to_allocate_fails_its_candidate(workspace, tmp_path):
    """NumPy refuses more than intp's maximum number of bytes before it
    allocates; the candidate is recorded as failed and the grid goes on."""
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["grid"] = [{"architecture": "mlp", "width": 10**18},
                   {"architecture": "mlp", "width": 16}]
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["select", "--config", str(p)]) == 0
    report = json.loads((tmp_path / "out" / "selection.json").read_text())
    failed, ok = sorted(report["ranking"], key=lambda row: row["index"])
    assert failed["error"].startswith("cannot allocate a parameter of shape (12, ")
    assert failed["val_metric"] is None and ok["error"] is None
    assert report["best_index"] == ok["index"]


def test_selection_rows_note_ties_and_failures():
    def ok(i, arch, v):
        return CandidateResult(index=i, architecture=arch, learning_rate=1e-3,
                               val_metric=v, test_metric=v)

    failed = CandidateResult(
        index=2, architecture=Architecture.TEMPCNN, learning_rate=1e-3,
        val_metric=None, error="kernel larger than the series")
    report = SelectionReport(
        ranking=[ok(0, Architecture.MLP, 0.8), ok(1, Architecture.GRU, 0.8), failed],
        best_index=0, test_metric=0.8)
    rows = _selection_rows(report)
    assert [c.architecture.value for c, _ in rows] == ["mlp", "gru", "tempcnn"]
    assert rows[0][1] == rows[1][1] == "tie resolved by grid order"
    assert rows[2][1].startswith("failed:")
    assert rows[2][0].val_metric is None


# -- roar -----------------------------------------------------------------------


def test_roar_emits_csv_and_svg_per_plan(workspace):
    assert main(["roar", "--config", str(workspace.cfg_path)]) == 0
    for tag in ("svs", "gb"):
        for order in ("least_first", "most_first"):
            slug = f"{tag}_{order}_by_band"
            assert (workspace.out / f"{slug}.curve.json").exists()
            csv_text = (workspace.out / f"{slug}.curve.csv").read_text()
            assert csv_text.startswith("cycle,fraction_removed,val_metric,test_metric\n")
            assert len(csv_text.splitlines()) == 5  # baseline + three cycles
            svg = (workspace.out / f"{slug}.svg").read_text()
            assert svg.startswith("<svg ") and "baseline" in svg


def test_roar_rerun_is_byte_identical(workspace, tmp_path):
    first = {
        p.name: p.read_bytes()
        for p in workspace.out.glob("*.curve.csv")
    }
    assert len(first) == 4
    assert main(["roar", "--config", str(workspace.cfg_path)]) == 0
    for name, payload in first.items():
        assert (workspace.out / name).read_bytes() == payload


def test_roar_resume_reuses_completed_campaigns(workspace, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise AssertionError("resume must not recompute a finished campaign")

    monkeypatch.setattr(cli, "run_roar", explode)
    assert main(["roar", "--config", str(workspace.cfg_path), "--resume"]) == 0
    assert capsys.readouterr().out.count("reusing") == 4


RECOMPUTING = ("the curve on disk was made by another config, dataset or version; "
               "recomputing")


def _campaign_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name.endswith((".curve.json", ".curve.csv", ".svg"))}


def test_resume_recomputes_the_curves_of_another_model_and_train_config(
        workspace, tmp_path, capsys):
    """Run at width 8 for 5 epochs, then resume at width 32 for 9: every
    plan is recomputed, to the bytes of a fresh width-32 run."""
    cfg = base_config(workspace.root)
    cfg["plans"] = cfg["plans"][:2]
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["model"]["width"], cfg["train"]["max_epochs"] = 8, 5
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 0
    cfg["model"]["width"], cfg["train"]["max_epochs"] = 32, 9
    write_config(p, cfg)
    capsys.readouterr()
    assert main(["roar", "--config", str(p), "--resume"]) == 0
    out = capsys.readouterr().out
    assert out.count(RECOMPUTING) == 2 and "reusing" not in out
    assert main(["roar", "--config", str(p), "--out", str(tmp_path / "fresh")]) == 0
    resumed = _campaign_files(tmp_path / "out")
    assert len(resumed) == 6
    assert resumed == _campaign_files(tmp_path / "fresh")
    capsys.readouterr()
    assert main(["roar", "--config", str(p), "--resume"]) == 0
    assert capsys.readouterr().out.count("reusing the completed campaign on disk") == 2
    assert _campaign_files(tmp_path / "out") == resumed


def test_resume_recomputes_the_curves_of_another_dataset(workspace, tmp_path, capsys):
    """The same config over a dataset regenerated with another seed."""
    cfg = base_config(tmp_path)
    cfg["plans"] = cfg["plans"][:1]
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 0
    assert main(["roar", "--config", str(p)]) == 0
    assert main(["generate", "--config", str(p), "--seed", "6",
                 "--out", str(tmp_path / "other")]) == 0
    capsys.readouterr()
    assert main(["roar", "--config", str(p), "--resume"]) == 0
    assert RECOMPUTING in capsys.readouterr().out


def test_resume_recomputes_a_curve_without_a_fingerprint(workspace, tmp_path, capsys):
    p = _one_plan_config(workspace, tmp_path)
    assert main(["roar", "--config", str(p)]) == 0
    path = tmp_path / "out" / "svs_least_first_by_band.curve.json"
    written = path.read_bytes()
    save_curve(replace(load_curve(path), fingerprint=None), path)
    capsys.readouterr()
    assert main(["roar", "--config", str(p), "--resume"]) == 0
    assert capsys.readouterr().out.startswith(f"svs_least_first_by_band: {RECOMPUTING}\n")
    assert path.read_bytes() == written


def test_roar_without_model_block_is_a_config_error(workspace, tmp_path, capsys):
    cfg = base_config(workspace.root)
    del cfg["model"]
    cfg["out_dir"] = str(tmp_path / "out")
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 2
    assert "model block" in capsys.readouterr().err


def test_non_integer_count_exits_2_before_any_output(workspace, tmp_path, capsys):
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["train"]["max_epochs"] = 6.5
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 2
    assert "train.max_epochs must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_seed_exits_2_before_any_output(workspace, tmp_path, capsys):
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["train"]["seed"] = 0
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 2
    assert "unknown config.train key(s): seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "roar"])
def test_empty_test_split_exits_3_naming_the_holdout(tmp_path, capsys, command):
    """Five samples over four years leave one sample in the held-out year."""
    cfg = base_config(tmp_path)
    cfg["dataset"]["plant"].update(n=5, n_years=4, task="classification")
    cfg["split"] = {"holdout_years": 1}
    cfg["grid"] = cfg["grid"][:1]
    cfg["plans"] = cfg["plans"][:1]
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 0
    assert main([command, "--config", str(p)]) == 3
    assert "holdout years [2019] hold 1 sample(s)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "roar"])
def test_a_version_1_directory_exits_3_naming_dataset_mmts(tmp_path, capsys, command):
    cfg = base_config(tmp_path)
    write_version_1_dataset(tmp_path / "data", make_dataset(t=3, b=4))
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", str(p)]) == 3
    assert capsys.readouterr().err == f"error: missing dataset.mmts in {tmp_path / 'data'}\n"


@pytest.mark.parametrize("case", ["config-dir", "config-binary", "out-file-generate",
                                  "out-file-select", "out-file-roar", "data-file-generate"])
def test_a_bad_path_exits_with_one_named_line(workspace, tmp_path, capsys, monkeypatch, case):
    """A path that is not what its key needs is a config error (exit 2) or
    a runtime failure (exit 3), never a traceback; ``select`` fails on its
    output directory before it trains, and ``generate`` before it writes the
    dataset."""
    monkeypatch.setattr(cli, "select_model",
                        lambda *args: pytest.fail("select trained before making its out dir"))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    fresh = write_config(tmp_path / "cfg.json", base_config(tmp_path))
    binary = tmp_path / "cfg.bin"
    binary.write_bytes(bytes(range(256)))
    into_file = base_config(tmp_path)
    into_file["dataset"]["path"] = str(taken)
    into_file = write_config(tmp_path / "into-file.json", into_file)
    command, config, extra, code, line = {
        "config-dir": ("select", tmp_path, [], 2,
                       f"config error: cannot read config file {tmp_path}: Is a directory"),
        "config-binary": ("roar", binary, [], 2, "config error: config is not valid JSON: "),
        **{f"out-file-{c}": (c, fresh if c == "generate" else workspace.cfg_path,
                             ["--out", str(taken)], 2,
                             f"config error: config.out_dir: cannot make the directory "
                             f"{taken}: File exists")
           for c in ("generate", "select", "roar")},
        "data-file-generate": ("generate", into_file, [], 3,
                               f"error: cannot make the dataset directory {taken}: File exists"),
    }[case]
    assert main([command, "--config", str(config), *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1, err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command, output", [
    ("generate", "data/dataset.mmts"),
    ("select", "out/selection.json"),
    ("roar", "out/svs_least_first_by_band.curve.json"),
])
def test_an_output_that_cannot_be_written_exits_3_with_one_named_line(workspace, tmp_path,
                                                                     capsys, command, output):
    """A directory where a command writes or removes a file is a runtime
    failure that names the path, not a traceback."""
    cfg = base_config(tmp_path)
    if command != "generate":
        cfg["dataset"]["path"] = str(workspace.data)
    cfg["grid"] = cfg["grid"][:1]
    cfg["plans"] = cfg["plans"][:1]
    (tmp_path / output).mkdir(parents=True)
    assert main([command, "--config", str(write_config(tmp_path / "cfg.json", cfg))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"'{tmp_path / output}'" in err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["generate", "select", "roar"])
@pytest.mark.parametrize("route", ["config", "flag"])
def test_an_empty_out_dir_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                  command, route):
    """An empty ``out_dir``, from the file or from ``--out ""``, is refused
    by name; it neither means the working directory nor falls back to the
    file's value."""
    cfg = base_config(tmp_path)
    if command != "generate":
        cfg["dataset"]["path"] = str(workspace.data)
    extra = ["--out", ""] if route == "flag" else []
    if route == "config":
        cfg["out_dir"] = ""
    p = write_config(tmp_path / "cfg.json", cfg)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(p), *extra]) == 2
    assert capsys.readouterr().err == "config error: config: out_dir must not be empty\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


def test_regression_holdout_of_two_exits_3_naming_it(tmp_path, capsys):
    """Ten samples over four years leave two in the held-out year: too few
    for a validation R^2 and a test R^2."""
    cfg = base_config(tmp_path)
    cfg["dataset"]["plant"].update(n=10, n_years=4)
    cfg["split"] = {"holdout_years": 1}
    cfg["grid"] = cfg["grid"][:1]
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p)]) == 0
    assert main(["select", "--config", str(p)]) == 3
    assert ("holdout years [2019] hold 2 sample(s); validation and test need "
            "at least 2 each") in capsys.readouterr().err


@pytest.mark.parametrize("command, where, value, message", [
    ("select", ("grid", 0, "width"), 0, "config.grid[0]: width must be positive, got 0"),
    ("roar", ("model", "dropout"), 1.0,
     "config.model: dropout rate must lie in [0, 1), got 1.0"),
    ("select", ("grid", 1, "learning_rate"), 0,
     "config.grid[1]: learning_rate must be positive, got 0"),
    ("roar", ("model", "learning_rate"), -1.0,
     "config.model: learning_rate must be positive, got -1.0"),
], ids=["grid-width", "model-dropout", "grid-learning-rate", "model-learning-rate"])
def test_invalid_model_value_exits_2_before_any_output(workspace, tmp_path, capsys,
                                                       command, where, value, message):
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    *parents, last = where
    block = cfg
    for key in parents:
        block = block[key]
    block[last] = value
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", str(p)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, seed", [([], -1), (["--seed", "-1"], 5)])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, argv, seed):
    cfg = base_config(tmp_path)
    cfg["seed"] = seed
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["generate", "--config", str(p), *argv]) == 2
    assert "config: seed must not be negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()


def _one_plan_config(workspace, tmp_path) -> Path:
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["plans"] = cfg["plans"][:1]
    return write_config(tmp_path / "cfg.json", cfg)


def _fail_in_cycle_2(monkeypatch, error):
    """Make ``roar.train`` raise ``error`` on its third call, in cycle 2."""
    real = roar.train
    trained = []

    def train(*args, **kwargs):
        trained.append(None)
        if len(trained) == 3:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(roar, "train", train)


def test_roar_abort_labels_partial_outputs(workspace, tmp_path, monkeypatch, capsys):
    partial = fab_curve([0.9, 0.8], [[4]], DeletionOrder.LEAST_FIRST)

    def abort(*args, on_cycle, **kwargs):
        on_cycle(partial)
        raise RoarAborted("cycle 2 failed: boom")

    monkeypatch.setattr(cli, "run_roar", abort)
    p = _one_plan_config(workspace, tmp_path)
    assert main(["roar", "--config", str(p)]) == 3
    assert capsys.readouterr().err == "error: svs_least_first_by_band: cycle 2 failed: boom\n"
    out = tmp_path / "out"
    saved = load_curve(out / "svs_least_first_by_band.curve.json.partial")
    cfg = load_config(p)
    assert saved.fingerprint == cli._fingerprint(cfg, cfg.plans[0])
    assert encode(replace(saved, fingerprint=None)) == encode(partial)
    assert ((out / "svs_least_first_by_band.curve.csv.partial").read_text()
            == curve_csv_text(partial))
    assert not (out / "svs_least_first_by_band.curve.json").exists()


def test_an_interrupt_keeps_every_finished_cycle(workspace, tmp_path, monkeypatch):
    """The partial curve is checkpointed after every cycle, so Ctrl-C in
    cycle 2 leaves cycles 0 and 1 on disk."""
    p = _one_plan_config(workspace, tmp_path)
    _fail_in_cycle_2(monkeypatch, KeyboardInterrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["roar", "--config", str(p)])
    slug = tmp_path / "out" / "svs_least_first_by_band"
    partial = load_curve(f"{slug}.curve.json.partial")
    assert [rec.cycle for rec in partial.all_records()] == [0, 1]
    assert Path(f"{slug}.curve.csv.partial").read_text() == curve_csv_text(partial)
    assert not Path(f"{slug}.curve.json").exists()


def test_a_recomputed_plan_drops_its_earlier_complete_curve(workspace, tmp_path,
                                                            monkeypatch, capsys):
    """A run that diverges after an earlier success must not leave the old
    curve for --resume to reuse."""
    p = _one_plan_config(workspace, tmp_path)
    assert main(["roar", "--config", str(p)]) == 0
    slug = tmp_path / "out" / "svs_least_first_by_band"
    with monkeypatch.context() as patch:
        _fail_in_cycle_2(patch, TrainingDiverged("non-finite training loss"))
        assert main(["roar", "--config", str(p)]) == 3
    for suffix in (".curve.json", ".curve.csv", ".svg"):
        assert not Path(f"{slug}{suffix}").exists()
    capsys.readouterr()
    assert main(["roar", "--config", str(p), "--resume"]) == 0
    assert "reusing" not in capsys.readouterr().out
    assert Path(f"{slug}.curve.json").exists()


def test_completed_plan_removes_its_stale_partials(workspace, tmp_path, monkeypatch):
    """Partials from an aborted run go once the plan next completes, so none
    disagrees with the complete curve and effective.json beside it."""
    p = _one_plan_config(workspace, tmp_path)
    with monkeypatch.context() as patch:
        _fail_in_cycle_2(patch, TrainingDiverged("non-finite training loss"))
        assert main(["roar", "--config", str(p)]) == 3
    slug = tmp_path / "out" / "svs_least_first_by_band"
    partials = [Path(f"{slug}.curve.json.partial"), Path(f"{slug}.curve.csv.partial")]
    assert all(path.exists() for path in partials)
    assert main(["roar", "--config", str(p)]) == 0
    assert not any(path.exists() for path in partials)
    for suffix in (".curve.json", ".curve.csv", ".svg"):
        assert Path(f"{slug}{suffix}").exists()


def test_a_reused_plan_removes_its_stale_partials(workspace, tmp_path, capsys):
    """A kill between save_curve and the unlinks leaves a complete curve and
    its partials; --resume reuses the curve and removes the partials."""
    p = _one_plan_config(workspace, tmp_path)
    assert main(["roar", "--config", str(p)]) == 0
    slug = tmp_path / "out" / "svs_least_first_by_band"
    before = _campaign_files(tmp_path / "out")
    partials = []
    for suffix in (".curve.json", ".curve.csv"):
        partials.append(Path(f"{slug}{suffix}.partial"))
        partials[-1].write_bytes(Path(f"{slug}{suffix}").read_bytes())
    capsys.readouterr()
    assert main(["roar", "--config", str(p), "--resume"]) == 0
    assert "reusing the completed campaign on disk" in capsys.readouterr().out
    assert not any(path.exists() for path in partials)
    assert _campaign_files(tmp_path / "out") == before


def test_a_model_too_large_to_allocate_aborts_roar_with_exit_3(workspace, tmp_path,
                                                              capsys):
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["model"]["width"] = 10**18
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: svs_least_first_by_band: cycle 0 failed: "
                          "cannot allocate a parameter of shape (12, ")


def test_a_shapley_budget_too_large_to_plan_aborts_roar_with_exit_3(workspace, tmp_path,
                                                                    capsys):
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["budget"]["n_permutations"] = 10**18
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: svs_least_first_by_band: cycle 0 failed: "
                          f"n_permutations {10**18} is too large to plan one sample's "
                          "permutations: ")


def test_every_tag_reruns_byte_identical_from_the_echoed_config(workspace, tmp_path):
    cfg = base_config(workspace.root)
    cfg["out_dir"] = str(tmp_path / "first")
    cfg["plans"] = [{"axis": "by_band", "order": "least_first", "estimator_tag": tag}
                    for tag in ESTIMATOR_TAGS]
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["roar", "--config", str(p)]) == 0
    echoed = tmp_path / "first" / "effective.json"
    assert main(["roar", "--config", str(echoed), "--out", str(tmp_path / "again")]) == 0
    names = [f"{tag}_least_first_by_band{suffix}" for tag in ESTIMATOR_TAGS
             for suffix in (".curve.json", ".curve.csv", ".svg")]
    for name in names:
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "again" / name).read_bytes() == first, name


def test_a_plans_files_do_not_depend_on_the_other_plans(workspace, tmp_path):
    """A plan writes the same curve, CSV and SVG bytes alone, beside other
    plans, and with the plan order reversed."""
    cfg = base_config(workspace.root)
    plans = [
        {"axis": "by_band", "order": "least_first", "estimator_tag": "svs"},
        {"axis": "by_timestep", "order": "most_first", "estimator_tag": "sgs-gb"},
        {"axis": "by_band", "order": "most_first", "estimator_tag": "vargrad-svs"},
    ]
    runs = {"together": plans, "reversed": plans[::-1],
            **{f"alone{i}": [plan] for i, plan in enumerate(plans)}}
    for name, subset in runs.items():
        cfg["out_dir"], cfg["plans"] = str(tmp_path / name), subset
        assert main(["roar", "--config",
                     str(write_config(tmp_path / f"{name}.json", cfg))]) == 0
    for i, plan in enumerate(plans):
        slug = f"{plan['estimator_tag']}_{plan['order']}_{plan['axis']}"
        for suffix in (".curve.json", ".curve.csv", ".svg"):
            alone = (tmp_path / f"alone{i}" / f"{slug}{suffix}").read_bytes()
            for name in ("together", "reversed"):
                assert (tmp_path / name / f"{slug}{suffix}").read_bytes() == alone, name


def test_out_override_redirects_everything(workspace, tmp_path):
    other = tmp_path / "elsewhere"
    assert main(["roar", "--config", str(workspace.cfg_path),
                 "--out", str(other), "--resume"]) == 0
    # fresh directory has no completed campaigns, so all four recompute
    assert len(list(other.glob("*.curve.csv"))) == 4
    assert (other / "effective.json").exists()


# -- report ---------------------------------------------------------------------


def test_report_prints_both_set_queries(tmp_path, capsys):
    least = fab_curve([0.9, 0.89, 0.88, 0.5, 0.4], [[4], [3], [2], [1]],
                      DeletionOrder.LEAST_FIRST, tolerance=0.05)
    most = fab_curve([0.9, 0.3, 0.2, 0.1, 0.05], [[1], [3], [0], [2]],
                     DeletionOrder.MOST_FIRST)
    a, b = tmp_path / "least.curve.json", tmp_path / "most.curve.json"
    save_curve(least, a)
    save_curve(most, b)
    assert main(["report", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "sufficient set (3 of 5): [0, 1, 2]" in out
    assert "max fraction removable within 0.05: 0.4000" in out
    assert "necessary set (floor 0.4500): [1]" in out
    assert out.count("n/a") == 2


def test_report_floor_override(tmp_path, capsys):
    most = fab_curve([0.9, 0.6, 0.3, 0.2, 0.1], [[1], [3], [0], [2]],
                     DeletionOrder.MOST_FIRST)
    p = tmp_path / "most.curve.json"
    save_curve(most, p)
    assert main(["report", str(p), "--floor", "0.5"]) == 0
    assert "necessary set (floor 0.5000): [1, 3]" in capsys.readouterr().out


def test_report_default_floor_lies_below_a_negative_baseline(tmp_path, capsys):
    """Half of a negative baseline lies above it, where a removal that raised
    the metric would count as necessary; the default floor is 1.5 times it."""
    most = fab_curve([-0.2, -0.15, -0.1, -0.05, 0.0], [[4], [3], [2], [1]],
                     DeletionOrder.MOST_FIRST)
    p = tmp_path / "most.curve.json"
    save_curve(most, p)
    assert main(["report", str(p)]) == 0
    assert "necessary set (floor -0.3000): []" in capsys.readouterr().out
    falling = fab_curve([-0.2, -0.25, -0.35, -0.4, -0.5], [[4], [3], [2], [1]],
                        DeletionOrder.MOST_FIRST)
    save_curve(falling, p)
    assert main(["report", str(p)]) == 0
    assert "necessary set (floor -0.3000): [3, 4]" in capsys.readouterr().out


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
def test_report_with_a_non_finite_floor_exits_2_before_reading_a_curve(tmp_path, capsys,
                                                                      floor):
    # the curve file does not exist: reading it first would exit 3
    assert main(["report", str(tmp_path / "nope.curve.json"), f"--floor={floor}"]) == 2
    assert capsys.readouterr().err == f"config error: --floor must be a finite number, " \
                                      f"not {float(floor)}\n"


def test_report_missing_file_exits_3(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.curve.json")]) == 3
    assert "no curve file" in capsys.readouterr().err


def test_report_unreadable_curve_exits_3(tmp_path, capsys):
    p = tmp_path / "junk.curve.json"
    p.write_text("{not json")
    assert main(["report", str(p)]) == 3
    assert "unreadable curve" in capsys.readouterr().err


def test_report_on_a_curve_with_two_validation_metrics_exits_3(tmp_path, capsys):
    p = tmp_path / "least.curve.json"
    save_curve(fab_curve([0.9, 0.8], [[4]], DeletionOrder.LEAST_FIRST), p)
    raw = json.loads(p.read_text())
    raw["records"][0]["report"]["val_metric"]["value"] = 0.123
    p.write_text(json.dumps(raw))
    assert main(["report", str(p)]) == 3
    err = capsys.readouterr().err
    assert f"unreadable curve {p}" in err
    assert "val_metric must equal report.val_metric" in err


@pytest.mark.parametrize("content, fragment", [
    ("truncated", "unreadable curve"),
    ('{"plan": {}, "baseline": {}, "records": []}', "curve.plan needs axis"),
])
@pytest.mark.parametrize("command", ["report", "roar --resume"])
def test_a_bad_curve_file_exits_3_naming_it(workspace, tmp_path, capsys,
                                            command, content, fragment):
    slug = "svs_least_first_by_band"
    path = tmp_path / "out" / f"{slug}.curve.json"
    path.parent.mkdir()
    if content == "truncated":
        save_curve(fab_curve([0.9, 0.8], [[4]], DeletionOrder.LEAST_FIRST), path)
        content = path.read_text()[:100]
    path.write_text(content)
    if command == "report":
        argv = ["report", str(path)]
    else:
        cfg = base_config(workspace.root)
        cfg["out_dir"] = str(path.parent)
        cfg["plans"] = cfg["plans"][:1]
        argv = ["roar", "--config", str(write_config(tmp_path / "cfg.json", cfg)),
                "--resume"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(path) in err and fragment in err


def test_cmd_report_refuses_a_floor_beyond_float_range(tmp_path):
    """An integer floor too large for a float is not finite either."""
    with pytest.raises(ConfigError, match=f"^--floor must be a finite number, not {10**400}$"):
        cmd_report([tmp_path / "nope.curve.json"], floor=10**400)


def test_cmd_report_prints_the_report(tmp_path, capsys):
    least = fab_curve([0.9, 0.89], [[4]], DeletionOrder.LEAST_FIRST)
    p = tmp_path / "c.curve.json"
    save_curve(least, p)
    cmd_report([p])
    text = capsys.readouterr().out
    assert text.startswith(f"curve {p}\n") and text.endswith("\n")
    assert "sufficient set" in text
