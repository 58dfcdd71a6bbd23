"""Smoke test of the benchmark harness at tiny sizes, so it cannot rot.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once untraced and once traced on a tiny dataset with a
few epochs; the metric names must match BENCHMARK.json exactly.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, sufficient_ids  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, check=lambda out: []):
    w = WORKLOADS[name]
    budget = w.budget and dict(w.budget, n_samples=4, n_permutations=2, ensemble_size=2)
    return dataclasses.replace(
        w,
        plant=dict(w.plant, n=240),
        train=dict(w.train, max_epochs=2, patience=1),
        budget=budget,
        check=check,
    )


def test_workloads_and_units_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit(metric["name"]) == metric["unit"], metric["name"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_the_end_to_end_metrics(name):
    result, metrics = run.measure(tiny(name), seed=3, seconds=0, trace=False)
    assert result.failures == []
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    roarsel = run.import_roarsel()
    forward = roarsel.engine.Graph.forward
    result, metrics = run.measure(tiny(name), seed=3, seconds=0, trace=True)
    assert result.failures == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert roarsel.engine.Graph.forward is forward
    assert metrics["engine.forward.calls"] > 0
    assert metrics["training.train.calls"] > 0
    if WORKLOADS[name].command == "roar":
        assert metrics["cli.resume.ms_p90"] >= metrics["cli.resume.ms_p50"] > 0
        assert metrics["roar.cycles"] == metrics["models.build.calls"]
    else:
        assert metrics["training.candidates"] == len(WORKLOADS[name].grid)


def test_sufficient_set_check_agrees_with_the_package():
    roarsel = run.import_roarsel()
    seen = []

    def agree(out):
        (path,) = out.glob("*.curve.json")
        ours = sufficient_ids(json.loads(path.read_text()))
        theirs, _ = roarsel.sufficient_set(roarsel.load_curve(path))
        seen.append(ours)
        return [] if ours == set(theirs) else [f"{sorted(ours)} != {sorted(theirs)}"]

    result, _ = run.measure(tiny("roar-mlp-band", agree), seed=5, seconds=0, trace=False)
    assert result.failures == [] and seen


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "select-grid",
                        tiny("select-grid", lambda out: ["planted failure"]))
    code = run.main(["--workload", "select-grid", "--seed", "1", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "select-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
