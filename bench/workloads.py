"""The benchmark's workloads: run configs for `roarsel` and output checks.

Each workload is one CLI command (`roar` or `select`) over a planted
dataset that `generate` writes first. A check reads the command's output
files, independently of the package, and returns one message per failed
expectation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ALL_STEPS = list(range(12))


def sufficient_ids(curve: dict) -> set[int]:
    """Smallest survivor set whose validation metric stays within the
    plan tolerance of the baseline, recomputed from a curve JSON."""
    base = curve["baseline"]
    floor = base["val_metric"]["value"] - curve["plan"]["tolerance"]
    survivors = set(base["ranking"]["group_ids"])
    best = set(survivors)
    for rec in curve["records"]:
        survivors -= set(rec["removed_ids"])
        if rec["val_metric"]["value"] >= floor:
            best = set(survivors)
    return best


def _curve(out: Path) -> dict:
    (path,) = sorted(out.glob("*.curve.json"))
    return json.loads(path.read_text())


def check_sufficient_set(expected: set[int]) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        got = sufficient_ids(_curve(out))
        return [] if got == expected else [f"sufficient set {sorted(got)}, expected {sorted(expected)}"]
    return check


def check_necessary_order(signal: set[int]) -> Callable[[Path], list[str]]:
    """The baseline ranks the signal groups first, and the campaign removes
    signal groups while more than one is left. The last one is not checked:
    once it alone carries the signal, its retrained model stops early and
    ranks it below a noise group on a few seeds in a hundred."""
    def check(out: Path) -> list[str]:
        curve = _curve(out)
        top = set(curve["baseline"]["ranking"]["group_ids"][:len(signal)])
        removed = {g for rec in curve["records"][:len(signal) - 1] for g in rec["removed_ids"]}
        problems = []
        if top != signal:
            problems.append(f"baseline top groups {sorted(top)}, expected {sorted(signal)}")
        if not removed <= signal:
            problems.append(f"first removed {sorted(removed)}, expected a subset of {sorted(signal)}")
        return problems
    return check


def check_selection(min_val_r2: float) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        ranking = json.loads((out / "selection.json").read_text())["ranking"]
        problems = [f"candidate #{c['index']} ({c['architecture']}) failed: {c['error']}"
                    for c in ranking if c["error"] is not None]
        best = ranking[0]["val_metric"]
        if best is None or best < min_val_r2:
            problems.append(f"best validation R2 {best}, expected at least {min_val_r2}")
        return problems
    return check


def candidate_errors(out: Path) -> tuple[int, int]:
    """(candidates, failed candidates) of a `select` run."""
    ranking = json.loads((out / "selection.json").read_text())["ranking"]
    return len(ranking), sum(1 for c in ranking if c["error"] is not None)


@dataclass(frozen=True)
class Workload:
    """One CLI command over one planted dataset, with its output check."""

    name: str
    command: str  # "roar" or "select"
    plant: dict
    train: dict
    check: Callable[[Path], list[str]]
    model: Optional[dict] = None
    budget: Optional[dict] = None
    plans: list = field(default_factory=list)
    grid: list = field(default_factory=list)
    workers: Optional[int] = None

    def config(self, seed: int, data_dir: Path, out_dir: Path) -> dict:
        cfg = {
            "seed": seed,
            "out_dir": str(out_dir),
            "dataset": {"path": str(data_dir), "plant": self.plant},
            "train": self.train,
        }
        optional = {"model": self.model, "budget": self.budget, "plans": self.plans,
                    "grid": self.grid, "workers": self.workers}
        cfg.update({k: v for k, v in optional.items() if v})
        return cfg

    def artifacts(self, out: Path) -> list[Path]:
        """Files that must be byte-identical across reruns of one seed."""
        if self.command == "select":
            return [out / "selection.json", out / "selection.csv"]
        return sorted(p for p in out.iterdir()
                      if p.name.endswith((".curve.json", ".curve.csv", ".svg")))


BATCH_AND_RATE = {"batch_size": 64, "learning_rate": 0.003}

WORKLOADS = {
    w.name: w for w in (
        # The paper's headline query: a sufficient-set campaign over bands.
        # Nine tenths of its time is `train` at batch 64, where per-node
        # dispatch and the Adam step dominate.
        Workload(
            name="roar-mlp-band",
            command="roar",
            plant={"n": 4000, "t": 12, "b": 8, "signal_bands": [2, 5],
                   "signal_steps": ALL_STEPS, "noise": 1.0},
            model={"architecture": "mlp", "width": 64},
            train={"max_epochs": 100, "patience": 25, **BATCH_AND_RATE},
            budget={"n_samples": 96, "n_permutations": 32},
            plans=[{"axis": "by_band", "order": "least_first",
                    "estimator_tag": "svs", "tolerance": 0.05}],
            check=check_sufficient_set({2, 5}),
        ),
        # The same engine used the other way: forward-only estimator calls
        # of a few hundred rows dominate. Covers the time-step axis, the
        # necessary-set order and the ensemble noise path.
        Workload(
            name="roar-mlp-step",
            command="roar",
            plant={"n": 1200, "t": 12, "b": 4, "signal_bands": [0, 1, 2, 3],
                   "signal_steps": [2, 5, 9], "noise": 0.3,
                   "task": "classification"},
            model={"architecture": "mlp", "width": 64},
            train={"max_epochs": 20, "patience": 4, **BATCH_AND_RATE},
            budget={"n_samples": 128, "n_permutations": 24, "ensemble_size": 4},
            plans=[{"axis": "by_timestep", "order": "most_first",
                    "estimator_tag": "sgs-svs"}],
            check=check_necessary_order({2, 5, 9}),
        ),
        # The selection harness over all five families: the only workload
        # with recurrent and convolutional graphs and with worker threads.
        Workload(
            name="select-grid",
            command="select",
            plant={"n": 2000, "t": 12, "b": 8, "signal_bands": [2, 5],
                   "signal_steps": ALL_STEPS, "noise": 1.0},
            train={"max_epochs": 12, "patience": 4, **BATCH_AND_RATE},
            grid=[
                {"architecture": "mlp", "width": 64},
                {"architecture": "rnn", "hidden_size": 16},
                {"architecture": "lstm", "hidden_size": 16},
                {"architecture": "gru", "hidden_size": 16},
                {"architecture": "tempcnn", "channels": 16, "kernel_size": 3,
                 "dense_size": 64},
            ],
            workers=2,
            check=check_selection(0.8),
        ),
    )
}
