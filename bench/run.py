"""End-to-end benchmark of roarsel: two deletion campaigns and a select grid.

    python3 bench/run.py --workload roar-mlp-band --seed 17 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven through its command-line entry point, ``roarsel.cli.main``, one
command at a time (a closed loop with one client). Work files go to
``.bench_work/``.

Until ``--seconds`` have passed, a run takes campaign seeds in turn (the
first is ``--seed``, the rest derive from it). For each seed it first
probes set-up: a fresh interpreter imports the package, generates and
writes the seed's planted dataset, then loads and splits it, because a
user pays the import once per command. Then it times one command on
that dataset. Each command's exit code and outputs are checked, and a
digest of its artifacts is compared with every earlier run of the same
code, seed and config in this checkout.

With ``--trace 0`` the last line reports the end-to-end metrics:
``wall_s`` (mean seconds per command: on a shared host whose speed shifts
for tens of seconds at a time, the mean of a few commands moves less
between runs than their median), ``setup_s`` (median set-up
seconds, so a first probe that compiles bytecode does not count) and ``peak_rss_mb`` (peak resident memory of this process and its
children once the first command has run; later commands in the same
process would only show the harness's own heap growth).

With ``--trace 1`` each seed runs untraced and then traced, the traced
artifacts must match the untraced ones, a roar workload then times
repeated ``roar --resume`` calls, and the last line reports the per-layer
metrics of `spans.layer_metrics` plus ``run.cpu_s`` (median CPU seconds
per untraced command), ``fail_share`` and the tracing overhead. The exit code is 1 when any command or check failed.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before NumPy loads, so two select workers stay
# within two cores and the spread between runs stays narrow.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = WORK / "digests.json"  # artifact digest per code, config and seed
RESUME_CALLS = 100

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, candidate_errors  # noqa: E402

# Runs in a fresh interpreter; argv[1] is a config file. Prints set-up seconds.
SETUP_PROBE = """
import contextlib, io, sys, time
start = time.perf_counter()
from roarsel.cli import main
from roarsel.config import load_config, section_seed
from roarsel.data import load_dataset, split_by_year
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["generate", "--config", sys.argv[1]])
cfg = load_config(sys.argv[1])
split_by_year(load_dataset(cfg.dataset_path), cfg.holdout_years,
              seed=section_seed(cfg.seed, "split"))
print(time.perf_counter() - start if code == 0 else -1.0)
"""


def import_roarsel():
    """The package under ``src/`` of this checkout, and nothing else."""
    if not (SRC / "roarsel" / "__init__.py").is_file():
        raise SystemExit(f"bench: no roarsel package under {SRC}")
    sys.path.insert(0, str(SRC))
    import roarsel
    import roarsel.cli

    if Path(roarsel.__file__).resolve().parent != (SRC / "roarsel").resolve():
        raise SystemExit(f"bench: imported roarsel from {roarsel.__file__}, not {SRC}")
    return roarsel


def campaign_seed(seed: int, i: int) -> int:
    if i == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:4], "big")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def artifact_digest(workload: Workload, out: Path) -> str:
    h = hashlib.sha256()
    for path in workload.artifacts(out):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Run:
    """One benchmark run: its operation counts, failures and digests."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.walls: list[float] = []  # untraced seconds per timed command
        self.setup_s: list[float] = []

    @property
    def fail_share(self) -> float:
        return len(self.failures) / max(self.attempted, 1)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"bench: FAILED {message}", file=sys.stderr)

    def cli(self, main, argv: list[str]) -> bool:
        """One CLI call, counted; False when it failed."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except Exception:
            traceback.print_exc()
            code = "exception"
        if code != 0:
            self.fail(f"roarsel {' '.join(argv)} exited {code}")
            return False
        return True

    def check(self, out: Path, label: str) -> None:
        """The workload's output check, plus the select candidates."""
        self.attempted += 1
        try:
            problems = self.workload.check(out)
            if self.workload.command == "select":
                candidates, failed = candidate_errors(out)
                self.attempted += candidates
                problems += ["a select candidate failed"] * failed
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        for p in problems:
            self.fail(f"{label}: {p}")

    def same_bytes(self, cseed: int, out: Path, label: str) -> None:
        """Compare the artifacts with the first run of this seed."""
        digest = artifact_digest(self.workload, out)
        first = self.digests.setdefault(cseed, digest)
        if digest != first:
            self.fail(f"{label}: artifacts differ from the first run of seed {cseed}")

    def check_store(self, configs: dict[int, dict]) -> None:
        """Compare digests with earlier runs of the same code and config."""
        store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        code = source_digest()
        for cseed, digest in self.digests.items():
            cfg = dict(configs[cseed], out_dir="", dataset={**configs[cseed]["dataset"], "path": ""})
            key = hashlib.sha256((code + json.dumps(cfg, sort_keys=True)).encode()).hexdigest()
            if store.setdefault(key, digest) != digest:
                self.fail(f"seed {cseed}: artifacts differ from an earlier run of the same code")
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, DIGESTS)


def setup_probe(config_path: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return -1.0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return -1.0
    return float(done.stdout.strip().splitlines()[-1])


def write_config(workload: Workload, cseed: int, base: Path) -> tuple[Path, dict, Path]:
    base.mkdir(parents=True, exist_ok=True)
    cfg = workload.config(cseed, base / "data", base / "out")
    path = base / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg, base / "out"


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> tuple[Run, dict[str, float]]:
    """Run the workload for ``seconds`` and return its metrics."""
    roarsel = import_roarsel()
    main = roarsel.cli.main
    work = WORK / "runs" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload)
    tracer = Tracer()
    traced_walls, cpus = [], []
    configs: dict[int, dict] = {}
    rss = 0.0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        cseed = campaign_seed(seed, i)
        i += 1
        label = f"seed {cseed}"
        cfg_path, configs[cseed], out = write_config(workload, cseed, work / str(cseed))
        argv = [workload.command, "--config", str(cfg_path)]
        # the probe writes this seed's dataset; set-up is sampled next to
        # every command so both see the same machine load
        run.attempted += 1
        took = setup_probe(cfg_path)
        if took < 0:
            run.fail(f"{label}: set-up probe failed")
        else:
            run.setup_s.append(took)
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            ok = run.cli(main, argv)
            run.walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - cpu0)
            rss = rss or peak_rss_mb()
            if ok:
                run.check(out, label)
                run.same_bytes(cseed, out, label)
            if trace:
                tracer.install(roarsel)
                try:
                    run.cli(tracer.wrap("cli.generate", main), ["generate", "--config", str(cfg_path)])
                    t0 = time.perf_counter()
                    ok = run.cli(tracer.wrap("cli.command", main), argv)
                    traced_walls.append(time.perf_counter() - t0)
                finally:
                    tracer.uninstall()
                if ok:
                    run.same_bytes(cseed, out, label + " traced")

    if trace and workload.command == "roar" and cseed in run.digests:
        resume = tracer.wrap("cli.resume", main)
        tracer.install(roarsel)
        try:
            for _ in range(RESUME_CALLS):
                run.cli(resume, argv + ["--resume"])
        finally:
            tracer.uninstall()
        run.same_bytes(cseed, out, label + " resumed")

    run.check_store(configs)
    shutil.rmtree(work, ignore_errors=True)

    if not trace:
        return run, {
            "wall_s": statistics.mean(run.walls) if run.walls else 0.0,
            "setup_s": statistics.median(run.setup_s) if run.setup_s else 0.0,
            "peak_rss_mb": rss,
        }
    tracer.write(WORK / "traces" / f"{workload.name}.jsonl")
    metrics = layer_metrics(tracer.spans)
    overheads = [t - u for t, u in zip(traced_walls, run.walls)]
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    metrics["run.cpu_s"] = statistics.median(cpus) if cpus else 0.0
    metrics["fail_share"] = run.fail_share
    return run, metrics


UNITS = {"calls": "count", "rows": "count", "nodes": "count", "mask_nodes": "count",
         "cycles": "count", "epochs": "count", "adam_steps": "count",
         "candidates": "count", "candidates_failed": "count", "params": "count",
         "forward_rows": "count", "rows_per_s": "1/s", "us_per_node": "us",
         "peak_rss_mb": "MB", "fail_share": "ratio"}


def unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf in UNITS:
        return UNITS[leaf]
    if name.startswith("models.graph_nodes."):
        return "count"
    if leaf.startswith("ms_"):
        return "ms"
    return "s"


def machine() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{os.cpu_count()} cores, Python {platform.python_version()}, "
            f"NumPy {numpy.__version__}, {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
            f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")

    workload = WORKLOADS[args.workload]
    run, metrics = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(f"{workload.name} seed {args.seed}: {run.attempted} operations, "
          f"{len(run.failures)} failed")
    print(f"  machine: {machine()}")
    for cseed, digest in run.digests.items():
        print(f"  seed {cseed}: artifacts sha256 {digest}")
    print("  command seconds: " + " ".join(f"{w:.3f}" for w in run.walls))
    print("  set-up seconds: " + " ".join(f"{w:.3f}" for w in run.setup_s))
    if not args.trace:
        print(f"  fail_share {run.fail_share:.4f} ratio")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
