import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from roarsel import lanes
from roarsel.attribution import (
    FeatureGroups,
    GroupingAxis,
    ImportanceRanking,
    _check_inputs,
)
from roarsel.codec import encode
from roarsel.data import Task, TensorDataset, default_schema
from roarsel.engine import DTYPE
from roarsel.errors import EstimatorError
from roarsel.models import Model
from roarsel.roar import CycleRecord, DeletionCurve, DeletionPlan
from roarsel.training import MetricKind, MetricValue, TrainReport


def linear(g, x, w):
    """``x @ w`` for the parameter ``w``: a dense node whose bias is a zero
    parameter named after ``w``."""
    zero = np.zeros(g.nodes[w].shape[1:], dtype=DTYPE)
    return g.dense(x, w, g.param(f"{g.nodes[w].attrs['name']}/zero_bias", zero))


def masks_rng():
    """The generator of every finite-difference forward: each one is a
    training forward, and each draws the same dropout masks."""
    return np.random.default_rng(0)


def _coordinates(g, x):
    """(label, flat view, batch to forward) for a copy of the input batch and
    for every parameter: each coordinate a finite-difference step moves."""
    x_work = np.array(x, dtype=DTYPE)
    yield "input", x_work.reshape(-1), x_work
    for name in sorted(g.params):
        yield name, g.params[name].reshape(-1), x


def _relu_signs(g) -> list[np.ndarray]:
    return [g._cache[node.args[0]] > 0 for node in g.nodes if node.op == "relu"]


def steps_cross_a_kink(g, x, h=1e-3) -> bool:
    """True when moving any one coordinate by +h or -h turns a relu on or
    off, so that a central difference there would straddle a kink."""
    g.forward(x, masks_rng())
    signs = _relu_signs(g)
    for _, flat, batch in _coordinates(g, x):
        for i in range(flat.size):
            orig = flat[i]
            for step in (h, -h):
                flat[i] = orig + DTYPE(step)
                g.forward(batch, masks_rng())
                flipped = any((a != b).any() for a, b in zip(signs, _relu_signs(g)))
                flat[i] = orig
                if flipped:
                    return True
    return False


def draw_clean_input(g, shape, seed):
    """Sample a batch that no finite-difference step moves across a relu kink."""
    r = np.random.default_rng(seed)
    for _ in range(64):
        x = r.normal(scale=1.0, size=shape).astype(DTYPE)
        if not steps_cross_a_kink(g, x):
            return x
    raise AssertionError("could not sample an input away from kinks")


def loss64(g, target) -> float:
    """The graph's loss recomputed in float64 from its cached output."""
    pred = g._cache[g.output].astype(np.float64)
    n = pred.shape[0]
    if g.loss == "mse":
        diff = pred.reshape(n) - np.asarray(target, dtype=DTYPE).astype(np.float64)
        return float(np.mean(diff * diff))
    z = pred - pred.max(axis=1, keepdims=True)
    picked = z[np.arange(n), np.asarray(target).astype(int)]
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - picked))


def _np_mean_xent(logits, target):
    z = logits - logits.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(logits.shape[0]), np.asarray(target).astype(int)]
    return np.mean(logsum - picked, dtype=DTYPE)


def _np_mean_mse(pred, target):
    diff = pred.reshape(pred.shape[0]) - np.asarray(target, dtype=DTYPE)
    return np.mean(diff * diff, dtype=DTYPE)


# loss name -> its value taking the mean with ``np.mean(..., dtype=float32)``:
# the byte oracle for the engine's loss values
NP_MEAN_LOSSES = {"softmax_xent": _np_mean_xent, "mse": _np_mean_mse}


@dataclass
class FdReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    per_tensor: dict[str, float] = field(default_factory=dict)


def finite_difference_check(g, x, h=1e-3, tolerance=1e-3, selector="loss",
                            target=None) -> FdReport:
    """Compare reverse-mode gradients against central finite differences.

    The differenced scalar is computed in float64 from the float32 output,
    so the oracle adds no float32 rounding of its own. The ``"loss"`` selector
    runs ``forward_loss`` and any other selector ``forward``. Relative error
    per coordinate is |a - b| / max(1, |a|, |b|); the report carries the max
    over the input and every parameter tensor. Every forward trains, with
    the dropout masks of ``masks_rng``.
    """
    assert h > 0, "finite differences need h > 0"

    def run(xv) -> np.ndarray:
        if isinstance(selector, str):
            g.forward_loss(xv, target, masks_rng())
        else:
            g.forward(xv, masks_rng())
        return g._cache[g.output]

    run(x)
    ad = g.backward(selector)

    def scalar(xv) -> float:
        out = run(xv)
        if isinstance(selector, str):
            return loss64(g, target)
        return float(out[np.arange(out.shape[0]), selector.astype(int)].sum(dtype=np.float64))

    per_tensor: dict[str, float] = {}

    for label, flat, batch in _coordinates(g, x):
        adf = (ad.input if label == "input" else ad.params[label]).reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + DTYPE(h)
            hi = float(flat[i])
            f_plus = scalar(batch)
            flat[i] = orig - DTYPE(h)
            lo = float(flat[i])
            f_minus = scalar(batch)
            flat[i] = orig
            fd = (f_plus - f_minus) / (hi - lo)
            a, b = float(adf[i]), fd
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        per_tensor[label] = worst

    worst = max(per_tensor.values())
    run(x)  # leave a clean cache behind
    return FdReport(max_rel_error=worst, tolerance=tolerance,
                    passed=worst <= tolerance, per_tensor=per_tensor)


def exact_shapley(
    model: Model, sample: np.ndarray, groups: FeatureGroups, baseline: np.ndarray
) -> np.ndarray:
    """Exact Shapley scores over all 2^G coalitions; G capped at 12."""
    g = groups.n_groups
    if g > 12:
        raise EstimatorError(f"too many groups for exact enumeration: {g} > 12")
    sample = np.ascontiguousarray(sample, dtype=DTYPE)
    baseline = np.ascontiguousarray(baseline, dtype=DTYPE)
    _check_inputs(model, sample[None], baseline, groups)

    col = int(model.infer(sample[None]).argmax(axis=1)[0])  # 0 for regression
    n_sets = 1 << g
    subsets = np.arange(n_sets, dtype=np.int64)
    member = ((subsets[:, None] >> np.arange(g)[None, :]) & 1).astype(bool)  # [S, G]
    cell_on = member[:, groups.cell_group]  # [S, T*B]
    composites = np.where(
        cell_on, sample.reshape(-1), baseline.reshape(-1)
    ).reshape(n_sets, *sample.shape)
    values = model.infer(composites)[:, col].astype(np.float64)  # [S]

    sizes = member.sum(axis=1)
    fact = [math.factorial(i) for i in range(g + 1)]
    weights = np.array(
        [fact[s] * fact[g - 1 - s] / fact[g] for s in range(g)], dtype=np.float64
    )
    scores = np.zeros(g, dtype=np.float64)
    for grp in range(g):
        without = ~member[:, grp]
        idx = subsets[without]
        w = weights[sizes[without]]
        scores[grp] = np.sum(w * (values[idx | (1 << grp)] - values[idx]))
    return scores.astype(DTYPE)


def cell_groups(t, b) -> FeatureGroups:
    """One group per cell of a (t, b) grid, ids row-major; the axis is only
    a label, since no band or time-step axis groups single cells."""
    n = t * b
    return FeatureGroups(GroupingAxis.BY_BAND, tuple(range(n)),
                         np.eye(n, dtype=bool).reshape(n, t, b))


def grid_schema(t, b, n_classes=None):
    """Default schema over a (t, b) grid: classification over ``n_classes``,
    or regression when it is None."""
    task = Task.REGRESSION if n_classes is None else Task.CLASSIFICATION
    return default_schema(t, b, task, n_classes)


def make_dataset(n=8, t=3, b=2, task=Task.REGRESSION, n_classes=None, seed=0,
                 years=None):
    """Small random dataset for format/bookkeeping tests."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, t, b)).astype(np.float32)
    if task is Task.CLASSIFICATION:
        n_classes = n_classes or 2
        targets = rng.integers(0, n_classes, size=n)
    else:
        targets = rng.standard_normal(n).astype(np.float32)
    if years is None:
        years = 2016 + (np.arange(n) % 4)
    return TensorDataset(
        schema=default_schema(t, b, task, n_classes),
        values=values,
        targets=targets,
        years=np.asarray(years),
    )


def write_version_1_dataset(root: Path, d: TensorDataset) -> None:
    """Format version 1: a ``manifest`` and one MMTS payload file per array."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest").write_text(json.dumps(encode(d.schema), indent=2, sort_keys=True))
    for name, arr, dtype in (("values", d.values, "<f4"), ("targets", d.targets, "<f4"),
                             ("years", d.years, "<u4")):
        head = b"MMTS" + np.array([1, *arr.shape], dtype="<u4").tobytes()
        (root / f"{name}.bin").write_bytes(head + np.asarray(arr, dtype=dtype).tobytes())


def fab_report(v):
    return TrainReport(best_epoch=1, epochs_run=1, train_loss=[0.5],
                       val_loss=[0.5], val_metric=MetricValue(MetricKind.R2, v))


def fab_rank(ids):
    ids = tuple(ids)
    scores = tuple(float(len(ids) - i) for i in range(len(ids)))
    return ImportanceRanking(axis=GroupingAxis.BY_BAND, group_ids=ids, scores=scores)


def fab_record(cycle, removed, survivors, v):
    m = MetricValue(MetricKind.R2, v)
    return CycleRecord(cycle=cycle, removed_ids=tuple(removed),
                       remaining=len(survivors), report=fab_report(v),
                       val_metric=m, test_metric=m, ranking=fab_rank(survivors))


def fab_curve(vals, removals, order, tolerance=0.02, n_groups=5):
    """Hand-built curve; vals[0] is the baseline, removals[i] feeds cycle i+1."""
    plan = DeletionPlan(axis=GroupingAxis.BY_BAND, order=order, tolerance=tolerance)
    survivors = list(range(n_groups))
    baseline = fab_record(0, (), survivors, vals[0])
    records = []
    for i, (v, removed) in enumerate(zip(vals[1:], removals), start=1):
        for g in removed:
            survivors.remove(g)
        records.append(fab_record(i, removed, survivors, v))
    return DeletionCurve(plan=plan, baseline=baseline, records=tuple(records))


@pytest.fixture
def tiny_regression():
    return make_dataset()


@pytest.fixture
def tiny_classification():
    return make_dataset(task=Task.CLASSIFICATION, n_classes=3)


@pytest.fixture(autouse=True)
def one_lane(monkeypatch):
    """An in-process ``select`` or estimator call runs every job in the
    test's own process, however many threads BLAS started, so a test can
    count its forward calls; the forked lanes are tested in subprocesses
    (``run_pinned``)."""
    monkeypatch.setattr(lanes, "lane_count", lambda n_jobs: 1)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


forked_lanes = pytest.mark.skipif(
    _usable_cpus() < 2 or not os.path.isdir("/proc/self/task"),
    reason="jobs fork their lanes only on Linux with at least two usable CPUs",
)

_TESTS = Path(__file__).resolve().parent


def await_a_lane(forked) -> None:
    """Return once ``forked()`` is true. A script that records where its jobs
    ran calls this in this process's first job, so a forked lane records one
    however late it starts; after 60 s the script fails saying so."""
    deadline = time.monotonic() + 60
    while not forked():
        if time.monotonic() > deadline:
            raise AssertionError("no forked lane recorded a job within 60 s")
        time.sleep(0.01)


def run_pinned(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python -W error *args`` with BLAS pinned to one thread, so the process
    runs a single thread and ``select`` and the estimators fork their lanes;
    the package and the test modules are importable."""
    path = os.pathsep.join([str(_TESTS.parent / "src"), str(_TESTS)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=path)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
