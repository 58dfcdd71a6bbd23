from dataclasses import dataclass, field

import numpy as np
import pytest

from roarsel.attribution import FeatureGroups, GroupingAxis, ImportanceRanking
from roarsel.data import Task, TensorDataset, default_schema
from roarsel.engine import DTYPE
from roarsel.roar import CycleRecord, DeletionCurve, DeletionPlan
from roarsel.training import MetricKind, MetricValue, TrainReport


def away_from_kinks(g, margin=0.02):
    """True when no relu input or pool contest sits within the fd step."""
    from numpy.lib.stride_tricks import sliding_window_view

    vals = g._cache
    for node in g.nodes:
        if node.op == "relu":
            a = vals[node.args[0]]
            if a is not None and np.any(np.abs(a) < margin):
                return False
        if node.op == "maxpool1d":
            a = vals[node.args[0]]
            if a is None:
                continue
            win = sliding_window_view(a, node.attrs["width"], axis=1)
            win = win[:, :: node.attrs["stride"]]
            top2 = np.sort(win, axis=-1)[..., -2:]
            if np.any(top2[..., 1] - top2[..., 0] < margin):
                return False
    return True


def draw_clean_input(g, shape, seed, target=None):
    """Sample a batch whose forward pass stays clear of relu/pool kinks."""
    r = np.random.default_rng(seed)
    for _ in range(64):
        x = r.normal(scale=1.0, size=shape).astype(DTYPE)
        g.forward(x, target=target)
        if away_from_kinks(g):
            return x
    raise AssertionError("could not sample an input away from kinks")


@dataclass
class FdReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    per_tensor: dict[str, float] = field(default_factory=dict)


def finite_difference_check(g, x, h=1e-3, tolerance=1e-3, selector="loss",
                            target=None) -> FdReport:
    """Compare reverse-mode gradients against central finite differences.

    Relative error per coordinate is |a - b| / max(1, |a|, |b|); the report
    carries the max over the input and every parameter tensor.
    """
    assert h > 0, "finite differences need h > 0"
    g.forward(x, target=target)
    ad = g.backward(selector)

    def scalar(xv) -> float:
        out = g.forward(xv, target=target)
        if isinstance(selector, str):
            return float(g._cache[g.loss])
        if isinstance(selector, (int, np.integer)):
            return float(out[:, int(selector)].sum(dtype=np.float64))
        return float(out[np.arange(out.shape[0]), selector.astype(int)].sum(dtype=np.float64))

    per_tensor: dict[str, float] = {}

    def check_tensor(arr, ad_grad, label, rebind=None):
        worst = 0.0
        flat = arr.reshape(-1)
        adf = ad_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + DTYPE(h)
            hi = float(flat[i])
            f_plus = scalar(x if rebind is None else rebind)
            flat[i] = orig - DTYPE(h)
            lo = float(flat[i])
            f_minus = scalar(x if rebind is None else rebind)
            flat[i] = orig
            fd = (f_plus - f_minus) / (hi - lo)
            a, b = float(adf[i]), fd
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        per_tensor[label] = worst
        return worst

    x_work = np.array(x, dtype=DTYPE)
    worst = check_tensor(x_work, ad.input, "input", rebind=x_work)
    for name in sorted(g.params):
        worst = max(worst, check_tensor(g.params[name], ad.params[name], name))
    g.forward(x, target=target)  # leave a clean cache behind
    return FdReport(max_rel_error=worst, tolerance=tolerance,
                    passed=worst <= tolerance, per_tensor=per_tensor)


def cell_groups(t, b) -> FeatureGroups:
    """One group per cell of a (t, b) grid, ids row-major; the axis is only
    a label, since no band or time-step axis groups single cells."""
    n = t * b
    return FeatureGroups(GroupingAxis.BY_BAND, tuple(range(n)),
                         np.eye(n, dtype=bool).reshape(n, t, b))


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
