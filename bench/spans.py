"""Span tracing for the benchmark, applied from outside the package.

`Tracer.install` replaces each traced callable under the name its caller
looks it up by (``roarsel.roar.train``, ``roarsel.training.build``,
``Graph.forward`` and so on) with a wrapper that records one span per
call: name, start, end, the enclosing span on the same thread, the
thread, and a few counts taken from the arguments or the result. Spans
stay in memory until the run ends. `layer_metrics` turns them into the
per-layer numbers; `uninstall` puts the original callables back.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ARCHITECTURES = ("mlp", "rnn", "lstm", "gru", "tempcnn")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # enclosing span on the same thread; 0 for none
    thread: int
    attrs: Optional[dict]  # counts taken from the call, when it returned

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _forward_attrs(args, kwargs, result):
    graph, x = args[0], args[1]
    return {"rows": int(x.shape[0]), "nodes": len(graph.nodes),
            "mask_nodes": len(graph.mask_shapes)}


def _rows_attrs(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _model_attrs(args, kwargs, result):
    return {"arch": result.spec.architecture.value, "params": result.n_params,
            "nodes": len(result.graph.nodes)}


def _train_attrs(args, kwargs, result):
    model, report = result
    return {"arch": model.spec.architecture.value, "epochs": report.epochs_run}


def _select_attrs(args, kwargs, result):
    ranking = result[1].ranking
    return {"candidates": len(ranking),
            "failed": sum(1 for c in ranking if c.error is not None)}


def traced_callables(roarsel) -> list[tuple[str, object, object, Optional[Callable]]]:
    """(span name, owner, key, attrs) for every traced call site.

    ``owner`` is a module or class (the key is an attribute name) or the
    dict the caller indexes (the key is the dict key).
    """
    cli, roar, training = roarsel.cli, roarsel.roar, roarsel.training
    graph = roarsel.engine.Graph
    sites = [
        ("engine.forward", graph, "forward", _forward_attrs),
        ("engine.forward_loss", graph, "forward_loss", _rows_attrs),
        ("engine.backward", graph, "backward", None),
        ("engine.backward_guided", graph, "backward_guided", None),
        ("models.build", training, "build", _model_attrs),
        ("models.build", roar, "resize_for_input", _model_attrs),
        ("training.train", roar, "train", _train_attrs),
        ("training.train", training, "train", _train_attrs),
        ("training.evaluate", roar, "evaluate", None),
        ("training.evaluate", training, "evaluate", None),
        ("training.split_loss", training, "split_loss", None),
        ("training.select_model", cli, "select_model", _select_attrs),
        ("attribution.run_estimator", roar, "run_estimator", None),
        ("attribution.aggregate_rank", roar, "aggregate_rank", None),
        ("roar.run_roar", cli, "run_roar", None),
        ("roar.save_curve", cli, "save_curve", None),
        ("roar.save_curve_csv", cli, "save_curve_csv", None),
        ("roar.load_curve", cli, "load_curve", None),
        ("synthetic.generate", cli, "generate", None),
        ("data.save_dataset", cli, "save_dataset", None),
        ("data.load_dataset", cli, "load_dataset", None),
        ("data.split_by_year", cli, "split_by_year", None),
        ("config.load_config", cli, "load_config", None),
        ("svg.save_chart", cli, "save_chart", None),
    ]
    # the campaign loop reaches the deletions through its axis table
    sites += [("data.delete", roar._DELETE, axis, None) for axis in roar._DELETE]
    return sites


class Tracer:
    """Records spans around patched callables; one parent stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs: Optional[Callable] = None):
        """``fn`` recording a span per call; ``attrs(args, kwargs, result)``
        adds counts to the span of a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = attrs(args, kwargs, result) if returned and attrs else None
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), info))

        return traced

    def install(self, roarsel) -> None:
        for name, owner, key, attrs in traced_callables(roarsel):
            if isinstance(owner, dict):
                original = owner[key]
                owner[key] = self.wrap(name, original, attrs)
            else:
                original = getattr(owner, key)
                setattr(owner, key, self.wrap(name, original, attrs))
            self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (0 < q < 100) by the same rule as statistics.quantiles."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    The run loop records one span per CLI call it makes: ``cli.command``
    for a timed command, ``cli.generate`` and ``cli.resume``. Counts and
    seconds are per timed command and cover the spans that start inside
    one; ``synthetic.generate.s`` and ``data.save_dataset.s`` are per
    ``cli.generate`` call and ``roar.load_curve.s`` is per ``cli.resume``
    call. Percentiles pool every call. A span's self time is its duration
    minus that of its direct children; parents are kept per thread, so the
    spans of a worker thread are roots on that thread.
    """
    by_id = {s.id: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_s[s.parent] += s.seconds
    named: dict[str, list] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def inside(call: str) -> dict[str, list]:
        windows = sorted((s.start, s.end) for s in named[call])
        starts = [lo for lo, _ in windows]
        found: dict[str, list] = defaultdict(list)
        for s in spans:
            at = bisect.bisect_right(starts, s.start) - 1
            if at >= 0 and s.start < windows[at][1]:
                found[s.name].append(s)
        return found

    def under(span, name: str) -> bool:
        parent = span.parent
        while parent:
            up = by_id[parent]
            if up.name == name:
                return True
            parent = up.parent
        return False

    def parent_is(span, name: str) -> bool:
        return bool(span.parent) and by_id[span.parent].name == name

    def dur(group) -> float:
        return sum(s.seconds for s in group)

    def self_time(group) -> float:
        return sum(s.seconds - child_s[s.id] for s in group)

    def total(group, key) -> float:
        return sum(s.attrs[key] for s in group if s.attrs)

    def ms(group) -> list[float]:
        return [1e3 * s.seconds for s in group]

    cmd = inside("cli.command")
    per = max(len(named["cli.command"]), 1)
    m: dict[str, float] = {}

    fwd = cmd["engine.forward"]
    fwd_nodes = total(fwd, "nodes")
    m["engine.forward.calls"] = len(fwd) / per
    m["engine.forward.rows"] = total(fwd, "rows") / per
    m["engine.forward.nodes"] = fwd_nodes / per
    m["engine.forward.mask_nodes"] = total(fwd, "mask_nodes") / per
    m["engine.forward.s"] = dur(fwd) / per
    m["engine.forward.ms_p50"] = _quantile(ms(fwd), 50)
    m["engine.forward.ms_p99"] = _quantile(ms(fwd), 99)
    m["engine.forward.us_per_node"] = 1e6 * dur(fwd) / fwd_nodes if fwd_nodes else 0.0
    bwd = cmd["engine.backward"]
    m["engine.backward.calls"] = len(bwd) / per
    m["engine.backward.s"] = dur(bwd) / per
    m["engine.backward.ms_p50"] = _quantile(ms(bwd), 50)
    m["engine.backward.ms_p99"] = _quantile(ms(bwd), 99)

    builds = cmd["models.build"]
    m["models.build.calls"] = len(builds) / per
    m["models.build.s"] = dur(builds) / per
    m["models.params"] = total(builds, "params") / per
    for arch in ARCHITECTURES:
        nodes = [s.attrs["nodes"] for s in builds if s.attrs and s.attrs["arch"] == arch]
        m[f"models.graph_nodes.{arch}"] = max(nodes, default=0)

    trains = cmd["training.train"]
    train_s = dur(trains)
    m["training.train.calls"] = len(trains) / per
    m["training.train.s"] = train_s / per
    m["training.train.self_s"] = self_time(trains) / per
    for arch in ARCHITECTURES:
        m[f"training.train.{arch}.s"] = dur(
            [s for s in trains if s.attrs and s.attrs["arch"] == arch]) / per
    m["training.epochs"] = total(trains, "epochs") / per
    m["training.adam_steps"] = sum(parent_is(s, "training.train") for s in bwd) / per
    fit_rows = total([s for s in cmd["engine.forward_loss"]
                      if parent_is(s, "training.train")], "rows")
    m["training.rows_per_s"] = fit_rows / train_s if train_s else 0.0
    m["training.evaluate.s"] = dur(cmd["training.evaluate"]) / per
    m["training.split_loss.s"] = dur(cmd["training.split_loss"]) / per
    selects = cmd["training.select_model"]
    m["training.select_model.s"] = dur(selects) / per
    m["training.candidates"] = total(selects, "candidates") / per
    m["training.candidates_failed"] = total(selects, "failed") / per

    est = cmd["attribution.run_estimator"]
    est_s = dur(est)
    est_rows = total([s for s in fwd if under(s, "attribution.run_estimator")], "rows")
    m["attribution.run_estimator.calls"] = len(est) / per
    m["attribution.run_estimator.s"] = est_s / per
    m["attribution.run_estimator.self_s"] = self_time(est) / per
    m["attribution.forward_rows"] = est_rows / per
    m["attribution.rows_per_s"] = est_rows / est_s if est_s else 0.0
    m["attribution.aggregate_rank.s"] = dur(cmd["attribution.aggregate_rank"]) / per

    # a cycle runs from one model build to the next, the last one to the
    # end of the campaign's last child span
    campaigns = cmd["roar.run_roar"]
    cycle_s = []
    for camp in campaigns:
        kids = sorted((s for s in spans if s.parent == camp.id), key=lambda s: s.start)
        starts = [s.start for s in kids if s.name == "models.build"]
        ends = starts[1:] + [max((s.end for s in kids), default=camp.end)]
        cycle_s += [e - b for b, e in zip(starts, ends)]
    m["roar.run_roar.s"] = dur(campaigns) / per
    m["roar.cycles"] = len(cycle_s) / per
    m["roar.cycle_s_p50"] = _quantile(cycle_s, 50)
    m["roar.self_s"] = self_time(campaigns) / per
    m["roar.save_curve.s"] = dur(cmd["roar.save_curve"]) / per
    m["roar.save_curve_csv.s"] = dur(cmd["roar.save_curve_csv"]) / per
    resumes = max(len(named["cli.resume"]), 1)
    m["roar.load_curve.s"] = dur(inside("cli.resume")["roar.load_curve"]) / resumes

    gen = inside("cli.generate")
    gens = max(len(named["cli.generate"]), 1)
    m["synthetic.generate.s"] = dur(gen["synthetic.generate"]) / gens
    m["data.save_dataset.s"] = dur(gen["data.save_dataset"]) / gens
    m["data.load_dataset.calls"] = len(cmd["data.load_dataset"]) / per
    m["data.load_dataset.s"] = dur(cmd["data.load_dataset"]) / per
    m["data.split_by_year.s"] = dur(cmd["data.split_by_year"]) / per
    m["data.delete.calls"] = len(cmd["data.delete"]) / per
    m["data.delete.s"] = dur(cmd["data.delete"]) / per
    m["config.load_config.s"] = dur(cmd["config.load_config"]) / per
    m["svg.save_chart.s"] = dur(cmd["svg.save_chart"]) / per
    m["cli.resume.ms_p50"] = _quantile(ms(named["cli.resume"]), 50)
    m["cli.resume.ms_p90"] = _quantile(ms(named["cli.resume"]), 90)
    return m
