"""Command-line front door: generate, select, roar, and report.

Every command reads one JSON run config (`--config`), optionally
overridden by `--out` and `--seed`, and persists the defaults-filled
effective config next to its outputs so the run can be reproduced from
that file alone. Exit codes: 0 success, 2 config error, 3 runtime
failure (partial outputs are suffixed `.partial`).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .codec import encode
from .config import RunConfig, load_config, save_effective_config, section_seed
from .data import load_dataset, save_dataset, split_by_year, write_atomic, write_json
from .errors import ConfigError, RoarAborted, RoarselError
from .models import Head
from .roar import (
    DeletionOrder,
    load_curve,
    necessary_set,
    run_roar,
    save_curve,
    save_curve_csv,
    sufficient_set,
)
from .svg import curve_chart, save_chart
from .synthetic import generate
from .training import CandidateResult, SelectionReport, select_model


def _ensure_out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_effective_config(cfg, out / "effective.json")
    return out


def _load_splits(cfg: RunConfig):
    if not cfg.dataset.path:
        raise ConfigError("config needs dataset.path")
    d = load_dataset(cfg.dataset.path)
    splits = split_by_year(d, cfg.split.holdout_years,
                           seed=section_seed(cfg.seed, "split"))
    return splits, Head.for_schema(d.schema)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: RunConfig) -> Path:
    """Write the configured planted dataset as an on-disk directory."""
    if cfg.dataset.plant is None:
        raise ConfigError("generate needs a dataset.plant block")
    if not cfg.dataset.path:
        raise ConfigError("generate needs dataset.path to name the output directory")
    d = generate(cfg.dataset.plant, seed=section_seed(cfg.seed, "generate"))
    save_dataset(d, cfg.dataset.path)
    _ensure_out(cfg)
    print(
        f"wrote dataset {cfg.dataset.path} "
        f"({d.n_samples} samples, {d.schema.n_timesteps} steps x {d.schema.n_bands} bands)"
    )
    return Path(cfg.dataset.path)


def _selection_rows(report: SelectionReport) -> list[tuple[CandidateResult, str]]:
    """Best candidate per architecture, in ranking order, with its note."""
    rows = []
    seen = set()
    ok_values = [c.val_metric for c in report.ranking if c.error is None]
    for c in report.ranking:
        if c.architecture in seen:
            continue
        seen.add(c.architecture)
        note = ""
        if c.error is not None:
            note = f"failed: {c.error}"
        elif ok_values.count(c.val_metric) > 1:
            note = "tie resolved by grid order"
        rows.append((c, note))
    return rows


def cmd_select(cfg: RunConfig) -> Path:
    """Train the grid, rank by validation metric, emit the results table."""
    splits, head = _load_splits(cfg)
    grid = cfg.candidates(head)
    model, report = select_model(grid, splits, section_seed(cfg.seed, "select"),
                                 include_test_metrics=True)
    out = _ensure_out(cfg)

    write_json(out / "selection.json", encode(report))
    rows = _selection_rows(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["architecture", "learning_rate", "val_metric",
                     "test_metric", "note"])
    for c, note in rows:
        writer.writerow([c.architecture.value, c.learning_rate,
                         "" if c.val_metric is None else c.val_metric,
                         "" if c.test_metric is None else c.test_metric, note])
    csv_path = out / "selection.csv"
    write_atomic(csv_path, buf.getvalue())

    print(f"best: {model.spec.architecture.value} "
          f"(candidate #{report.best_index})")
    for c, note in rows:
        val = "-" if c.val_metric is None else f"{c.val_metric:.4f}"
        test = "-" if c.test_metric is None else f"{c.test_metric:.4f}"
        suffix = f"  [{note}]" if note else ""
        print(f"  {c.architecture.value:<8} val {val}  test {test}{suffix}")
    return csv_path


def _plan_slug(plan, used: set[str]) -> str:
    base = f"{plan.estimator_tag}_{plan.order.value}_{plan.axis.value}"
    slug = base
    serial = 2
    while slug in used:
        slug = f"{base}_{serial}"
        serial += 1
    used.add(slug)
    return slug


def cmd_roar(cfg: RunConfig, resume: bool = False) -> list[Path]:
    """Run every configured deletion campaign; one CSV + SVG per plan.

    With ``resume``, a plan whose curve file already exists is reused
    instead of recomputed; reruns are deterministic either way.
    """
    if cfg.model is None:
        raise ConfigError("roar needs a model block")
    if not cfg.plans:
        raise ConfigError("roar needs at least one deletion plan")
    splits, head = _load_splits(cfg)
    spec = cfg.model.spec(head)
    train_cfg = cfg.model.train_config(cfg.train)
    out = _ensure_out(cfg)

    written: list[Path] = []
    slugs: set[str] = set()
    for plan in cfg.plans:
        slug = _plan_slug(plan, slugs)
        curve_path = out / f"{slug}.curve.json"
        csv_path = out / f"{slug}.curve.csv"
        svg_path = out / f"{slug}.svg"
        if resume and curve_path.exists():
            curve = load_curve(curve_path)
            print(f"{slug}: reusing the completed campaign on disk")
        else:
            try:
                curve = run_roar(splits, spec, train_cfg, plan,
                                 seed=section_seed(cfg.seed, "roar"))
            except RoarAborted as exc:
                if exc.partial_curve is not None:
                    save_curve(exc.partial_curve, out / f"{slug}.curve.json.partial")
                    save_curve_csv(exc.partial_curve, out / f"{slug}.curve.csv.partial")
                raise RoarAborted(f"{slug}: {exc}", exc.partial_curve) from exc
            save_curve(curve, curve_path)
        save_curve_csv(curve, csv_path)
        save_chart(curve_chart(curve, title=slug.replace("_", " ")), svg_path)
        written.extend([curve_path, csv_path, svg_path])
        base = curve.baseline.val_metric
        print(f"{slug}: {len(curve.records)} cycles, "
              f"baseline {base.kind.value} {base.value:.4f}")
    return written


def cmd_report(paths: Sequence[str | Path], floor: Optional[float] = None) -> str:
    """Summarize saved curves: sufficient set, necessary set, slack.

    The necessary-set floor defaults to half the curve's baseline metric;
    pass ``floor`` to override.
    """
    lines: list[str] = []
    for raw in paths:
        path = Path(raw)
        curve = load_curve(path)
        plan = curve.plan
        total = curve.n_groups
        base = curve.baseline.val_metric
        lines.append(f"curve {path}")
        lines.append(f"  plan: {plan.estimator_tag} {plan.order.value} {plan.axis.value}")
        lines.append(f"  baseline {base.kind.value} {base.value:.4f} over {total} groups")
        if plan.order is DeletionOrder.LEAST_FIRST:
            ids, metric = sufficient_set(curve)
            fraction = (total - len(ids)) / total
            lines.append(
                f"  sufficient set ({len(ids)} of {total}): {sorted(ids)} "
                f"at {metric.kind.value} {metric.value:.4f}"
            )
            lines.append(
                f"  max fraction removable within {plan.tolerance}: {fraction:.4f}"
            )
            lines.append("  necessary set: n/a (needs a most_first curve)")
        else:
            cut = 0.5 * base.value if floor is None else floor
            ids = necessary_set(curve, floor=cut)
            lines.append("  sufficient set: n/a (needs a least_first curve)")
            lines.append(f"  necessary set (floor {cut:.4f}): {sorted(ids)}")
    text = "\n".join(lines)
    print(text)
    return text


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roarsel",
        description="Feature-group selection for multivariate time series "
                    "via remove-and-retrain deletion curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="override the configured output directory")
        p.add_argument("--seed", type=int, help="override the configured seed")

    with_config(sub.add_parser("generate", help="write a planted synthetic dataset"))
    with_config(sub.add_parser("select", help="train the model grid and rank it"))
    p_roar = sub.add_parser("roar", help="run the configured deletion campaigns")
    with_config(p_roar)
    p_roar.add_argument("--resume", action="store_true",
                        help="reuse completed campaigns found in the output directory")

    p_report = sub.add_parser("report", help="summarize saved deletion curves")
    p_report.add_argument("curves", nargs="+", help="curve JSON files")
    p_report.add_argument("--floor", type=float,
                          help="necessary-set floor (default: half the baseline)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.curves, floor=args.floor)
            return 0
        cfg = load_config(args.config)
        # overrides pass the same checks as the config's own values
        cfg = replace(cfg, out_dir=args.out or cfg.out_dir,
                      seed=cfg.seed if args.seed is None else args.seed)
        if args.command == "generate":
            cmd_generate(cfg)
        elif args.command == "select":
            cmd_select(cfg)
        else:
            cmd_roar(cfg, resume=args.resume)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RoarselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
