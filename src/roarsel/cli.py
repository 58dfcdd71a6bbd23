"""Command-line front door: generate, select, roar, and report.

Every command reads one JSON run config (`--config`), optionally
overridden by `--out` and `--seed`, and persists the defaults-filled
effective config next to its outputs so the run can be reproduced from
that file alone. Exit codes: 0 success, 2 config error, 3 runtime
failure. While a plan runs, its curve so far is written after every cycle as
`.partial` files, which survive a failure or an interrupt and go once the plan
completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .codec import encode, finite
from .config import RunConfig, load_config, section_seed
from .data import (
    DATASET_FILE,
    csv_text,
    load_dataset,
    save_dataset,
    split_by_year,
    write_atomic,
    write_json,
)
from .errors import ConfigError, RoarAborted, RoarselError
from .roar import (
    CURVE_FORMAT,
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


def _on_disk(name: str) -> Path:
    """The path a config names. The config is UTF-8 text, so a name that
    the locale's encoding cannot hold (the C locale's is ASCII) is given to
    the file system as its UTF-8 bytes."""
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        name = os.fsdecode(name.encode("utf-8", "surrogateescape"))
    return Path(name)


def _make_out(cfg: RunConfig) -> Path:
    out = _on_disk(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config.out_dir: cannot make the directory {out}: "
                          f"{exc.strerror}") from exc
    return out


def _load_splits(cfg: RunConfig):
    if not cfg.dataset.path:
        raise ConfigError("config needs dataset.path")
    return split_by_year(load_dataset(_on_disk(cfg.dataset.path)), cfg.split.holdout_years,
                         seed=section_seed(cfg.seed, "split"))


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: RunConfig) -> None:
    """Write the configured planted dataset as an on-disk directory."""
    if cfg.dataset.plant is None:
        raise ConfigError("generate needs a dataset.plant block")
    if not cfg.dataset.path:
        raise ConfigError("generate needs dataset.path to name the output directory")
    d = generate(cfg.dataset.plant, seed=section_seed(cfg.seed, "generate"))
    out = _make_out(cfg)  # a bad out_dir fails before the dataset is written
    path = _on_disk(cfg.dataset.path)
    save_dataset(d, path)
    write_json(out / "effective.json", encode(cfg))
    print(
        f"wrote dataset {path} "
        f"({d.n_samples} samples, {d.schema.n_timesteps} steps x {d.schema.n_bands} bands)"
    )


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


def cmd_select(cfg: RunConfig) -> None:
    """Train the grid, rank by validation metric, emit the results table."""
    splits = _load_splits(cfg)
    out = _make_out(cfg)  # a bad out_dir fails before the grid trains
    model, report = select_model(cfg.candidates(), splits, section_seed(cfg.seed, "select"))
    write_json(out / "effective.json", encode(cfg))

    write_json(out / "selection.json", encode(report))
    rows = _selection_rows(report)
    write_atomic(out / "selection.csv", csv_text(
        [["architecture", "learning_rate", "val_metric", "test_metric", "note"]]
        + [[c.architecture.value, c.learning_rate,
            "" if c.val_metric is None else c.val_metric,
            "" if c.test_metric is None else c.test_metric, note] for c, note in rows]))

    print(f"best: {model.spec.architecture.value} "
          f"(candidate #{report.best_index})")
    for c, note in rows:
        val = "-" if c.val_metric is None else f"{c.val_metric:.4f}"
        test = "-" if c.test_metric is None else f"{c.test_metric:.4f}"
        suffix = f"  [{note}]" if note else ""
        print(f"  {c.architecture.value:<8} val {val}  test {test}{suffix}")


def _plan_slug(plan, used: set[str]) -> str:
    base = f"{plan.estimator_tag}_{plan.order.value}_{plan.axis.value}"
    slug = base
    serial = 2
    while slug in used:
        slug = f"{base}_{serial}"
        serial += 1
    used.add(slug)
    return slug


def _fingerprint(cfg: RunConfig, plan) -> str:
    """The sha256 of what a plan's curve is computed from: the plan, the
    model, the training and split configs, the roar seed and
    ``CURVE_FORMAT`` as sorted JSON, then the dataset file's bytes. The
    output directory and the dataset's path are left out."""
    inputs = [encode(plan), encode(cfg.model), encode(cfg.model.train_config(cfg.train)),
              encode(cfg.split), section_seed(cfg.seed, "roar"), CURVE_FORMAT]
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    with open(_on_disk(cfg.dataset.path) / DATASET_FILE, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_roar(cfg: RunConfig, resume: bool = False) -> None:
    """Run every configured deletion campaign; one CSV + SVG per plan.

    With ``resume``, a plan whose curve file already exists is reused
    instead of recomputed when its fingerprint matches this run's (see
    ``_fingerprint``); reruns are deterministic either way. A plan that is
    computed checkpoints its curve so far after every cycle.
    """
    if cfg.model is None:
        raise ConfigError("roar needs a model block")
    if not cfg.plans:
        raise ConfigError("roar needs at least one deletion plan")
    splits = _load_splits(cfg)
    train_cfg = cfg.model.train_config(cfg.train)
    out = _make_out(cfg)
    write_json(out / "effective.json", encode(cfg))

    slugs: set[str] = set()
    for plan in cfg.plans:
        slug = _plan_slug(plan, slugs)
        curve_path = out / f"{slug}.curve.json"
        csv_path = out / f"{slug}.curve.csv"
        svg_path = out / f"{slug}.svg"
        partials = (Path(f"{curve_path}.partial"), Path(f"{csv_path}.partial"))
        fingerprint = _fingerprint(cfg, plan)
        curve = load_curve(curve_path) if resume and curve_path.exists() else None
        if curve is not None and curve.fingerprint == fingerprint:
            print(f"{slug}: reusing the completed campaign on disk")
        else:
            if curve is not None:
                print(f"{slug}: the curve on disk was made by another config, "
                      "dataset or version; recomputing")
            # an earlier run's files would disagree with this run's config
            for path in (curve_path, csv_path, svg_path, *partials):
                path.unlink(missing_ok=True)

            def checkpoint(so_far):
                so_far = replace(so_far, fingerprint=fingerprint)
                save_curve(so_far, partials[0])
                save_curve_csv(so_far, partials[1])

            try:
                curve = replace(run_roar(splits, cfg.model, train_cfg, plan,
                                         seed=section_seed(cfg.seed, "roar"),
                                         on_cycle=checkpoint), fingerprint=fingerprint)
            except RoarAborted as exc:
                raise RoarAborted(f"{slug}: {exc}") from exc
            save_curve(curve, curve_path)
        save_curve_csv(curve, csv_path)
        save_chart(curve_chart(curve, title=slug.replace("_", " ")), svg_path)
        # a kill after save_curve leaves partials that a reused plan removes too
        for path in partials:
            path.unlink(missing_ok=True)
        base = curve.baseline.val_metric
        print(f"{slug}: {len(curve.records)} cycles, "
              f"baseline {base.kind.value} {base.value:.4f}")


def cmd_report(paths: Sequence[str | Path], floor: Optional[float] = None) -> None:
    """Print a summary of saved curves: sufficient set, necessary set, slack.

    The necessary-set floor defaults to the curve's baseline metric less
    half its magnitude: half a positive baseline, and below a negative one;
    pass a finite ``floor`` to override.
    """
    if floor is not None and not finite(floor):
        raise ConfigError(f"--floor must be a finite number, not {floor}")
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
            cut = base.value - 0.5 * abs(base.value) if floor is None else floor
            ids = necessary_set(curve, floor=cut)
            lines.append("  sufficient set: n/a (needs a least_first curve)")
            lines.append(f"  necessary set (floor {cut:.4f}): {sorted(ids)}")
    print("\n".join(lines))


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
                          help="necessary-set floor (default: the baseline less half "
                               "its magnitude)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.curves, floor=args.floor)
            return 0
        # overrides replace the file's keys before decoding, so they pass
        # the same checks as the config's own values
        overrides = {} if args.seed is None else {"seed": args.seed}
        if args.out is not None:
            overrides["out_dir"] = args.out
        cfg = load_config(args.config, **overrides)
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
    except (RoarselError, OSError) as exc:  # OSError: an output that cannot be written or removed
        print(f"error: {exc}", file=sys.stderr)
        return 3
