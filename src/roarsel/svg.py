"""Hand-emitted SVG line charts with deterministic bytes.

Charts are built by direct string assembly with fixed-precision number
formatting, so identical inputs always produce identical files. The one
chart kind needed here plots a metric against the fraction of feature
groups removed, with a dashed horizontal rule at the baseline metric.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .data import write_atomic
from .roar import DeletionCurve

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 42
MARGIN_BOTTOM = 56

_SERIES_COLORS = ("#1f6fb4", "#d95f02")  # validation, test
_AXIS_COLOR = "#444444"
_GRID_COLOR = "#dddddd"
_BASELINE_COLOR = "#888888"


def _num(v: float) -> str:
    """Fixed two-decimal coordinate formatting keeps output stable."""
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.3g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _escape(text: str) -> str:
    """Text as XML character data. ``xml.sax.saxutils.escape`` does the same,
    but importing it loads urllib and about forty other modules."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def curve_chart(curve: DeletionCurve, title: Optional[str] = None) -> str:
    """Validation and test metric against the fraction of groups removed,
    with a dashed rule at the baseline metric, as one SVG document."""
    records = curve.all_records()
    total = curve.n_groups
    fractions = [(total - r.remaining) / total for r in records]
    series = [
        ("validation", [(f, r.val_metric.value) for f, r in zip(fractions, records)]),
        ("test", [(f, r.test_metric.value) for f, r in zip(fractions, records)]),
    ]
    metric = curve.baseline.val_metric
    baseline = metric.value
    plan = curve.plan
    if title is None:
        title = f"{plan.estimator_tag} / {plan.order.value} / {plan.axis.value}"

    x_lo, x_hi = min(fractions), max(fractions)
    ys = [y for _, pts in series for _, y in pts] + [baseline]
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_num(WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">{_escape(title)}</text>',
    ]

    for yt in _ticks(y_lo, y_hi):
        y = _num(py(yt))
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{y}" stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="11" '
            f'fill="{_AXIS_COLOR}">{_label(yt)}</text>'
        )
    for xt in _ticks(x_lo, x_hi):
        x = _num(px(xt))
        base = HEIGHT - MARGIN_BOTTOM
        out.append(
            f'<line x1="{x}" y1="{base}" x2="{x}" y2="{base + 5}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{base + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" '
            f'fill="{_AXIS_COLOR}">{_label(xt)}</text>'
        )

    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )

    y = _num(py(baseline))
    out.append(
        f'<line x1="{MARGIN_LEFT}" y1="{y}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{y}" stroke="{_BASELINE_COLOR}" stroke-width="1.5" '
        f'stroke-dasharray="6,4"/>'
    )
    out.append(
        f'<text x="{WIDTH - MARGIN_RIGHT - 4}" y="{_num(py(baseline) - 6)}" '
        f'text-anchor="end" font-family="sans-serif" font-size="11" '
        f'fill="{_BASELINE_COLOR}">baseline {_label(baseline)}</text>'
    )

    for i, ((name, points), color) in enumerate(zip(series, _SERIES_COLORS)):
        coords = " ".join(f"{_num(px(x))},{_num(py(y))}" for x, y in points)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in points:
            out.append(
                f'<circle cx="{_num(px(x))}" cy="{_num(py(y))}" r="3" '
                f'fill="{color}"/>'
            )
        lx = MARGIN_LEFT + 12
        ly = MARGIN_TOP + 14 + 16 * i
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{name}</text>'
        )

    out.append(
        f'<text x="{_num(MARGIN_LEFT + plot_w / 2)}" y="{HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'fill="{_AXIS_COLOR}">fraction of groups removed</text>'
    )
    cy = MARGIN_TOP + plot_h / 2
    out.append(
        f'<text x="18" y="{_num(cy)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 18 {_num(cy)})">{metric.kind.value}</text>'
    )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_chart(text: str, path: str | Path) -> None:
    write_atomic(path, text)
