"""Hand-emitted SVG line charts with deterministic bytes.

Charts are built by direct string assembly with fixed-precision number
formatting, so identical inputs always produce identical files. The one
chart kind needed here plots a metric against the fraction of feature
groups removed, with a dashed horizontal rule at the baseline metric.
"""

from __future__ import annotations

from pathlib import Path

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
_MIDDLE = ' text-anchor="middle"'
_END = ' text-anchor="end"'


def _num(v: float) -> str:
    """Fixed two-decimal coordinate formatting keeps output stable."""
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.3g}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks over a non-empty range."""
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _escape(text: str) -> str:
    """Text as XML character data. ``xml.sax.saxutils.escape`` does the same,
    but importing it loads urllib and about forty other modules."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _stroke(color: str, width: float) -> str:
    return f'stroke="{color}" stroke-width="{width}"'


def _line(x1, y1, x2, y2, color: str, width: float = 1, after: str = "") -> str:
    """One ``<line>``; ``after`` holds raw attributes that follow the stroke."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {_stroke(color, width)}{after}/>'


def _text(x, y, body: str, size: int = 11, fill: str = _AXIS_COLOR,
          before: str = "", after: str = "") -> str:
    """One ``<text>``; ``before`` and ``after`` hold raw attributes that
    precede the font and follow the fill."""
    return (f'<text x="{x}" y="{y}"{before} font-family="sans-serif" '
            f'font-size="{size}" fill="{fill}"{after}>{body}</text>')


def curve_chart(curve: DeletionCurve, title: str) -> str:
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
    right, bottom = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(_num(WIDTH / 2), 24, _escape(title), 15, "#222222", _MIDDLE),
    ]
    for yt in _ticks(y_lo, y_hi):
        y = _num(py(yt))
        out.append(_line(MARGIN_LEFT, y, right, y, _GRID_COLOR))
        out.append(_text(MARGIN_LEFT - 8, y, _label(yt),
                         before=_END + ' dominant-baseline="middle"'))
    for xt in _ticks(x_lo, x_hi):
        x = _num(px(xt))
        out.append(_line(x, bottom, x, bottom + 5, _AXIS_COLOR))
        out.append(_text(x, bottom + 18, _label(xt), before=_MIDDLE))
    out.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom, _AXIS_COLOR))
    out.append(_line(MARGIN_LEFT, bottom, right, bottom, _AXIS_COLOR))

    y = _num(py(baseline))
    out.append(_line(MARGIN_LEFT, y, right, y, _BASELINE_COLOR, 1.5,
                     ' stroke-dasharray="6,4"'))
    out.append(_text(right - 4, _num(py(baseline) - 6), f"baseline {_label(baseline)}",
                     fill=_BASELINE_COLOR, before=_END))

    for i, ((name, points), color) in enumerate(zip(series, _SERIES_COLORS)):
        coords = " ".join(f"{_num(px(x))},{_num(py(y))}" for x, y in points)
        out.append(f'<polyline points="{coords}" fill="none" {_stroke(color, 2)}/>')
        for x, y in points:
            out.append(f'<circle cx="{_num(px(x))}" cy="{_num(py(y))}" r="3" fill="{color}"/>')
        lx = MARGIN_LEFT + 12
        ly = MARGIN_TOP + 14 + 16 * i
        out.append(_line(lx, ly, lx + 18, ly, color, 2))
        out.append(_text(lx + 24, ly + 4, name, fill="#222222"))

    out.append(_text(_num(MARGIN_LEFT + plot_w / 2), HEIGHT - 14,
                     "fraction of groups removed", 12, before=_MIDDLE))
    cy = _num(MARGIN_TOP + plot_h / 2)
    out.append(_text(18, cy, metric.kind.value, 12, before=_MIDDLE,
                     after=f' transform="rotate(-90 18 {cy})"'))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_chart(text: str, path: str | Path) -> None:
    write_atomic(path, text)
