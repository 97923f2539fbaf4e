"""Minimal deterministic SVG line plots (fixed 800x500 canvas).

The output is a pure function of the input series: fixed palette, fixed
float formatting, no timestamps — identical input gives identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 24
MARGIN_BOTTOM = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    name: str
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class MarkerGroup:
    """Labelled vertical reference lines sharing one color and legend entry."""

    name: str
    xs: tuple[float, ...]


def _fmt(value: float) -> str:
    return format(float(value), ".3f")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    norm = raw / mag
    if norm < 1.5:
        step = mag
    elif norm < 3.5:
        step = 2.0 * mag
    elif norm < 7.5:
        step = 5.0 * mag
    else:
        step = 10.0 * mag
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(value: float) -> str:
    return format(float(value), "g")


def render_svg(series, x_label: str = "", y_label: str = "", markers=()) -> str:
    """Standalone SVG 1.1 document: one polyline per series plus a legend.

    ``series`` is a sequence of Series (each at least 2 points); ``markers``
    is a sequence of MarkerGroup rendered as dashed vertical lines.  Raises
    InputError on an empty series set.
    """
    series = list(series)
    markers = list(markers)
    if not series:
        raise InputError("need at least one series")
    for s in series:
        if len(s.x) < 2 or len(s.x) != len(s.y):
            raise InputError(f"series {s.name!r} needs at least 2 matching points")
        if not (np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.y))):
            raise InputError(f"series {s.name!r} has non-finite values")

    x_lo = min(float(np.min(s.x)) for s in series)
    x_hi = max(float(np.max(s.x)) for s in series)
    y_lo = min(float(np.min(s.y)) for s in series)
    y_hi = max(float(np.max(s.y)) for s in series)
    for m in markers:
        for x in m.xs:
            x_lo = min(x_lo, float(x))
            x_hi = max(x_hi, float(x))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # scalars or whole arrays: the same operations in the same order
    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<g font-family="sans-serif" font-size="12" fill="#000000">',
    ]

    # axes box
    parts.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>'
    )

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        y0 = MARGIN_TOP + plot_h
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" y2="{_fmt(y0 + 5)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + 18)}" text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT - 5)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(y)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end">{_tick_label(t)}</text>'
        )

    if x_label:
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{_fmt(HEIGHT - 12)}" '
            f'text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        cx = 18
        cy = MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
            f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{y_label}</text>'
        )

    legend_entries = []
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        xs = px(np.asarray(s.x)).tolist()
        ys = py(np.asarray(s.y)).tolist()
        points = " ".join(map("%.3f,%.3f".__mod__, zip(xs, ys)))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        legend_entries.append((s.name, color, "solid"))
    for jdx, m in enumerate(markers):
        color = PALETTE[(len(series) + jdx) % len(PALETTE)]
        for x_val in m.xs:
            x = px(float(x_val))
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(x)}" '
                f'y2="{_fmt(MARGIN_TOP + plot_h)}" stroke="{color}" stroke-width="1" '
                'stroke-dasharray="5,4"/>'
            )
        legend_entries.append((m.name, color, "dashed"))

    lx = MARGIN_LEFT + plot_w - 180
    ly = MARGIN_TOP + 12
    for name, color, style in legend_entries:
        dash = ' stroke-dasharray="5,4"' if style == "dashed" else ""
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 26)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(f'<text x="{_fmt(lx + 32)}" y="{_fmt(ly)}">{name}</text>')
        ly += 18

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
