"""Minimal deterministic SVG line plots (fixed 800x500 canvas).

The output is a pure function of the input series: fixed palette, fixed
float formatting, no timestamps — identical input gives identical bytes.
A series is a plain ``(name, x, y)`` tuple and a marker group a
``(name, xs)`` tuple, as the command line builds them.  The axes are
labelled "xi" and "density".  Series and marker names are XML-escaped
(``&``, ``<``, ``>``), so any name gives a well-formed document.
"""

from __future__ import annotations

import math

import numpy as np

from ._floattext import rows_text
from .errors import InputError

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 24
MARGIN_BOTTOM = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MIDDLE = ' text-anchor="middle"'
_DASH = ' stroke-dasharray="5,4"'


def _fmt(value: float) -> str:
    return format(float(value), ".3f")


# Heckbert's nice numbers: a step of 1, 2, 5 or 10 times a power of ten, the
# multiplier taken from the first row whose edge exceeds (span / 6) / power
_STEPS = ((1.0, 1.5), (2.0, 3.5), (5.0, 7.5), (10.0, math.inf))


def _tick_step(span: float) -> float:
    """Nice step for about six ticks over ``span``; 0.0 where its power of ten underflows."""
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    return mag * next(m for m, edge in _STEPS if raw / mag < edge) if mag else 0.0


def _axis(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """Axis ends for data in [lo, hi], each moved out by ``pad`` times the width.

    Data too narrow for a nonzero tick step (equal ends, or a width of a few
    subnormals) is first widened by 1 each way.
    """
    margin = pad * (hi - lo)
    if not _tick_step((hi + margin) - (lo - margin)):
        lo, hi = lo - 1.0, hi + 1.0
        margin = pad * (hi - lo)
    return lo - margin, hi + margin


def _nice_ticks(lo: float, hi: float) -> list[float]:
    step = _tick_step(hi - lo)
    ks = range(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)
    # on an axis a few doubles wide, neighbouring multiples round to one double
    return list(dict.fromkeys(k * step for k in ks))


def _tick_labels(ticks: list[float]) -> list[str]:
    """'%g' labels of the ticks, with more significant digits where six make two alike."""
    for digits in range(6, 18):
        labels = [format(t, f".{digits}g") for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _line(x1, y1, x2, y2, color, width, extra="") -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{width}"{extra}/>'
    )


def _text(x, y, body, attrs="") -> str:
    # the replacements of html.escape(quote=False), "&" first; importing html
    # would load its entity table for these three
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}"{attrs}>{body}</text>'


def render_svg(series, markers=()) -> str:
    """Standalone SVG 1.1 document: one polyline per series plus a legend.

    ``series`` is a sequence of ``(name, x, y)`` tuples, x and y arrays of
    at least 2 matching finite points; ``markers`` is a sequence of
    ``(name, xs)`` tuples, each a group of x positions rendered as dashed
    vertical lines that share one color and legend entry.  Polyline points
    are written a whole series at a time, each coordinate byte for byte as
    '%.3f'.  Raises InputError on an empty series set.
    """
    series = list(series)
    markers = list(markers)
    if not series:
        raise InputError("need at least one series")
    for name, x, y in series:
        if len(x) < 2 or len(x) != len(y):
            raise InputError(f"series {name!r} needs at least 2 matching points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError(f"series {name!r} has non-finite values")

    marks = [float(x) for _, xs in markers for x in xs]
    x_lo, x_hi = _axis(min([float(np.min(x)) for _, x, _ in series] + marks),
                       max([float(np.max(x)) for _, x, _ in series] + marks), 0.0)
    y_lo, y_hi = _axis(min(float(np.min(y)) for _, _, y in series),
                       max(float(np.max(y)) for _, _, y in series), 0.05)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    bottom = MARGIN_TOP + plot_h

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
        '<g font-family="sans-serif" font-size="12" fill="#000000">',
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    x_ticks, y_ticks = _nice_ticks(x_lo, x_hi), _nice_ticks(y_lo, y_hi)
    for t, label in zip(x_ticks, _tick_labels(x_ticks)):
        x = px(t)
        parts.append(_line(x, bottom, x, bottom + 5, "#000000", 1))
        parts.append(_text(x, bottom + 18, label, _MIDDLE))
    for t, label in zip(y_ticks, _tick_labels(y_ticks)):
        y = py(t)
        parts.append(_line(MARGIN_LEFT - 5, y, MARGIN_LEFT, y, "#000000", 1))
        parts.append(_text(MARGIN_LEFT - 8, y + 4, label, ' text-anchor="end"'))
    parts.append(_text(MARGIN_LEFT + plot_w / 2, HEIGHT - 12, "xi", _MIDDLE))
    cx, cy = 18, MARGIN_TOP + plot_h / 2
    rotate = f' transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})"'
    parts.append(_text(cx, cy, "density", _MIDDLE + rotate))

    # one legend entry and one palette color per series, then per marker group
    legend = [(name, "") for name, _, _ in series] + [(name, _DASH) for name, _ in markers]
    colors = [PALETTE[k % len(PALETTE)] for k in range(len(legend))]
    for (_, x, y), color in zip(series, colors):
        xy = [("%.3f", px(np.asarray(x))), ("%.3f", py(np.asarray(y)))]
        points = rows_text(xy, " ")[:-1]
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for (_, xs), color in zip(markers, colors[len(series):]):
        for x in map(px, map(float, xs)):
            parts.append(_line(x, MARGIN_TOP, x, bottom, color, 1, _DASH))

    lx = MARGIN_LEFT + plot_w - 180
    for k, ((name, dash), color) in enumerate(zip(legend, colors)):
        ly = MARGIN_TOP + 12 + 18 * k
        parts.append(_line(lx, ly - 4, lx + 26, ly - 4, color, 2, dash))
        parts.append(_text(lx + 32, ly, name))
    return "\n".join(parts + ["</g>", "</svg>"]) + "\n"
