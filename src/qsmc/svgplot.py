"""Minimal self-contained SVG line plots.

Hand-emitted paths, no plotting dependency; diagnostic quality only.  One
polyline per series, simple linear axes with a handful of ticks.

Each series' points come from the ticks' `sx`/`sy` pixel transform, applied
to whole arrays, and `numtext.fixed2_cells`, which writes every coordinate
as `'%.2f' %` would.
A point with a NaN or infinite coordinate is left out of its polyline and
of the axis ranges, so the rest of the plot still draws.  Widths are taken
from scaled ends, so that every finite range maps to finite pixels.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .numtext import fixed2_cells, join_cells

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 880, 340
_ML, _MR, _MT, _MB = 64, 16, 28, 40  # margins
_BIG = sys.float_info.max
_SCALE = 2.0 ** -11   # below 1 / (2 _W): a width times a pixel count stays finite
_STEPS = 5   # an axis's tick step is the first 1, 2, 5 x 10^j above range / _STEPS


def _width(lo, hi):
    """(hi - lo) _SCALE, finite for any two finite doubles, and rounded as
    hi - lo is where both ends are 0 or above 2^-1011 in magnitude"""
    return hi * _SCALE - lo * _SCALE


def _ticks(lo: float, hi: float):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = _width(lo, hi) / (_STEPS * _SCALE)
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    if first + step == first:
        return [lo]    # the step is below half an ulp of the ticks
    ticks = []
    v = first
    # at most _STEPS + 1 ticks fit; the bound also ends a walk whose step
    # stops moving it where the ulp doubles, and one past the largest double
    while v <= min(hi + 1e-12 * step, _BIG) and len(ticks) <= _STEPS:
        ticks.append(round(v, 12))
        v += step
    return ticks or [lo]


def _fmt_num(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(series, title: str, path, xlabel: str = "t", ylabel: str = "") -> None:
    """series: iterable of (label, xs, ys).  Writes an SVG file."""
    series = [(lab, np.asarray(xs, float), np.asarray(ys, float))
              for lab, xs, ys in series]
    if not series:
        raise ValueError("no series to plot")
    # a point with a non-finite coordinate is left out, of the ranges too
    kept = [np.isfinite(xs) & np.isfinite(ys) for _, xs, ys in series]
    series = [(lab, xs[k], ys[k]) for (lab, xs, ys), k in zip(series, kept)]
    xs_all = np.concatenate([s[1] for s in series])
    ys_all = np.concatenate([s[2] for s in series])
    if not xs_all.size:
        raise ValueError("no finite point to plot")
    # Python floats, which overflow to inf without a warning
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if y_hi == y_lo:
        # 1 is below half an ulp of y: widen towards zero by a share of it
        y_lo, y_hi = sorted((y_lo, y_lo - y_lo * 2.0 ** -40))
    pad = 0.05 / _SCALE * _width(y_lo, y_hi)
    y_lo, y_hi = max(y_lo - pad, -_BIG), min(y_hi + pad, _BIG)
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def sx(x):
        return _ML + iw * _width(x_lo, x) / _width(x_lo, x_hi) if x_hi > x_lo else _ML

    def sy(y):
        return _MT + ih * (1.0 - _width(y_lo, y) / _width(y_lo, y_hi))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="16" font-size="13">{_esc(title)}</text>',
    ]
    # axes frame + ticks
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" '
                 f'fill="none" stroke="#444" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT + ih}" x2="{px:.1f}" '
                     f'y2="{_MT + ih + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MT + ih + 16}" '
                     f'text-anchor="middle">{_fmt_num(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 7}" y="{py + 3:.1f}" '
                     f'text-anchor="end">{_fmt_num(ty)}</text>')
    parts.append(f'<text x="{_ML + iw / 2:.0f}" y="{_H - 6}" '
                 f'text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{_MT + ih / 2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 14 {_MT + ih / 2:.0f})">{_esc(ylabel)}</text>')
    # series; those with the same xs, as a run's are, share their x cells
    x_of = x_cells = None
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        if not np.array_equal(xs, x_of):
            # sx of a flat x range is a scalar
            x_of, x_cells = xs, fixed2_cells(np.broadcast_to(sx(xs), xs.shape))
        pts = join_cells(np.stack([x_cells, fixed2_cells(sy(ys))], axis=1), ",", " ")[:-1]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        lx = _ML + iw - 110
        ly = _MT + 14 + 14 * i
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{_esc(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
