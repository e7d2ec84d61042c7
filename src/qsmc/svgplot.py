"""Minimal self-contained SVG line plots.

Hand-emitted paths, no plotting dependency; diagnostic quality only.  One
polyline per series, simple linear axes with a handful of ticks.

Each series' points come from one numpy transform into pixel space and one
bulk `%.2f` format of the interleaved coordinates.  The transform keeps the
operation order of the scalar `sx`/`sy` used for the ticks, so every point
is the same float64 and the same text as a per-point writer would give.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 880, 340
_ML, _MR, _MT, _MB = 64, 16, 28, 40  # margins


def _ticks(lo: float, hi: float, count: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
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
    x_lo = min(s[1].min() for s in series)
    x_hi = max(s[1].max() for s in series)
    y_lo = min(s[2].min() for s in series)
    y_hi = max(s[2].max() for s in series)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def sx(x):
        return _ML + iw * (x - x_lo) / (x_hi - x_lo) if x_hi > x_lo else _ML

    def sy(y):
        return _MT + ih * (1.0 - (y - y_lo) / (y_hi - y_lo))

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
    # series
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        if x_hi > x_lo:
            px = _ML + iw * (xs - x_lo) / (x_hi - x_lo)
        else:
            px = np.full(len(xs), float(_ML))
        py = _MT + ih * (1.0 - (ys - y_lo) / (y_hi - y_lo))
        flat = np.column_stack([px, py]).ravel().tolist()
        pts = ("%.2f,%.2f " * len(xs) % tuple(flat))[:-1]
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
