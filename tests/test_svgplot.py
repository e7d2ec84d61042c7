import hashlib

import numpy as np
import pytest

from qsmc import NoiseSpec, run
from qsmc import cli
from qsmc.svgplot import (_COLORS, _H, _MB, _ML, _MR, _MT, _W, _esc, _fmt_num,
                          _ticks, line_plot)


def svg_oracle(series, title, path, xlabel="t", ylabel=""):
    """The former per-point writer: two scalar transforms and one f-string
    per polyline point."""
    series = [(lab, np.asarray(xs, float), np.asarray(ys, float))
              for lab, xs, ys in series]
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
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
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


def both(tmp_path, series, title="plot", **kw):
    new, old = tmp_path / "new.svg", tmp_path / "old.svg"
    line_plot(series, title, new, **kw)
    svg_oracle(series, title, old, **kw)
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("noise", [
    NoiseSpec(),
    NoiseSpec(kind="uniform", halfwidth=0.005, seed=20260815),
])
def test_run_plots_match_oracle(tmp_path, monkeypatch, bench_scenario, noise):
    traj = run(bench_scenario.with_(noise=noise))
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    new = cli._emit_plots(traj, str(tmp_path / "new"), "aircraft")
    monkeypatch.setattr(cli, "line_plot", svg_oracle)
    old = cli._emit_plots(traj, str(tmp_path / "old"), "aircraft")
    assert len(new) == len(old) == 3
    for a, b in zip(new, old):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a


def test_one_sample_matches_oracle(tmp_path):
    # x_hi == x_lo: every point sits on the left margin
    new, old = both(tmp_path, [("p", [0.5], [2.0])])
    assert new == old
    assert b'points="64.00,' in new


def test_constant_series_matches_oracle(tmp_path):
    t = np.linspace(0, 1, 10)
    new, old = both(tmp_path, [("c", t, np.full(10, 3.0))])
    assert new == old


def test_tiny_negatives_match_oracle(tmp_path):
    # values near +-1e-9, which print as -0.00 and 0.00 at two decimals
    t = np.linspace(-1e-9, 1e-9, 9)
    ys = np.array([-1e-9, -3e-10, -0.0, 2e-10, 1e-9, -1e-9, 5e-10, -5e-10, 0.0])
    new, old = both(tmp_path, [("tiny", t, ys), ("far", t, -ys * 1e3)])
    assert new == old


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matches_oracle(tmp_path, bad):
    t = np.linspace(0, 1, 7)
    ys = np.sin(t)
    ys[3] = bad
    new, old = both(tmp_path, [("u", t, ys)])
    assert new == old
    assert b"nan" in new


def test_scales_1e5_apart_match_oracle(tmp_path):
    t = np.linspace(0, 2, 301)
    new, old = both(tmp_path, [("small", t, np.sin(7 * t)),
                               ("large", t, 1e5 * np.cos(3 * t))], ylabel="y")
    assert new == old


def test_escaped_labels_match_oracle(tmp_path):
    t = np.linspace(0, 1, 50)
    new, old = both(tmp_path, [("u1", t, np.sin(t)), ("u2 <&>", t, np.cos(t))],
                    title="inputs <test>", xlabel="t", ylabel="u")
    assert new == old


# SHA-256 of the three SVGs of
# `qsmc run aircraft --plot --noise 0.005 --seed 20260815`, as the per-point
# writer drew them
FROZEN_SVG_SHA256 = {
    "aircraft_mm1_u.svg":
        "d019e3d4e0e5946bdd0be69da811c16b79b8fa22a65e35bcc119832dc1fc57ab",
    "aircraft_mm1_x.svg":
        "e579d81b45ed8f58bd8b8c9cbef853f4c9dc4aa52a62ff9e420c7544aa09e879",
    "aircraft_mm1_s.svg":
        "319fd8ac302fc9ebb19da75788870ee5cdb912db9c9e0586fbc55633d9722bd6",
}


def test_run_svgs_match_frozen_digests(tmp_path, capsys):
    assert cli.main(["run", "aircraft", "--plot", "--noise", "0.005",
                     "--seed", "20260815", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in FROZEN_SVG_SHA256}
    assert got == FROZEN_SVG_SHA256
