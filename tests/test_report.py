import numpy as np

from qsmc.report import flatten, parse_kv, render_kv
from qsmc.svgplot import line_plot


def test_render_flat_dict():
    text = render_kv({"a": 1, "b": 2.5, "c": True, "d": None, "e": "mm1"})
    assert "a = 1" in text
    assert "b = 2.5" in text
    assert "c = true" in text
    assert "d = none" in text
    assert "e = mm1" in text
    assert text.endswith("\n")


def test_render_nested_and_sequences():
    text = render_kv({"rows": [{"T": 0.01, "ok": False}], "pair": (1, 2)})
    assert "rows.0.T = 0.01" in text
    assert "rows.0.ok = false" in text
    assert "pair.0 = 1" in text and "pair.1 = 2" in text


def test_flatten_leaves_scalars():
    assert list(flatten(3.0)) == [("", 3.0)]
    pairs = dict(flatten({"x": {"y": [1, 2]}}))
    assert pairs == {"x.y.0": 1, "x.y.1": 2}


def test_float_round_trip():
    value = 0.9982520070918972
    parsed = parse_kv(render_kv({"rho": value}))
    assert float(parsed["rho"]) == value


def test_numpy_values_render():
    text = render_kv({"v": np.float64(0.25), "n": np.int64(7),
                      "arr": np.array([1.0, 2.0])})
    assert "v = 0.25" in text
    assert "n = 7" in text
    assert "arr = 1.0 2.0" in text


def test_parse_kv_skips_comments():
    parsed = parse_kv("# heading\n\na = 1\nb = x = y\n")
    assert parsed == {"a": "1", "b": "x = y"}


def test_line_plot_writes_svg(tmp_path):
    t = np.linspace(0, 1, 50)
    path = tmp_path / "plot.svg"
    line_plot([("u1", t, np.sin(t)), ("u2 <&>", t, np.cos(t))],
              "inputs <test>", path, xlabel="t", ylabel="u")
    body = path.read_text()
    assert body.startswith("<svg")
    assert body.rstrip().endswith("</svg>")
    assert body.count("<polyline") == 2
    # XML-escaped labels
    assert "&lt;test&gt;" in body
    assert "&amp;" in body
    assert "<&>" not in body


def test_line_plot_constant_series(tmp_path):
    # degenerate y-range must not divide by zero
    t = np.linspace(0, 1, 10)
    path = tmp_path / "flat.svg"
    line_plot([("c", t, np.zeros(10))], "flat", path)
    assert path.read_text().startswith("<svg")


def test_closed_loop_keys_round_trip(bench_scenario):
    # Trajectory.summary and the verify stability rows carry the closed
    # loop's spectral radius; both survive render_kv/parse_kv exactly
    from qsmc import run, stability_over_T
    traj = run(bench_scenario.with_(kind="m2", horizon=1.0))
    parsed = parse_kv(render_kv(traj.summary))
    assert float(parsed["rho_cl"]) == traj.summary["rho_cl"]
    assert int(parsed["warmup"]) == traj.summary["warmup"] == 2
    row = stability_over_T(bench_scenario.plant, bench_scenario.H, [0.01],
                           beta=3.0).rows[0]
    parsed = parse_kv(render_kv({"stability": [{"rho_cl": row.rho_cl}]}))
    for kind, rho in row.rho_cl.items():
        assert float(parsed[f"stability.0.rho_cl.{kind}"]) == rho
    assert row.rho_cl["m2"] == traj.summary["rho_cl"]
