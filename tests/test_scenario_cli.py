import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qsmc import ScenarioError, builtin_scenario_path, parse_scenario_text
from qsmc.scenario import parse_scenario_file

from conftest import X0_BENCH

MINIMAL = """
[plant]
A = 0 1 ; 0 0
B = 0 ; 1
C = 1 0 ; 0 1

[surface]
H = 1 1

[controller]
kind = mm1
beta = 3.0

[timing]
T = 0.01
horizon = 1.0
"""


def cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "qsmc", *args],
                          capture_output=True, text=True, cwd=cwd)


# --- parsing ------------------------------------------------------------------

def test_parse_minimal_inline():
    sf = parse_scenario_text(MINIMAL)
    sc = sf.scenario
    assert sc.kind == "mm1" and sc.T == 0.01 and sc.horizon == 1.0
    assert sc.beta == 3.0 and sc.alpha is None
    assert sc.plant.n == 2 and sc.plant.m == 1
    assert np.array_equal(sc.H, [[1.0, 1.0]])
    assert sc.noise.kind == "none"
    assert sf.out_dir == "out"


def test_parse_builtin_benchmark():
    sf = parse_scenario_file(builtin_scenario_path("aircraft"))
    sc = sf.scenario
    assert sc.kind == "mm1"
    assert sc.T == 0.01 and sc.horizon == 20.0
    assert sc.alpha == 0.97 and sc.beta == 3.0
    assert np.array_equal(sc.x0, X0_BENCH)
    assert len(sc.disturbance.segments) == 3
    assert sc.disturbance.segments[1].t_end == pytest.approx(5 * np.pi)
    assert sc.noise.halfwidth == 0.005


def test_parse_unknown_section():
    with pytest.raises(ScenarioError, match=r"unknown section \[observer\]"):
        parse_scenario_text(MINIMAL + "\n[observer]\nL = 1\n")


def test_parse_unknown_key_names_location():
    # substeps and record_intersample are Scenario fields, not file keys
    for section, key, value in (("controller", "gamma", "2"),
                                ("timing", "substeps", "10"),
                                ("timing", "record_intersample", "true")):
        with pytest.raises(ScenarioError,
                           match=rf"unknown key '{key}'.*\[{section}\].*line"):
            parse_scenario_text(MINIMAL + f"\n[{section}]\n{key} = {value}\n")


def test_parse_key_before_section():
    with pytest.raises(ScenarioError, match="before any"):
        parse_scenario_text("kind = mm1\n" + MINIMAL)


def test_parse_missing_equals():
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario_text(MINIMAL + "\n[noise]\nuniform\n")


def test_parse_duplicate_key():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario_text(MINIMAL + "\n[timing]\nT = 0.02\n")


def test_parse_missing_required():
    text = MINIMAL.replace("H = 1 1\n", "")
    with pytest.raises(ScenarioError, match=r"missing required key 'h'"):
        parse_scenario_text(text)


def test_parse_wrong_surface_shape():
    with pytest.raises(ScenarioError, match="H must be 1x2"):
        parse_scenario_text(MINIMAL.replace("H = 1 1", "H = 1 0 ; 0 1"))


def test_parse_alpha_beta_disagree():
    text = MINIMAL.replace("beta = 3.0", "beta = 3.0\nalpha = 0.9")
    with pytest.raises(ScenarioError, match="disagree"):
        parse_scenario_text(text)


def test_parse_error_carries_line_number():
    bad = MINIMAL.replace("T = 0.01", "T = fast")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(bad)
    assert err.value.section == "timing"
    assert err.value.key == "T"
    assert err.value.line is not None
    assert f"line {err.value.line}" in str(err.value)


def test_parse_segments_grammar():
    text = MINIMAL + """
[disturbance]
segment = 0 1 : const 2.0
segment = 1 inf : sin 1.0 1.0 0.5 0.0
"""
    sc = parse_scenario_text(text).scenario
    segs = sc.disturbance.segments
    assert len(segs) == 2
    assert segs[0].t_end == 1.0 and segs[1].t_end == np.inf
    assert np.allclose(sc.disturbance.value(0.5), [2.0])
    assert np.allclose(sc.disturbance.value(2.0), [1.0 + np.sin(1.0)])


def test_parse_segment_errors():
    with pytest.raises(ScenarioError, match="t0 t1 : forms"):
        parse_scenario_text(MINIMAL + "\n[disturbance]\nsegment = 0 1 zero\n")
    with pytest.raises(ScenarioError, match="unknown disturbance form"):
        parse_scenario_text(MINIMAL + "\n[disturbance]\nsegment = 0 1 : step 2\n")
    with pytest.raises(ScenarioError, match="channel forms"):
        parse_scenario_text(
            MINIMAL + "\n[disturbance]\nsegment = 0 1 : zero ; zero\n")
    with pytest.raises(ScenarioError, match="two times"):
        parse_scenario_text(MINIMAL + "\n[disturbance]\nsegment = 0 : zero\n")


def test_parse_plant_file_relative(tmp_path):
    plant_file = tmp_path / "toy.plant"
    plant_file.write_text("0 1\n0 0\n\n0\n1\n\n1 0\n0 1\n")
    scn = tmp_path / "toy.scn"
    scn.write_text(MINIMAL.replace(
        "A = 0 1 ; 0 0\nB = 0 ; 1\nC = 1 0 ; 0 1", "file = toy.plant"))
    sf = parse_scenario_file(scn)
    assert sf.scenario.plant.n == 2
    assert sf.path == str(scn)


# --- CLI ------------------------------------------------------------------------

def test_cli_run_benchmark(tmp_path):
    out = tmp_path / "o"
    res = cli("run", "aircraft", "--out", str(out))
    assert res.returncode == 0, res.stderr
    csv = out / "aircraft_mm1.csv"
    assert csv.exists()
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 1 + 2001
    assert lines[0].startswith("k,t,x1")
    assert "u_peak" in res.stdout
    assert (out / "aircraft_mm1_summary.txt").exists()


def test_cli_run_plots(tmp_path):
    out = tmp_path / "o"
    res = cli("run", "aircraft", "--horizon", "1.0", "--plot", "--out", str(out))
    assert res.returncode == 0, res.stderr
    for tag in ("u", "x", "s"):
        svg = out / f"aircraft_mm1_{tag}.svg"
        assert svg.exists()
        body = svg.read_text()
        assert body.startswith("<svg") and "polyline" in body


def test_cli_run_honours_formats(tmp_path):
    shipped = builtin_scenario_path("aircraft")
    shutil.copy(os.path.join(os.path.dirname(shipped), "aircraft.plant"), tmp_path)
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read()
    assert "formats = csv summary" in text
    svg_only = tmp_path / "aircraft.scn"
    svg_only.write_text(text.replace("formats = csv summary", "formats = svg"))
    out = tmp_path / "o"
    res = cli("run", str(svg_only), "--horizon", "1.0", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "aircraft_mm1_s.svg", "aircraft_mm1_u.svg", "aircraft_mm1_x.svg"]
    bogus = tmp_path / "bogus.scn"
    bogus.write_text(text.replace("formats = csv summary", "formats = csv bogus"))
    res = cli("run", str(bogus), "--out", str(tmp_path / "b"))
    assert res.returncode == 2
    assert "'bogus'" in res.stderr
    assert not (tmp_path / "b").exists()


def test_cli_short_disturbance_exit_2(tmp_path):
    # a disturbance that ends before the horizon is a configuration error
    shipped = builtin_scenario_path("aircraft")
    shutil.copy(os.path.join(os.path.dirname(shipped), "aircraft.plant"), tmp_path)
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read()
    assert "15.707963267948966 inf :" in text
    short = tmp_path / "short.scn"
    short.write_text(text.replace("15.707963267948966 inf :", "15.707963267948966 18 :"))
    res = cli("run", str(short), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "configuration error" in res.stderr
    assert "sample 1800" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_run_controller_override(tmp_path):
    out = tmp_path / "o"
    res = cli("run", "aircraft", "--controller", "m2", "--horizon", "1.0",
              "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "aircraft_m2.csv").exists()


def test_cli_run_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = cli("run", "aircraft", "--horizon", "2.0", "--noise", "0.005",
                  "--seed", "11", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert (a / "aircraft_mm1.csv").read_bytes() == \
        (b / "aircraft_mm1.csv").read_bytes()


def test_cli_missing_scenario_exit_2():
    res = cli("run", "no_such_scenario")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_cli_malformed_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("H = 1 1", "H = 1 x"))
    res = cli("run", str(bad))
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_cli_singular_coupling_exit_3(tmp_path):
    scn = tmp_path / "rot.scn"
    scn.write_text("""
[plant]
A = 0 3.141592653589793 ; -3.141592653589793 0
B = 1 ; 0
C = 1 0 ; 0 1

[surface]
H = 1 0

[controller]
kind = mm1
beta = 0.03

[timing]
T = 1.0
horizon = 5.0
""")
    res = cli("run", str(scn))
    assert res.returncode == 3
    assert "assumption violated" in res.stderr


def test_cli_divergence_exit_4(tmp_path):
    scn = tmp_path / "unstable.scn"
    scn.write_text("""
[plant]
A = -3.79 0.04 -52 0 ; -0.14 -0.36 4.24 0 ; 0.06 -1 -0.27 0.05 ; 1 0.06 0 0
B = 25 9.83 ; 1.42 -4.2 ; 0.01 0.05 ; 0 0
C = 1 0 0 0 ; 0 1 0 0 ; 0 0 0 1
x0 = -1 1 1 -2

[surface]
H = 0.125 0.397 0.276 ; -0.275 -0.2 0.374

[controller]
kind = mm1
alpha = 0.97

[timing]
T = 0.01
horizon = 20.0
""")
    res = cli("run", str(scn))
    assert res.returncode == 4
    assert "divergence" in res.stderr
    assert "1246" in res.stderr


def test_cli_verify_benchmark(tmp_path):
    res = cli("verify", "aircraft", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "certified = true" in res.stdout
    assert "rho_aug1" in res.stdout and "rho_aug2" in res.stdout
    assert (tmp_path / "aircraft_verify.txt").exists()


def test_cli_verify_destabilized_exit_3(tmp_path):
    scn = tmp_path / "unstable.scn"
    scn.write_text("""
[plant]
A = -3.79 0.04 -52 0 ; -0.14 -0.36 4.24 0 ; 0.06 -1 -0.27 0.05 ; 1 0.06 0 0
B = 25 9.83 ; 1.42 -4.2 ; 0.01 0.05 ; 0 0
C = 1 0 0 0 ; 0 1 0 0 ; 0 0 0 1

[surface]
H = 0.125 0.397 0.276 ; -0.275 -0.2 0.374

[controller]
kind = mm1
alpha = 0.97

[timing]
T = 0.01
horizon = 20.0
""")
    res = cli("verify", str(scn))
    assert res.returncode == 3
    # the report still prints the spectral radius table before failing
    assert "rho_aug1" in res.stdout
    assert "certified = false" in res.stdout


def test_cli_sweep_short_ladder(tmp_path):
    res = cli("sweep", "aircraft", "--metric", "u_peak",
              "--ladder", "0.02,0.01,0.005", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "slope =" in res.stdout
    assert "in_band = true" in res.stdout


def test_cli_sweep_bad_ladder_exit_2():
    res = cli("sweep", "aircraft", "--ladder", "0.02,fast")
    assert res.returncode == 2


def test_cli_benchmark(tmp_path):
    res = cli("benchmark", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "ranking_ok = true" in res.stdout
    for kind in ("m1", "m2", "mm1", "mm2"):
        assert (tmp_path / f"benchmark_{kind}.csv").exists()


def test_cli_rejects_unknown_controller():
    res = cli("run", "aircraft", "--controller", "pid")
    assert res.returncode == 2


def test_parse_rejects_disturbance_short_of_horizon():
    text = MINIMAL + """
[disturbance]
segment = 0 0.4 : const 1.0
segment = 0.4 0.75 : zero
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    last = text.splitlines().index("segment = 0.4 0.75 : zero") + 1
    assert err.value.section == "disturbance"
    assert err.value.line == last
    assert "sample 75" in str(err.value)
    # segments that reach the horizon exactly are enough
    parse_scenario_text(text.replace("0.75 : zero", "1.0 : zero"))


@pytest.mark.parametrize("command", ["verify", "run"])
def test_cli_short_disturbance_rejected_at_parse(tmp_path, command):
    shipped = builtin_scenario_path("aircraft")
    shutil.copy(os.path.join(os.path.dirname(shipped), "aircraft.plant"), tmp_path)
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read()
    short_text = text.replace("15.707963267948966 inf :", "15.707963267948966 18 :")
    line = short_text.splitlines().index(
        next(ln for ln in short_text.splitlines() if "15.707963267948966 18 :" in ln)) + 1
    short = tmp_path / "short.scn"
    short.write_text(short_text)
    res = cli(command, str(short), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "section [disturbance]" in res.stderr
    assert f"line {line}" in res.stderr
    assert "certified" not in res.stdout
    assert not (tmp_path / "o").exists()


def test_cli_verify_reports_closed_loop_radius():
    res = cli("verify", "aircraft")
    assert res.returncode == 0, res.stderr
    from qsmc.report import parse_kv
    kv = parse_kv(res.stdout)
    rows = {k.split(".")[1] for k in kv if k.startswith("stability.")}
    for row in rows:
        for kind in ("m1", "m2", "mm1", "mm2"):
            assert 0.0 < float(kv[f"stability.{row}.rho_cl.{kind}"]) < 1.0


def test_sweep_gate_is_verify_closed_loop_radius(capsys):
    # an m1 rung is gated on the loop that runs (alpha = 0), the radius
    # verify prints as rho_cl.m1, not on the contraction-alpha augmented one
    from qsmc.cli import main
    from qsmc.report import parse_kv
    assert main(["verify", "aircraft"]) == 0
    verify = parse_kv(capsys.readouterr().out)
    row = next(k.split(".")[1] for k, v in verify.items()
               if k.startswith("stability.") and k.endswith(".T") and float(v) == 0.0025)
    assert main(["sweep", "aircraft", "--controller", "m1",
                 "--ladder", "0.01,0.005,0.0025"]) == 0
    sweep = parse_kv(capsys.readouterr().out)
    assert float(sweep["points.2.T"]) == 0.0025
    assert sweep["points.2.certified"] == "true"
    gate = float(sweep["points.2.rho_cl"])
    assert gate == float(verify[f"stability.{row}.rho_cl.m1"])
    assert gate != float(verify[f"stability.{row}.rho_aug1"])
