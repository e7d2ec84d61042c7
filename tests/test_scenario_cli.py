import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qsmc import (ContinuousPlant, Scenario, ScenarioError,
                  builtin_scenario_path, load_aircraft_scenario,
                  parse_scenario_text)
from qsmc.cli import main
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


# the package's source tree, so `python -m qsmc` runs it from any directory
SRC = str(Path(__file__).resolve().parents[1] / "src")


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def cli(*args):
    """`qsmc *args` run in process through cli.main, with its output
    captured; an argparse error leaves by SystemExit and gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_process(*args):
    """`python -m qsmc *args` in a subprocess: the entry point itself and
    the exit codes a shell sees."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "qsmc", *args],
                          capture_output=True, text=True, env=env)


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


def test_readme_example_scenario_parses():
    # the README's ini block is the shipped scenario with its comments
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    got = parse_scenario_text(
        block, base_dir=os.path.dirname(builtin_scenario_path("aircraft")))
    want = load_aircraft_scenario()
    for field in dataclasses.fields(Scenario):
        a, b = getattr(got.scenario, field.name), getattr(want.scenario, field.name)
        if isinstance(a, ContinuousPlant):
            for name in "ABC":
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    assert (got.out_dir, got.formats) == (want.out_dir, want.formats)


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
    res = cli_process("run", "aircraft", "--out", str(out))
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
    res = cli_process("run", str(bad))
    assert res.returncode == 2
    assert "configuration error" in res.stderr


# a rotation held over T = 1.0 averages its one input direction to zero
ROTATION = """
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
"""


def test_cli_singular_coupling_exit_3(tmp_path):
    scn = tmp_path / "rot.scn"
    scn.write_text(ROTATION)
    res = cli_process("run", str(scn))
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
    res = cli_process("run", str(scn))
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


def test_cli_sweep_flags_zero_metric_rung():
    # m2 emits no input during its 2-sample warm-up, so a 0.5 s run at
    # T = 0.4 reads u_peak = 0: the rung is stable and certified, but
    # log(0) has no place in the fit, so it is flagged and left out
    from qsmc.report import parse_kv
    res = cli("sweep", "aircraft", "--controller", "m2", "--metric", "u_peak",
              "--ladder", "0.4,0.2,0.1", "--horizon", "0.5", "--beta", "1")
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    assert kv["points.0.value"] == "0.0"
    assert kv["points.0.certified"] == "true"
    assert kv["points.0.flagged"] == "u_peak is 0.0 at T = 0.4: no logarithm"
    assert kv["points.1.flagged"] == kv["points.2.flagged"] == "none"
    # the slope of the two fitted rungs, with no spread from two points
    v1, v2 = float(kv["points.1.value"]), float(kv["points.2.value"])
    slope = (np.log(v2) - np.log(v1)) / (np.log(0.1) - np.log(0.2))
    assert float(kv["slope"]) == pytest.approx(slope, rel=1e-12)
    assert kv["half_width"] == "none"


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


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_cli_unknown_form_rejected_at_parse(tmp_path, command):
    # there is one derivation of each law: every command refuses a form key
    # as it refuses any unknown key, before it runs anything
    shipped = builtin_scenario_path("aircraft")
    shutil.copy(os.path.join(os.path.dirname(shipped), "aircraft.plant"), tmp_path)
    with open(shipped, encoding="utf-8") as fh:
        text = fh.read()
    assert "kind = mm1\n" in text
    bad_text = text.replace("kind = mm1\n", "kind = mm1\nform = estimate\n")
    line = bad_text.splitlines().index("form = estimate") + 1
    bad = tmp_path / "bad.scn"
    bad.write_text(bad_text)
    res = cli(command, str(bad), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "unknown key 'form'" in res.stderr
    assert "section [controller]" in res.stderr
    assert "key 'form'" in res.stderr
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


# --- non-finite and malformed numbers -----------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "aircraft", "--T", "nan"],
    ["run", "aircraft", "--horizon", "inf"],
    ["sweep", "aircraft", "--ladder", "0.02,0.01,inf"],
    ["sweep", "aircraft", "--ladder=-0.01,-0.02,-0.04"],
    ["run", "aircraft", "--noise", "inf"],
    ["run", "aircraft", "--noise", "nan"],
    ["run", "aircraft", "--noise", "-1"],
    # equal ratios of 1 are not a geometric ladder
    ["sweep", "aircraft", "--ladder", "0.01,0.01,0.01"],
    # a seed outside [0, 2**64) would wrap to one inside
    ["run", "aircraft", "--noise", "0.005", "--seed", "-1"],
    ["run", "aircraft", "--seed", "18446744073709551616"],
    ["benchmark", "--seed", "-5"],
    # seed + 1 = 2**64: a noise-free benchmark runs only the first seed
    ["benchmark", "--seed", "18446744073709551615", "--seeds", "2"],
    # shorter than one period: no step to take
    ["run", "aircraft", "--horizon", "0.001"],
], ids=["T-nan", "horizon-inf", "ladder-inf", "ladder-negative", "noise-inf",
        "noise-nan", "noise-negative", "ladder-repeated", "seed-negative",
        "seed-2**64", "benchmark-seed-negative", "benchmark-seeds-past-2**64",
        "horizon-below-T"])
def test_cli_non_finite_timing_exit_2(tmp_path, argv):
    code, _, err = cli(*argv, "--out", str(tmp_path / "o"))
    assert code == 2, err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", ["", "[disturbance]\nsegment = 0 0.5 : const 1.0\n"],
                         ids=["plain", "short-disturbance"])
def test_cli_scenario_file_nan_period_exit_2(tmp_path, extra):
    path = tmp_path / "nan.scn"
    path.write_text(MINIMAL.replace("T = 0.01", "T = nan") + extra)
    code, _, err = cli("run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2, err
    assert "finite and positive" in err


@pytest.mark.parametrize("band", ["0.5", "1.3,0.7", "0.7,1.3,9", "nan,1", "0.7,fast"])
def test_cli_sweep_band_needs_two_ordered_numbers(tmp_path, band):
    code, _, err = cli("sweep", "aircraft", "--band", band,
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "--band" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_verify_singular_period_exit_3(tmp_path):
    # verify builds one design per period; the singular one stops it before
    # any report is written
    scn = tmp_path / "rot.scn"
    scn.write_text(ROTATION)
    code, _, err = cli("verify", str(scn), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "assumption violated" in err and "at T = 1.0" in err
    assert not (tmp_path / "o").exists()


def test_cli_singular_coupling_names_the_test_that_fired(tmp_path):
    # the 1x1 coupling has cond 1 however small it is; what fires is its
    # singular value at rounding level relative to |H| |C| |input_rate|
    scn = tmp_path / "rot.scn"
    scn.write_text(ROTATION)
    code, _, err = cli("run", str(scn), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "singular at T = 1.0" in err and "cond" not in err
    lead = "smallest singular value "
    assert lead in err
    figure = float(err.split(lead, 1)[1].split()[0])
    assert 0.0 <= figure <= 1e-12
    assert not (tmp_path / "o").exists()


def test_verify_builds_one_design_per_period(monkeypatch, capsys):
    # the scenario period is on the ladder; its memory-spectrum check reads
    # the same design as its stability row
    from qsmc.surface import build_surface as real
    calls = []

    def counted(plant, disc, H, annihilator=None):
        calls.append(disc.T)
        return real(plant, disc, H, annihilator=annihilator)

    # every module that binds the name calls through the counter
    for name, module in list(sys.modules.items()):
        if name.startswith("qsmc.") and getattr(module, "build_surface", None) is real:
            monkeypatch.setattr(module, "build_surface", counted)
    assert main(["verify", "aircraft"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [0.0025, 0.005, 0.01, 0.02]


def test_cli_eq_disturbance_ending_at_horizon_exit_2(tmp_path):
    # eq reads d[steps], one period past the horizon; a file whose last
    # segment ends at the horizon is refused before anything runs, while the
    # implementable laws run on it
    last = "segment = 15.707963267948966 inf : sin 1.0 1.0 0.5 0.0 ; cos 0.5 1.0"
    path, _ = _shipped_copy(tmp_path, last, last.replace(" inf ", " 20 "))
    code, _, err = cli("run", str(path), "--controller", "eq",
                       "--out", str(tmp_path / "eq"))
    assert code == 2, err
    assert "the eq oracle reads d[2000], one period past the horizon" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eq").exists()
    assert cli("run", str(path), "--out", str(tmp_path / "mm1")).returncode == 0


def _shipped_copy(tmp_path, old, new):
    """(path, line of new) of a copy of the shipped scenario with the line
    old replaced by new, next to a copy of its plant file."""
    shipped = builtin_scenario_path("aircraft")
    shutil.copy(os.path.join(os.path.dirname(shipped), "aircraft.plant"), tmp_path)
    lines = Path(shipped).read_text(encoding="utf-8").splitlines()
    at = lines.index(old)
    lines[at] = new
    path = tmp_path / "copy.scn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, at + 1


@pytest.mark.parametrize("old, new, section, key", [
    ("T = 0.01", "T = nan", "timing", "T"),
    ("horizon = 20.0", "horizon = -1", "timing", "horizon"),
    ("x0 = -1.0 1.0 1.0 -2.0", "x0 = 1 2 3", "plant", "x0"),
    # alpha and beta are both set: T is checked before they are compared
    ("T = 0.01", "T = inf", "timing", "T"),
    # kind = none: a halfwidth is checked whatever the kind
    ("halfwidth = 0.005", "halfwidth = nan", "noise", "halfwidth"),
    ("halfwidth = 0.005", "halfwidth = -0.5", "noise", "halfwidth"),
    ("seed = 20260815", "seed = -1", "noise", "seed"),
    # non-finite numbers are refused by the value objects, located by the parser
    ("x0 = -1.0 1.0 1.0 -2.0", "x0 = nan 1.0 1.0 -2.0", "plant", "x0"),
    ("H = 0.035306 0.082634 0.076550 ; 0.011937 -0.210157 0.008324",
     "H = nan 0.082634 0.076550 ; 0.011937 -0.210157 0.008324", "surface", "H"),
    ("segment = 10 15.707963267948966 : const 2.0 ; const -0.5",
     "segment = 10 15.707963267948966 : const nan ; const -0.5",
     "disturbance", "segment"),
], ids=["T-nan", "horizon-negative", "x0-short", "T-inf-alpha-beta",
        "halfwidth-nan", "halfwidth-negative", "seed-negative", "x0-nan",
        "H-nan", "const-nan"])
def test_cli_scenario_value_errors_name_location(tmp_path, old, new, section, key):
    path, line = _shipped_copy(tmp_path, old, new)
    code, _, err = cli("run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2, err
    assert f"(section [{section}], key '{key}', line {line})" in err
    assert "disagree" not in err
    assert not (tmp_path / "o").exists()


def test_cli_plant_file_non_finite_names_location(tmp_path):
    # a plant file is one key: a non-finite entry in it is located there
    path, line = _shipped_copy(tmp_path, "file = aircraft.plant", "file = bad.plant")
    plant = (tmp_path / "aircraft.plant").read_text(encoding="utf-8")
    (tmp_path / "bad.plant").write_text(plant.replace("-3.79 0.04", "inf 0.04"),
                                        encoding="utf-8")
    code, _, err = cli("run", str(path), "--out", str(tmp_path / "o"))
    assert code == 2, err
    assert "A must be finite, got inf at row 1, column 1" in err
    assert f"(section [plant], key 'file', line {line})" in err
    assert not (tmp_path / "o").exists()


def test_cli_T_override_holds_beta_of_alpha_only_file(tmp_path, capsys):
    # --T alone keeps beta fixed; a file without beta holds the one its
    # alpha and T give (3.0 here), as the shipped file, which sets it, does
    path, _ = _shipped_copy(tmp_path, "beta = 3.0", "")
    summaries = []
    for scenario in (str(path), "aircraft"):
        assert main(["run", scenario, "--T", "0.005",
                     "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        summaries.append([ln for ln in out.splitlines() if not ln.startswith("wrote")])
    assert summaries[0] == summaries[1]
    assert "T = 0.005" in summaries[0]
