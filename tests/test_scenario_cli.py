import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsmc import (ContinuousPlant, Scenario, ScenarioError, builtin_scenario_path,
                  load_aircraft_scenario, parse_scenario_text)
from qsmc.cli import main
from qsmc.scenario import parse_scenario_file

from conftest import H_UNSTABLE, X0_BENCH

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


def test_cli_benchmark(tmp_path):
    res = cli("benchmark", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "ranking_ok = true" in res.stdout
    for kind in ("m1", "m2", "mm1", "mm2"):
        assert (tmp_path / f"benchmark_{kind}.csv").exists()


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

    def counted(plant, disc, H):
        calls.append(disc.T)
        return real(plant, disc, H)

    # every module that binds the name calls through the counter
    for name, module in list(sys.modules.items()):
        if name.startswith("qsmc.") and getattr(module, "build_surface", None) is real:
            monkeypatch.setattr(module, "build_surface", counted)
    assert main(["verify", "aircraft"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [0.0025, 0.005, 0.01, 0.02]


def test_cli_plant_file_non_finite_names_location(tmp_path):
    # a plant file is one key: a non-finite entry in it is located there
    path, line = _edited_copy(tmp_path, (("file = aircraft.plant", "file = bad.plant"),))
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
    path, _ = _edited_copy(tmp_path, (("beta = 3.0", ""),))
    summaries = []
    for scenario in (str(path), "aircraft"):
        assert main(["run", scenario, "--T", "0.005",
                     "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        summaries.append([ln for ln in out.splitlines() if not ln.startswith("wrote")])
    assert summaries[0] == summaries[1]
    assert "T = 0.005" in summaries[0]


# --- refused input --------------------------------------------------------------
# Every refused input is a row: an id (topic/case), the argv (FILE stands
# for the edited scenario), the message fragment and the location the
# message must name; each exits 2 before printing a report.

SHIPPED = Path(builtin_scenario_path("aircraft")).read_text(encoding="utf-8")
FILE = "<edited scenario>"
LAST_SEGMENT = "segment = 15.707963267948966 inf : sin 1.0 1.0 0.5 0.0 ; cos 0.5 1.0"
CONST_SEGMENT = "segment = 10 15.707963267948966 : const 2.0 ; const -0.5"
H_SHIPPED = "H = 0.035306 0.082634 0.076550 ; 0.011937 -0.210157 0.008324"
X0 = "x0 = -1.0 1.0 1.0 -2.0"


class Refusal(NamedTuple):
    id: str
    argv: tuple
    fragment: str
    where: str | None = None
    edits: tuple = ()     # (old line, new text) pairs applied to base
    base: str = SHIPPED


def loc(section=None, key=None, line=True):
    """The location a ScenarioError names; {line} stands for the last line
    of the row's first edit."""
    parts = ([f"section [{section}]"] if section else []) + \
        ([f"key {key!r}"] if key else []) + (["line {line}"] if line else [])
    return f"({', '.join(parts)})"


# options: (id, argv, fragment)
OPTION_ROWS = [
    ("option/T-nan", "run aircraft --T nan", "T must be finite and positive, got nan"),
    ("option/horizon-inf", "run aircraft --horizon inf",
     "horizon must be finite and positive, got inf"),
    ("option/ladder-inf", "sweep aircraft --ladder 0.02,0.01,inf",
     "ladder periods must be finite and positive"),
    ("option/ladder-negative", "sweep aircraft --ladder=-0.01,-0.02,-0.04",
     "ladder periods must be finite and positive"),
    ("option/noise-inf", "run aircraft --noise inf",
     "noise halfwidth must be finite and >= 0, got inf"),
    ("option/noise-nan", "run aircraft --noise nan",
     "noise halfwidth must be finite and >= 0, got nan"),
    ("option/noise-negative", "run aircraft --noise -1",
     "noise halfwidth must be finite and >= 0, got -1.0"),
    # equal ratios of 1 are not a geometric ladder
    ("option/ladder-repeated", "sweep aircraft --ladder 0.01,0.01,0.01",
     "ladder periods must be distinct"),
    # a seed outside [0, 2**64) would wrap to one inside
    ("option/seed-negative", "run aircraft --noise 0.005 --seed -1",
     "noise seed must lie in [0, 2**64), got -1"),
    ("option/seed-2**64", "run aircraft --seed 18446744073709551616",
     "got 18446744073709551616"),
    ("option/benchmark-seed-negative", "benchmark --seed -5", "got -5"),
    # seed + 1 = 2**64: a noise-free benchmark runs only the first seed
    ("option/benchmark-seeds-past-2**64",
     "benchmark --seed 18446744073709551615 --seeds 2", "got 18446744073709551616"),
    # shorter than one period: no step to take
    ("option/horizon-below-T", "run aircraft --horizon 0.001", "shorter than one period"),
    *(("band/" + band, f"sweep aircraft --band {band}", "--band")
      for band in ("0.5", "1.3,0.7", "0.7,1.3,9", "nan,1", "0.7,fast")),
    ("ladder/fast", "sweep aircraft --ladder 0.02,fast",
     "--ladder wants comma-separated periods, got '0.02,fast'"),
    ("controller/pid", "run aircraft --controller pid",
     "argument --controller: invalid choice: 'pid'"),
    ("missing/file", "run no_such_scenario", "scenario file not found"),
    # inputs that escaped with a traceback, or that ran the default ladder
    ("escaped/T-5e-324", "run aircraft --T 5e-324",
     "horizon 20.0 holds inf samples of T = 5e-324, past the 1000000"),
    ("escaped/horizon-1e300", "run aircraft --horizon 1e300",
     "horizon 1e+300 holds 1e+302 samples of T = 0.01"),
    ("escaped/horizon-2**70", f"run aircraft --horizon {2 ** 70}", "a run may hold"),
    *((f"escaped/{command}-T-1e200", f"{command} aircraft --T 1e200 --horizon 1e200",
       "sampling period must be positive with a finite square, got 1e+200")
      for command in ("run", "verify")),
    # verify allocates nothing per sample, so only discretize sees the
    # denormal period, whose square underflows to 0
    ("escaped/verify-T-5e-324", "verify aircraft --T 5e-324 --beta 1e308",
     "sampling period must be positive with a nonzero square, got 5e-324"),
    ("escaped/T-1e100", "run aircraft --T 1e100 --horizon 1e100",
     "exp(A T) overflows at T = 1e+100"),
    *((f"escaped/benchmark-seeds-2**{e}", f"benchmark --seed 0 --seeds {2 ** e}",
       f"--seeds {2 ** e} is more than the 10000 seeds a benchmark may run")
      for e in (63, 70)),
    ("escaped/ladder-empty", "sweep aircraft --ladder=",
     "--ladder wants comma-separated periods, got ''"),
]
AFTER = "horizon = 1.0\n"   # MINIMAL's last line, then more text
# one-line edits of MINIMAL, run as `run FILE`: (id, old, new, fragment, where)
MINIMAL_ROWS = [
    ("unknown-section/observer", "horizon = 1.0", AFTER + "[observer]",
     "unknown section [observer]", loc()),
    ("unknown-key/gamma", "beta = 3.0", "beta = 3.0\ngamma = 2",
     "unknown key 'gamma'", loc("controller", "gamma")),
    # substeps and record_intersample are Scenario fields, not file keys
    *((f"unknown-key/{key}", "horizon = 1.0", AFTER + f"{key} = 1",
       f"unknown key '{key}'", loc("timing", key))
      for key in ("substeps", "record_intersample")),
    ("key-before-section/kind", "", "kind = mm1",
     "key before any [section] header", loc()),
    ("missing-equals/uniform", "horizon = 1.0", AFTER + "[noise]\nuniform",
     "expected 'key = value', got 'uniform'", loc("noise")),
    ("duplicate-key/T", "horizon = 1.0", AFTER + "T = 0.02", "duplicate key 't'",
     loc("timing", "t")),
    ("missing-required/H", "H = 1 1", "", "missing required key 'h'",
     loc("surface", "h", line=False)),
    ("surface-shape/H", "H = 1 1", "H = 1 0 ; 0 1",
     "H must be 1x2 for this plant, got 2x2", loc("surface", "H")),
    ("alpha-beta/disagree", "beta = 3.0", "beta = 3.0\nalpha = 0.9",
     "alpha and beta disagree", loc("controller", "alpha")),
    ("line-number/T", "T = 0.01", "T = fast", "expected number, got 'fast'",
     loc("timing", "T")),
    *((f"segment/{case}", "horizon = 1.0", AFTER + "[disturbance]\nsegment = " + text,
       fragment, loc("disturbance", "segment", line=case != "channels"))
      for case, text, fragment in [
          ("colon", "0 1 zero", "segment needs 't0 t1 : forms'"),
          ("form", "0 1 : step 2", "unknown disturbance form 'step 2'"),
          ("channels", "0 1 : zero ; zero", "each segment needs 1 channel forms"),
          ("times", "0 : zero", "segment needs exactly two times before ':'")]),
    # the line is the last segment's, the sample the first it leaves uncovered
    ("short-of-horizon/sample-75", "horizon = 1.0", AFTER + "[disturbance]\n"
     "segment = 0 0.4 : const 1.0\nsegment = 0.4 0.75 : zero", "sample 75",
     loc("disturbance", "segment")),
    ("nan-period/plain", "T = 0.01", "T = nan", "T must be finite and positive",
     loc("timing", "T")),
]
# one-line edits of the shipped scenario, run as `run FILE`
SHIPPED_ROWS = [
    ("value/T-nan", "T = 0.01", "T = nan", "T must be finite and positive, got nan",
     loc("timing", "T")),
    ("value/horizon-negative", "horizon = 20.0", "horizon = -1",
     "horizon must be finite and positive, got -1.0", loc("timing", "horizon")),
    ("value/x0-short", X0, "x0 = 1 2 3", "x0 must have 4 entries, got 3",
     loc("plant", "x0")),
    # alpha and beta are both set: T is checked before they are compared
    ("value/T-inf-alpha-beta", "T = 0.01", "T = inf",
     "T must be finite and positive, got inf", loc("timing", "T")),
    # kind = none: a halfwidth is checked whatever the kind
    ("value/halfwidth-nan", "halfwidth = 0.005", "halfwidth = nan",
     "halfwidth must be finite and >= 0, got nan", loc("noise", "halfwidth")),
    ("value/halfwidth-negative", "halfwidth = 0.005", "halfwidth = -0.5",
     "halfwidth must be finite and >= 0, got -0.5", loc("noise", "halfwidth")),
    ("value/seed-negative", "seed = 20260815", "seed = -1",
     "noise seed must lie in [0, 2**64), got -1", loc("noise", "seed")),
    ("value/x0-nan", X0, "x0 = nan 1.0 1.0 -2.0",
     "x0 must be finite, got nan at entry 1", loc("plant", "x0")),
    ("value/H-nan", H_SHIPPED, H_SHIPPED.replace("0.035306", "nan"),
     "H must be finite, got nan at row 1, column 1", loc("surface", "H")),
    ("value/const-nan", CONST_SEGMENT, CONST_SEGMENT.replace("2.0", "nan"),
     "const level must be finite, got nan", loc("disturbance", "segment")),
]
REFUSALS = [
    *(Refusal(i, tuple(argv.split()), f) for i, argv, f in OPTION_ROWS),
    *(Refusal(i, ("run", FILE), f, w, ((old, new),), MINIMAL)
      for i, old, new, f, w in MINIMAL_ROWS),
    *(Refusal(i, ("run", FILE), f, w, ((old, new),)) for i, old, new, f, w in SHIPPED_ROWS),
    # the parser's check that the segments cover the horizon divides by T
    Refusal("nan-period/short-disturbance", ("run", FILE), "finite and positive",
            loc("timing", "T"), (("T = 0.01", "T = nan"), (
                "horizon = 1.0", AFTER + "[disturbance]\nsegment = 0 0.5 : const 1.0")),
            MINIMAL),
    # a denormal T overflows the first uncovered sample's index, and the
    # refusal names none
    Refusal("escaped/short-disturbance-T-5e-324", ("run", FILE),
            "segments end at t = 0.5, before the horizon 1.0", loc("disturbance", "segment"),
            (("horizon = 1.0", AFTER + "[disturbance]\nsegment = 0 0.5 : const 1.0"),
             ("T = 0.01", "T = 5e-324")), MINIMAL),
    # a disturbance that ends before the horizon is refused at parse, so no
    # command prints a report
    *(Refusal(f"short-disturbance/{command}", (command, FILE), "sample 1800",
              loc("disturbance", "segment"),
              ((LAST_SEGMENT, LAST_SEGMENT.replace(" inf ", " 18 ")),))
      for command in ("verify", "run", "sweep")),
    # there is one derivation of each law: every command refuses a form key
    # as it refuses any unknown key, before it runs anything
    *(Refusal(f"form-key/{command}", (command, FILE), "unknown key 'form'",
              loc("controller", "form"), (("kind = mm1", "kind = mm1\nform = estimate"),))
      for command in ("run", "verify", "sweep")),
    # a nan never agrees, so it is not dropped for alpha; named at alpha
    Refusal("escaped/beta-nan", ("run", FILE), "alpha and beta disagree",
            loc("controller", "alpha"),
            (("alpha = 0.97", "beta = nan\nalpha = 0.97"), ("beta = 3.0", ""))),
    # eq reads d[steps], one period past a horizon where the segments end
    Refusal("eq/eq", ("run", FILE, "--controller", "eq"),
            "the eq oracle reads d[2000], one period past the horizon", None,
            ((LAST_SEGMENT, LAST_SEGMENT.replace(" inf ", " 20 ")),)),
]
ROWS = {row.id: row for row in REFUSALS}
assert len(ROWS) == len(REFUSALS)


def _edited_copy(tmp_path, edits, base=SHIPPED):
    """(path, line) of a copy of base with each (old line, new text) of
    edits applied, next to a copy of the shipped plant file; line is the
    last line of the first edit's new text."""
    shipped = builtin_scenario_path("aircraft")
    shutil.copy(os.path.join(os.path.dirname(shipped), "aircraft.plant"), tmp_path)
    lines, line = base.splitlines(), None
    for old, new in edits:
        i = lines.index(old)
        lines[i:i + 1] = new.split("\n")
        line = line or i + new.count("\n") + 1
    path = tmp_path / "copy.scn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, line


# what an exit of 2-4 prints first on its one stderr line
EXIT_LEADS = {2: "configuration error: ", 3: "assumption violated: ", 4: "divergence: "}


def assert_named_exit(res, out):
    """Exit 0-4; an exit of 2-4 names its failure on one stderr line, or is
    argparse refusing an option, and writes no out directory."""
    assert res.returncode in range(5), res
    if res.returncode >= 2:
        if res.stderr.startswith("usage: "):
            assert res.returncode == 2 and ": error: " in res.stderr, res
        else:
            named = [ln for ln in res.stderr.splitlines()
                     if ln.startswith(EXIT_LEADS[res.returncode])]
            assert len(named) == 1, res.stderr
        assert not out.exists(), res


def _cli_on(work, argv, edits=(), base=SHIPPED):
    """(cli(*argv, --out work/o), line), FILE in argv standing for a copy of
    base with edits applied and line for its first edit's last line."""
    path, line = _edited_copy(work, edits, base)
    return cli(*(str(path) if arg == FILE else arg for arg in argv),
               "--out", str(work / "o")), line


def _refused(tmp_path, *ids):
    """Each row exits 2 before printing anything, its message holds the
    row's fragment and location, and it writes no out directory."""
    for row in map(ROWS.get, ids):
        work = tmp_path / row.id.replace("/", "-")
        work.mkdir()
        res, line = _cli_on(work, row.argv, row.edits, row.base)
        assert res.returncode == 2 and res.stdout == "", res
        assert row.fragment in res.stderr, res.stderr
        assert row.where is None or row.where.format(line=line) in res.stderr, res.stderr
        assert_named_exit(res, work / "o")


@pytest.mark.parametrize("ident", ROWS)
def test_refused_input(tmp_path, ident):
    _refused(tmp_path, ident)


def test_divergence_exit_4_in_process(tmp_path):
    # the shipped scenario on an unstable surface and without a disturbance
    # diverges; cli.main names it on one stderr line and writes no out
    # directory
    H = "H = " + " ; ".join(" ".join(map(str, row)) for row in H_UNSTABLE)
    dropped = [(ln, "") for ln in SHIPPED.splitlines()
               if ln == "[disturbance]" or ln.startswith("segment = ")]
    res, _ = _cli_on(tmp_path, ["run", FILE], [(H_SHIPPED, H), *dropped])
    assert res.returncode == 4 and res.stdout == "", res
    line, = res.stderr.splitlines()
    assert line.startswith("divergence: state norm ")
    assert line.endswith(" exceeded guard at step 1246"), line
    assert_named_exit(res, tmp_path / "o")


def _again(*prefixes, each=False):
    """A test that checks again the rows whose id starts with one of
    prefixes: one test for them all, or with each=True one per row, its id
    the part after the topic."""
    ids = [i for i in ROWS if i.startswith(prefixes)]
    if not each:
        return lambda tmp_path: _refused(tmp_path, *ids)

    @pytest.mark.parametrize("ident", ids, ids=[i.split("/", 1)[1] for i in ids])
    def test(tmp_path, ident):
        _refused(tmp_path, ident)
    return test


# Test names from before the table: lists of passing tests kept across
# versions name them, so each stays and checks its rows again.
test_parse_unknown_section = _again("unknown-section/")
test_parse_unknown_key_names_location = _again("unknown-key/")
test_parse_key_before_section = _again("key-before-section/")
test_parse_missing_equals = _again("missing-equals/")
test_parse_duplicate_key = _again("duplicate-key/")
test_parse_missing_required = _again("missing-required/")
test_parse_wrong_surface_shape = _again("surface-shape/")
test_parse_alpha_beta_disagree = _again("alpha-beta/")
test_parse_segment_errors = _again("segment/")
test_cli_scenario_file_nan_period_exit_2 = _again("nan-period/", each=True)
test_cli_scenario_value_errors_name_location = _again("value/", each=True)
test_cli_short_disturbance_rejected_at_parse = _again(
    "short-disturbance/run", "short-disturbance/verify", each=True)
test_cli_short_disturbance_exit_2 = _again("short-disturbance/sweep")
test_cli_unknown_form_rejected_at_parse = _again("form-key/", each=True)
test_cli_non_finite_timing_exit_2 = _again("option/", each=True)
test_cli_sweep_band_needs_two_ordered_numbers = _again("band/", each=True)
test_cli_sweep_bad_ladder_exit_2 = _again("ladder/")
test_cli_rejects_unknown_controller = _again("controller/")
test_cli_missing_scenario_exit_2 = _again("missing/")


def test_parse_error_carries_line_number(tmp_path):
    _refused(tmp_path, "line-number/T")
    # the location is also the error's attributes
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINIMAL.replace("T = 0.01", "T = fast"))
    assert (err.value.section, err.value.key, err.value.line) == ("timing", "T", 15)


def test_parse_rejects_disturbance_short_of_horizon(tmp_path):
    _refused(tmp_path, "short-of-horizon/sample-75")
    # segments that reach the horizon exactly are enough
    parse_scenario_text(MINIMAL + "[disturbance]\nsegment = 0 0.4 : const 1.0\n"
                        "segment = 0.4 1.0 : zero\n")


def test_cli_eq_disturbance_ending_at_horizon_exit_2(tmp_path):
    # the implementable laws run on the file that eq refuses
    _refused(tmp_path, "eq/eq")
    path, _ = _edited_copy(tmp_path, ROWS["eq/eq"].edits)
    assert cli("run", str(path), "--out", str(tmp_path / "mm1")).returncode == 0


def test_cli_sample_bound_reads_the_overridden_horizon(tmp_path):
    # --T 1e-5 gives the file's 20 s horizon 2e6 samples, past the bound, but
    # the run's horizon is the --horizon given with it; verify takes any count
    res = cli("run", "aircraft", "--T", "1e-5", "--horizon", "0.1",
              "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert cli("verify", "aircraft", "--T", "1e-5").returncode == 0


def test_cli_sweep_keeps_refused_rungs_flagged():
    # no rung's horizon fits in a run; the sweep still reports every rung,
    # flagged, and exits 1 as a failed check
    from qsmc.report import parse_kv
    res = cli("sweep", "aircraft", "--ladder", "1e-300,1e-301,1e-302")
    assert res.returncode == 1, res.stderr
    kv = parse_kv(res.stdout)
    for i in range(3):
        assert kv[f"points.{i}.certified"] == "false"
        assert "a run may hold" in kv[f"points.{i}.flagged"]
    assert kv["slope"] == "none"


# --- every bad input ends in a named exit ------------------------------------------
# One option or one key of the shipped scenario takes a value from VOCAB;
# REPEATED gives the option twice, or writes the key line twice.  Valid
# runs stay short: run, verify and sweep take --horizon 0.5 first (a drawn
# --horizon comes later and wins), and every size in VOCAB that a run
# would allocate by is refused before it allocates.

REPEATED = "<repeated>"
VOCAB = ("nan", "inf", "-inf", "-0.0", "0", "-1", str(2 ** 70), "", "fast", REPEATED)
# each option and a valid value of it
SCENARIO_OPTIONS = {"--T": "0.01", "--alpha": "0.97", "--beta": "3", "--horizon": "0.5",
                    "--seed": "7", "--noise": "0.005", "--controller": "m2"}
OPTIONS = {"run": SCENARIO_OPTIONS, "verify": SCENARIO_OPTIONS,
           "sweep": {**SCENARIO_OPTIONS, "--ladder": "0.02,0.01,0.005",
                     "--band": "0.7,1.3", "--metric": "u_peak"},
           "benchmark": {"--seeds": "1", "--seed": "7"}}
KEY_LINES = [ln for ln in SHIPPED.splitlines() if " = " in ln and not ln.startswith("#")]


@st.composite
def bad_option(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command] + ([] if command == "benchmark" else
                        ["aircraft", "--horizon", "0.5"])
    options = OPTIONS[command]
    for option in draw(st.lists(st.sampled_from(sorted(options)), min_size=1,
                                max_size=2, unique=True)):
        value = draw(st.sampled_from(VOCAB))
        argv += ([f"{option}={options[option]}"] * 2 if value == REPEATED
                 else [f"{option}={value}"])
    return argv


@st.composite
def bad_key(draw):
    """(argv, edits) that run a copy of the shipped scenario with one key
    line edited."""
    line = draw(st.sampled_from(KEY_LINES))
    value = draw(st.sampled_from(VOCAB))
    new = f"{line}\n{line}" if value == REPEATED else \
        f"{line.split('=', 1)[0].strip()} = {value}"
    command = draw(st.sampled_from(("run", "verify", "sweep")))
    return (command, FILE, "--horizon", "0.5"), ((line, new),)


def _named_exit(argv, edits=()):
    with tempfile.TemporaryDirectory() as tmp:
        res, _ = _cli_on(Path(tmp), argv, edits)
        assert_named_exit(res, Path(tmp) / "o")


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(bad_option())
@example(["run", "aircraft", "--T", "5e-324"])
@example(["run", "aircraft", "--horizon", "1e300"])
@example(["run", "aircraft", "--T", "1e200", "--horizon", "1e200"])
@example(["verify", "aircraft", "--T", "1e200", "--horizon", "1e200"])
@example(["sweep", "aircraft", "--T", "1e200", "--horizon", "1e200"])
@example(["benchmark", f"--seeds={2 ** 70}"])
@example(["benchmark", "--seed=0", f"--seeds={2 ** 63}"])
@example(["run", "aircraft", f"--horizon={2 ** 70}"])
@example(["verify", "aircraft", "--T", "5e-324", "--beta", "1e308"])
def test_every_bad_option_ends_in_a_named_exit(argv):
    _named_exit(argv)


@PROPERTY
@given(bad_key())
def test_every_bad_key_ends_in_a_named_exit(case):
    _named_exit(*case)


# --- an output directory that cannot be made ---------------------------------------
# --out names an existing regular file, or a path beneath one: every command
# exits 2 on one stderr line that names the path, and the file is left as it was.

OUT_COMMANDS = (("run", "aircraft"), ("verify", "aircraft"),
                ("sweep", "aircraft", "--ladder", "0.02,0.01,0.005"), ("benchmark",))


def _assert_refused_out_dir(res, out, taken):
    assert res.returncode == 2, res
    assert res.stdout == ""
    named = [ln for ln in res.stderr.splitlines() if ln.startswith(EXIT_LEADS[2])]
    assert len(named) == 1 and str(out) in named[0], res.stderr
    assert taken.read_text(encoding="utf-8") == "taken\n"


@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[a[0] for a in OUT_COMMANDS])
def test_unwritable_out_dir_exit_2(tmp_path, argv, beneath):
    taken = tmp_path / "taken"
    taken.write_text("taken\n", encoding="utf-8")
    out = taken / "x" if beneath else taken
    _assert_refused_out_dir(cli(*argv, "--out", str(out)), out, taken)


@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-file"])
def test_unwritable_scenario_outputs_directory_exit_2(tmp_path, beneath):
    taken = tmp_path / "taken"
    taken.write_text("taken\n", encoding="utf-8")
    out = taken / "x" if beneath else taken
    path, _ = _edited_copy(tmp_path, (("directory = out", f"directory = {out}"),))
    _assert_refused_out_dir(cli("run", str(path), "--horizon", "0.5"), out, taken)
