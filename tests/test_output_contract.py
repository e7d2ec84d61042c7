"""The output contract: a command gives the same output every time it runs,
and its numbers stay where the committed reference put them.

Each of COMMANDS runs twice in process.  The two runs must give the same
exit code, stdout, stderr and --out files, byte for byte, leaving out the
lines that carry a timing (`runtime_s`) or a path (`wrote`).  Every report,
stdout and --out text file alike, is then read back with report.parse_kv
and held key by key to tests/data/output_contract.json, and every CSV column
to its stored fingerprint: row count, min, max and sum.

A number may move by RTOL times its scale plus ATOL: the scale of a key is
its own value, of a CSV column's min and max the column's largest
magnitude, and of its sum that times the row count.  The two were chosen
from the deviations between revisions that change only the last bits of a
trajectory (the blocked scan's rewrite): at most 5e-16 of a column's scale
in the CSVs, 5.4e-12 relative in a sweep's half_width and 2.4e-13 in its
slope, and 8.4e-19 absolute in an s_bound of 3.5e-9, whose noise-free
rounding level makes it move by 2.4e-10 relative.  RTOL = 1e-11 and
ATOL = 1e-12 leave ten times the largest; so a figure at rounding level,
such as the eq law's s_bound of 7e-17, is held only to ATOL.  Exit codes,
file names, row counts and every value that is not a number must match
exactly.  A change that moves a value past the tolerance regenerates the
reference with

    PYTHONPATH=src python tests/test_output_contract.py [path]

and names the keys that moved, by how much and why.  The two verify
commands are also held to the reference under another OpenBLAS kernel, in
a subprocess, where the installed OpenBLAS lets OPENBLAS_CORETYPE pick one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import qsmc.cli
from qsmc.report import parse_kv

HERE = Path(__file__).parent
REFERENCE = HERE / "data" / "output_contract.json"
RTOL = 1e-11
ATOL = 1e-12

# (id, argv without --out); every command writes its files to --out
COMMANDS = (
    ("run-noise-plot", "run aircraft --plot --noise 0.005 --seed 7"),
    ("run-eq", "run aircraft --controller eq"),
    ("run-m2-alpha", "run aircraft --controller m2 --alpha 0.95"),
    ("run-T", "run aircraft --T 0.005"),
    ("verify", "verify aircraft"),
    ("verify-T", "verify aircraft --T 0.005"),
    ("sweep-mm1", "sweep aircraft --controller mm1 --ladder 0.02,0.01,0.005"),
    # exit 1: criterion 5's x_bound band fails (ROADMAP, standing failures)
    ("sweep-x_bound", "sweep aircraft --metric x_bound"),
    ("benchmark", "benchmark"),
    ("benchmark-noise", "benchmark --noise --seeds 3"),
)


def _steady(text: str) -> str:
    """text without the lines that carry a timing or a path."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("wrote ") and "runtime_s =" not in line)


def _run(argv: list, out: Path) -> dict:
    """exit code, stdout, stderr and --out files (name -> bytes, text files
    without timing lines) of one in-process command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = qsmc.cli.main([*argv, "--out", str(out)])
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        if path.suffix == ".txt":
            data = _steady(data.decode("utf-8")).encode("utf-8")
        files[path.name] = data
    return {"exit": code, "stdout": _steady(stdout.getvalue()),
            "stderr": stderr.getvalue(), "files": files}


def _fingerprint(csv_bytes: bytes) -> dict:
    """column -> [rows, min, max, sum] of one CSV."""
    header, *body = csv_bytes.decode("utf-8").splitlines()
    table = np.array([row.split(",") for row in body], dtype=float)
    return {name: [len(body), float(col.min()), float(col.max()), float(col.sum())]
            for name, col in zip(header.split(","), table.T)}


def _record(outcome: dict) -> dict:
    """What the reference holds of one command's outcome."""
    reports = {"stdout": parse_kv(outcome["stdout"])}
    csvs = {}
    for name, data in outcome["files"].items():
        if name.endswith(".txt"):
            reports[name] = parse_kv(data.decode("utf-8"))
        elif name.endswith(".csv"):
            csvs[name] = _fingerprint(data)
    return {"exit": outcome["exit"], "files": sorted(outcome["files"]),
            "reports": reports, "csv": csvs}


def _numbers(value: str):
    """The floats of a report value, or None when it is not all numbers."""
    try:
        numbers = [float(v) for v in value.split()]
    except ValueError:
        return None
    return numbers or None


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= RTOL * scale + ATOL


def _moved(got: dict, want: dict) -> list:
    """Every difference between a command's record and its reference, as
    (where, got, wanted)."""
    moved = [(key, got[key], want[key]) for key in ("exit", "files") if got[key] != want[key]]
    for report in sorted(set(got["reports"]) | set(want["reports"])):
        g, w = got["reports"].get(report, {}), want["reports"].get(report, {})
        for key in sorted(set(g) | set(w)):
            a, b = g.get(key), w.get(key)
            if a == b:
                continue
            na, nb = _numbers(a or ""), _numbers(b or "")
            if (na is None or nb is None or len(na) != len(nb)
                    or not all(_close(x, y, abs(y)) for x, y in zip(na, nb))):
                moved.append((f"{report}: {key}", a, b))
    for csv in sorted(set(got["csv"]) | set(want["csv"])):
        g, w = got["csv"].get(csv, {}), want["csv"].get(csv, {})
        if sorted(g) != sorted(w):
            moved.append((f"{csv} columns", sorted(g), sorted(w)))
            continue
        for col, (rows, lo, hi, total) in w.items():
            g_rows, g_lo, g_hi, g_total = g[col]
            peak = max(abs(lo), abs(hi))
            if (g_rows != rows or not _close(g_lo, lo, peak) or not _close(g_hi, hi, peak)
                    or not _close(g_total, total, rows * peak)):
                moved.append((f"{csv}: {col}", g[col], w[col]))
    return moved


def _outcomes(root: Path, tag: str) -> dict:
    return {ident: _run(argv.split(), root / f"{tag}-{ident}") for ident, argv in COMMANDS}


def test_commands_repeat_their_output_and_keep_the_reference():
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert sorted(reference) == sorted(ident for ident, _ in COMMANDS)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = _outcomes(Path(tmp), "a"), _outcomes(Path(tmp), "b")
    for ident, _ in COMMANDS:
        assert first[ident] == second[ident], f"{ident}: output differs between runs"
    moved = {ident: _moved(_record(first[ident]), reference[ident])
             for ident, _ in COMMANDS}
    assert not any(moved.values()), {i: m for i, m in moved.items() if m}


# verify's spectral figures come from LAPACK eigensolves, whose last bits
# follow the BLAS kernel's order of summation; Sandybridge is a kernel other
# than the one OpenBLAS picks on an AVX2 or AVX-512 host
_KERNEL_COMMANDS = ("verify", "verify-T")
_KERNEL = "Sandybridge"


def _dynamic_openblas() -> bool:
    """Whether numpy runs an OpenBLAS built with DYNAMIC_ARCH, the build
    whose kernel OPENBLAS_CORETYPE picks when it loads."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
def test_verify_keeps_the_reference_on_another_blas_kernel(tmp_path):
    # both commands in one subprocess, since the kernel is chosen at load
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    code = ("import json, sys; from pathlib import Path; import test_output_contract as c; "
            "print(json.dumps({i: c._record(c._run(a.split(), Path(sys.argv[1]) / i)) "
            "for i, a in c.COMMANDS if i in sys.argv[2:]}))")
    path = [str(HERE.parent / "src"), str(HERE), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE=_KERNEL,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path), *_KERNEL_COMMANDS],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    moved = {ident: _moved(got[ident], reference[ident]) for ident in _KERNEL_COMMANDS}
    assert not any(moved.values()), moved


def write_reference(path: Path = REFERENCE) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = _outcomes(Path(tmp), "a")
    records = {ident: _record(outcomes[ident]) for ident, _ in COMMANDS}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    write_reference(*map(Path, sys.argv[1:2]))
