"""Benchmark of the qsmc lab: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload {cold_run,seed_batch,period_ladder}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qsmc is imported from its src/
directory.  With --trace 0 the last line of standard output holds the
end-to-end metrics (setup_s, op_s, samples_per_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of a separate traced run.  See
perfbench/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cold_run", "seed_batch", "period_ladder")
PROBES = 2          # set-up-only processes; with the timed one, 3 set-ups
DEADLINE_S = 170    # every child is stopped by then


def _env():
    env = dict(os.environ)
    # one thread everywhere: the sweep pool, BLAS and OpenMP (see README)
    env.update(QSMC_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _child(args, mode, out_dir, started):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out_dir,
           "--spawned", repr(time.monotonic())]
    timeout = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} process of {args.workload} exited with "
                         f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unit(name):
    if name.endswith(("_calls", "_computed")):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_us_per_sample"):
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "s"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "qsmc", "__init__.py")):
        ap.exit(2, f"run.py: no qsmc sources under {SRC}; run it from a "
                   f"checkout of the repository\n")

    started = time.monotonic()
    out_dir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            res = _child(args, "traced", out_dir, started)
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in res["per_layer"].items()}
        else:
            setups = [_child(args, "probe", out_dir, started)["setup_s"]
                      for _ in range(PROBES)]
            res = _child(args, "timed", out_dir, started)
            setups.append(res["setup_s"])
            rates = [n / s for n, s in zip(res["samples"], res["op_s"]) if n]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_s": {"value": statistics.median(res["op_s"]), "unit": "s"},
                "samples_per_s": {"value": statistics.median(rates) if rates else 0.0,
                                  "unit": "1/s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in res["problems"]:
        print(f"{args.workload}: failed operation: {problem}", file=sys.stderr)
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
