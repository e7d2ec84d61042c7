"""One workload process: set up, run timed operations, check every output.

Started by run.py with the environment it pins.  Prints one JSON object as
the last line of its standard output.  Modes:

  probe   set up, report the set-up time and exit;
  timed   set up, then run operations until --seconds have passed;
  traced  set up with the tracer installed, then alternate untraced and
          traced operations until --seconds have passed (at least one pair).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_op(wl, failures):
    """Time one operation and check its output; returns (seconds, samples).

    An operation that raises, or whose output fails a check, is appended to
    `failures` as (output was wrong, message)."""
    t0 = time.perf_counter()
    try:
        result = wl.op()
    except Exception:
        failures.append((False, traceback.format_exc(limit=3)))
        return time.perf_counter() - t0, 0
    seconds = time.perf_counter() - t0
    try:
        samples, problem = wl.check(result)
    except Exception:
        samples, problem = 0, traceback.format_exc(limit=3)
    if problem is not None:
        failures.append((True, problem))
    return seconds, samples


def _traced_op(wl, tracer, failures):
    """One operation with the tracer installed; returns (seconds, figures)."""
    tracer.reset()
    tracer.install()
    try:
        seconds, _ = _run_op(wl, failures)
    finally:
        tracer.uninstall()
    figures = tracer.layer_metrics()
    figures["trace.self_share"] = figures["trace.self_sum_s"] / seconds
    return seconds, figures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() at which the parent started this process")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import qsmc
    import qsmc.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(qsmc.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported qsmc from {qsmc.__file__}, not from {SRC}")

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.op = "setup"
        tracer.install()
    wl.setup()
    setup_s = time.monotonic() - args.spawned
    if tracer is not None:
        tracer.uninstall()
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return

    failures: list = []
    start = time.perf_counter()
    if args.mode == "timed":
        ops = []
        while True:
            ops.append(_run_op(wl, failures))
            if time.perf_counter() - start >= args.seconds:
                break
        attempted = len(ops)
        result = {"setup_s": setup_s, "op_s": [o[0] for o in ops],
                  "samples": [o[1] for o in ops]}
    else:
        plain, traced, layers = [], [], []
        while True:
            tracer.op = len(traced)
            # which of the pair goes first alternates, so neither side
            # always follows the other
            if len(traced) % 2:
                seconds, figures = _traced_op(wl, tracer, failures)
                plain.append(_run_op(wl, failures)[0])
            else:
                plain.append(_run_op(wl, failures)[0])
                seconds, figures = _traced_op(wl, tracer, failures)
            traced.append(seconds)
            layers.append(figures)
            if time.perf_counter() - start >= args.seconds:
                break
        attempted = len(plain) + len(traced)
        metrics = {key: statistics.median(f[key] for f in layers) for key in layers[0]}
        metrics["setup.import_s"] = import_s
        metrics["trace.traced_op_s"] = statistics.median(traced)
        metrics["trace.untraced_op_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = (metrics["trace.traced_op_s"]
                                       - metrics["trace.untraced_op_s"])
        tracer.write_spans(os.path.join(
            os.path.dirname(args.out), f"trace-{args.workload}-{args.seed}.json"))
        result = {"per_layer": metrics}

    result.update(attempted=attempted, failed=len(failures),
                  wrong=sum(1 for wrong, _ in failures if wrong),
                  problems=[message for _, message in failures[:3]],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  * 1024 / 1e6)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
