"""Command-line front end.

Subcommands: run, verify, sweep, benchmark.  Exit codes are a stable API:
0 ok, 1 a requested check failed, 2 configuration or parse error,
3 violated structural assumption, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import check_memory_spectrum, stability_over_T
from .controllers import KINDS, LAWS
from .discretization import difference_diagnostics
from .errors import AssumptionViolation, ConfigError, DivergenceError
from .experiments import (DEFAULT_LADDER, METRICS, SweepSpec,
                          aircraft_benchmark, builtin_scenario_path, run_sweep)
from .report import render_kv
from .scenario import ScenarioFile, parse_scenario_file
from .simulate import export_csv, run
from .svgplot import line_plot

# default slope acceptance bands per (kind, metric)
SLOPE_BANDS = {
    ("mm1", "s_bound"): (0.7, 1.3),
    ("m1", "s_bound"): (1.7, 2.3),
    ("mm2", "s_bound"): (1.7, 2.3),
    ("m2", "s_bound"): (2.7, 3.3),
    ("m1", "u_peak"): (-1.3, -0.7),
    ("m2", "u_peak"): (-1.3, -0.7),
    ("mm1", "u_peak"): (-0.3, 0.3),
    ("mm2", "u_peak"): (-0.3, 0.3),
}
_XBOUND_BAND = (0.7, 1.3)


def _resolve_scenario(path: str) -> ScenarioFile:
    if os.path.exists(path):
        return parse_scenario_file(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    try:
        builtin = builtin_scenario_path(stem)
    except ConfigError:
        raise ConfigError(f"scenario file not found: {path}") from None
    return parse_scenario_file(builtin)


def _apply_overrides(sf: ScenarioFile, args) -> ScenarioFile:
    sc = sf.scenario
    kw = {}
    if getattr(args, "controller", None):
        kw["kind"] = args.controller
    if getattr(args, "T", None) is not None:
        kw["T"] = args.T
        # keep the time-domain rate fixed unless alpha is overridden too
        kw["beta"] = sc.rate
        kw["alpha"] = None
    if getattr(args, "alpha", None) is not None:
        kw["alpha"] = args.alpha
        kw["beta"] = None
    if getattr(args, "beta", None) is not None:
        kw["beta"] = args.beta
        if getattr(args, "alpha", None) is None:
            kw["alpha"] = None
    if getattr(args, "horizon", None) is not None:
        kw["horizon"] = args.horizon
    if getattr(args, "seed", None) is not None:
        kw["noise"] = sc.noise.with_seed(args.seed)
    if getattr(args, "noise", None) is not None:
        base = kw.get("noise", sc.noise)
        from dataclasses import replace
        kw["noise"] = replace(base, kind="uniform" if args.noise > 0 else "none",
                              halfwidth=args.noise)
    if kw:
        sf.scenario = sc.with_(**kw)
    if getattr(args, "out", None):
        sf.out_dir = args.out
    return sf


def _outdir(sf: ScenarioFile) -> str:
    os.makedirs(sf.out_dir, exist_ok=True)
    return sf.out_dir


def _stem(sf: ScenarioFile) -> str:
    if sf.path:
        return os.path.splitext(os.path.basename(sf.path))[0]
    return "scenario"


def _emit_plots(traj, out_dir: str, stem: str) -> list:
    written = []
    groups = (("u", traj.u, "input"), ("x", traj.x, "state"),
              ("s", traj.s_true, "switching function"))
    for tag, data, label in groups:
        series = [(f"{tag}{i + 1}", traj.t, data[:, i]) for i in range(data.shape[1])]
        path = os.path.join(out_dir, f"{stem}_{tag}.svg")
        line_plot(series, f"{label} vs time", path, xlabel="t [s]", ylabel=label)
        written.append(path)
    return written


def cmd_run(args) -> int:
    sf = _apply_overrides(_resolve_scenario(args.scenario), args)
    traj = run(sf.scenario)
    out = _outdir(sf)
    stem = f"{_stem(sf)}_{sf.scenario.kind}"
    written = []
    if "csv" in sf.formats:
        csv_path = os.path.join(out, f"{stem}.csv")
        export_csv(traj, csv_path)
        written.append(csv_path)
    if "summary" in sf.formats:
        summary_path = os.path.join(out, f"{stem}_summary.txt")
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(render_kv(traj.summary))
        written.append(summary_path)
    if args.plot or "svg" in sf.formats:
        written += _emit_plots(traj, out, stem)
    sys.stdout.write(render_kv(traj.summary))
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    sf = _apply_overrides(_resolve_scenario(args.scenario), args)
    sc = sf.scenario
    T_list = sorted(set(DEFAULT_LADDER) | {sc.T})

    # raises AssumptionViolation (exit 3) on a period that is not invertible,
    # so every certify row below is an invertible one
    stab = stability_over_T(sc.plant, sc.H, T_list, beta=sc.rate)
    # the memory spectrum of the scenario's own period, from that period's row
    row = next(r for r in stab.rows if r.T == sc.T)
    spec1, spec2 = (check_memory_spectrum(row.alpha, row.T, row.coupling, variant)
                    for variant in ("aug1", "aug2"))

    report = {
        "certify": [{"T": r.T, "invertible": True, "cond": r.cond}
                    for r in stab.rows],
        "memory_spectrum": {
            "first_order_max_coeff_error": spec1.max_coeff_error,
            "second_order_max_coeff_error": spec2.max_coeff_error,
        },
        "stability": [{"T": r.T, "alpha": r.alpha, "rho_aug1": r.rho_aug1,
                       "rho_aug2": r.rho_aug2,
                       "cluster_dist_aug1": r.cluster_dist_aug1,
                       "cluster_dist_aug2": r.cluster_dist_aug2,
                       "rho_cl": r.rho_cl}
                      for r in stab.rows],
        "largest_certified_T": stab.largest_certified,
    }
    # finite-difference diagnostics need a few samples inside one smooth
    # segment; prefer the segment where the disturbance actually moves
    diag = None
    sig = sc.disturbance
    order = sorted(range(len(sig.segments)),
                   key=lambda i: (-sig.deriv_bound(i), i))
    for idx in order:
        seg = sig.segments[idx]
        end = min(seg.t_end, sc.horizon)
        if end - seg.t_start >= 6 * sc.T:
            k0 = int(np.ceil(seg.t_start / sc.T)) + 1
            k1 = min(k0 + 8, int(np.floor(end / sc.T)) - 2)
            if k1 - k0 >= 2:
                diag = difference_diagnostics(sc.plant, sc.T, sc.disturbance,
                                              range(k0, k1 + 1))
                report["differences"] = {
                    "k_range": diag.k_range,
                    "first_diff_max": diag.first_diff_max,
                    "second_diff_max": diag.second_diff_max,
                    "expected_orders": (diag.first_order, diag.second_order),
                    "spans_boundary": diag.spans_boundary,
                }
                break

    ok = spec1.ok() and spec2.ok() and stab.all_certified
    report["certified"] = ok
    text = render_kv(report)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{_stem(sf)}_verify.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    if not ok:
        raise AssumptionViolation("verification failed; see report above")
    return 0


def cmd_sweep(args) -> int:
    band = args.band
    if band is not None and not (len(band) == 2 and np.all(np.isfinite(band))
                                 and band[0] <= band[1]):
        raise ConfigError("--band wants two finite numbers lo,hi with "
                          f"lo <= hi, got {','.join(map(str, band))}")
    sf = _apply_overrides(_resolve_scenario(args.scenario), args)
    sc = sf.scenario
    ladder = DEFAULT_LADDER
    if args.ladder:
        try:
            ladder = tuple(float(v) for v in args.ladder.split(","))
        except ValueError:
            raise ConfigError(f"bad ladder {args.ladder!r}") from None
    spec = SweepSpec(base=sc, T_values=ladder, metric=args.metric)
    rep = run_sweep(spec)
    if band is None:
        band = SLOPE_BANDS.get((sc.kind, rep.metric),
                               _XBOUND_BAND if rep.metric == "x_bound" else None)
    report = {
        "kind": rep.kind, "metric": rep.metric, "window": rep.window,
        "points": [{"T": p.T, "value": p.value, "certified": p.certified,
                    "flagged": p.flagged, "rho_cl": p.rho_cl} for p in rep.points],
        "slope": rep.slope, "half_width": rep.half_width, "band": band,
    }
    in_band = (rep.slope is not None and band is not None
               and band[0] <= rep.slope <= band[1])
    report["in_band"] = in_band if band is not None else "n/a"
    text = render_kv(report)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{_stem(sf)}_sweep_{rep.metric}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    if band is not None and not in_band:
        return 1
    return 0


def cmd_benchmark(args) -> int:
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    rep = aircraft_benchmark(noise=args.noise, seeds=seeds)
    report = {
        "noise": rep.noise,
        "seeds": list(rep.seeds),
        "window": rep.window,
        "peaks": {k: {"u_peak_median": rep.peak_median[k],
                      "s_bound": rep.runs[k].s_bound,
                      "x_bound": rep.runs[k].x_bound,
                      "runtime_s": rep.runs[k].runtime}
                  for k in LAWS},
        "ranking_ok": rep.ranking_ok,
    }
    sys.stdout.write(render_kv(report))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for kind, brun in rep.runs.items():
            export_csv(brun.trajectory, os.path.join(args.out, f"benchmark_{kind}.csv"))
        with open(os.path.join(args.out, "benchmark_report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(render_kv(report))
        if args.plot:
            for kind, brun in rep.runs.items():
                _emit_plots(brun.trajectory, args.out, f"benchmark_{kind}")
        print(f"wrote {args.out}/benchmark_*.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsmc",
        description="sampled-data sliding mode control laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("scenario", help="scenario file path or builtin name")
        p.add_argument("--controller", choices=KINDS)
        p.add_argument("--T", type=float, help="sampling period override")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--horizon", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--noise", type=float,
                       help="uniform noise half-width (0 disables)")
        p.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="simulate one scenario")
    common(p_run)
    p_run.add_argument("--plot", action="store_true", help="emit SVG plots")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="certify assumptions, spectra, stability")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="order-of-accuracy ladder sweep")
    common(p_sw)
    p_sw.add_argument("--ladder", help="comma-separated period ladder")
    p_sw.add_argument("--metric", choices=METRICS, default="s_bound")
    p_sw.add_argument("--band", type=lambda s: tuple(float(v) for v in s.split(",")),
                      help="slope acceptance band lo,hi")
    p_sw.set_defaults(func=cmd_sweep)

    p_b = sub.add_parser("benchmark", help="run the shipped benchmark")
    p_b.add_argument("--noise", action="store_true")
    p_b.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p_b.add_argument("--seed", type=int, default=20260815, help="first seed")
    p_b.add_argument("--out", help="output directory")
    p_b.add_argument("--plot", action="store_true")
    p_b.set_defaults(func=cmd_benchmark)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssumptionViolation as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
