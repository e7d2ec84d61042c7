"""Batch harness: sampling-period sweeps and the shipped benchmark.

Accuracy-order claims are checked by running one controller over a geometric
ladder of periods with the contraction rate beta held fixed in time (alpha
recomputed per T), measuring a steady-window metric, and fitting the slope
of log(metric) against log(T).  Expected slopes: surface bound 1 (mm1),
2 (mm2, m1), 3 (m2); input peak 0 for the contraction laws and -1 for the
deadbeat baselines.

Sweep points run one after another, and each is one run: its gate is that
run's own closed-loop radius rho_cl and its metric is a key of the same
run's summary (s_bound and x_bound over the default steady window, or
u_peak).  The sampled disturbance d[k] is exact and cheap (one block
exponential per segment and period, then one vectorized table per run), so
each period builds its own sampler and nothing is cached.
"""

from __future__ import annotations

import importlib.resources
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import DisturbanceSampler
from .errors import ConfigError, DivergenceError
from .scenario import ScenarioFile, parse_scenario_file
from .simulate import (Scenario, Trajectory, default_steady_window, run,
                       run_batches)

DEFAULT_LADDER = (0.02, 0.01, 0.005, 0.0025)
METRICS = ("s_bound", "x_bound", "u_peak")


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    T_values: tuple = DEFAULT_LADDER
    metric: str = "s_bound"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}")
        Ts = tuple(sorted(self.T_values, reverse=True))
        if len(Ts) < 3:
            raise ConfigError("ladder needs at least 3 periods")
        ratios = [Ts[i] / Ts[i + 1] for i in range(len(Ts) - 1)]
        if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
            raise ConfigError("ladder must be geometric (equal ratios)")
        object.__setattr__(self, "T_values", Ts)


@dataclass(frozen=True)
class SweepPoint:
    T: float
    value: float | None
    certified: bool
    flagged: str | None = None
    rho_cl: float | None = None   # radius of the loop that ran; None on ConfigError


@dataclass(frozen=True)
class ScalingReport:
    kind: str
    metric: str
    window: tuple
    points: tuple
    slope: float | None
    half_width: float | None   # 1-sigma from the fit residuals

    def values(self):
        return {p.T: p.value for p in self.points}


def shared_sampler(plant, T, sig) -> DisturbanceSampler:
    """The d[k] sampler of one period; building it computes the per-segment
    d[k] gains once.  run_batches builds its own, so nothing in the package
    calls this; perfbench's tracer counts its calls by this name."""
    return DisturbanceSampler(plant, T, sig)


def _sweep_point(scenario: Scenario, beta: float, T: float,
                 metric: str) -> SweepPoint:
    """One rung: one run at period T.  Its metric counts only if the loop
    that ran is stable (rho_cl < 1), read from the run's summary or, when
    the run diverged, from the DivergenceError."""
    try:
        traj = run(scenario.with_(T=T, alpha=None, beta=beta))
    except DivergenceError as exc:
        traj, rho, flag = None, exc.rho_cl, f"diverged: {exc}"
    except ConfigError as exc:
        return SweepPoint(T, None, False, str(exc))
    else:
        rho = traj.summary["rho_cl"]
    if rho >= 1.0:
        return SweepPoint(T, None, False, f"spectral radius {rho:.4f} >= 1", rho)
    if traj is None:
        return SweepPoint(T, None, False, flag, rho)
    if metric not in traj.summary:
        raise ConfigError(f"no {metric} at T = {T}: the steady window "
                          f"{traj.summary['window']} is empty or outside the run")
    return SweepPoint(T, float(traj.summary[metric]), True, rho_cl=rho)


def run_sweep(spec: SweepSpec) -> ScalingReport:
    base = spec.base
    beta = base.beta
    if beta is None:
        if base.alpha is None:
            raise ConfigError("no beta available for the sweep")
        beta = (1.0 - base.alpha) / base.T
    window = default_steady_window(base.disturbance, base.horizon)
    # T_values is sorted longest period first
    points = [_sweep_point(base, beta, T, spec.metric) for T in spec.T_values]
    good = [(p.T, p.value) for p in points if p.certified and p.value and p.value > 0]
    slope = half = None
    if len(good) >= 2:
        lt = np.log([g[0] for g in good])
        lv = np.log([g[1] for g in good])
        if len(good) >= 3:
            (slope, _), cov = np.polyfit(lt, lv, 1, cov=True)
            half = float(np.sqrt(max(cov[0, 0], 0.0)))
        else:
            slope = float((lv[1] - lv[0]) / (lt[1] - lt[0]))
        slope = float(slope)
    return ScalingReport(kind=base.kind, metric=spec.metric, window=window,
                         points=tuple(points), slope=slope, half_width=half)


# ---------------------------------------------------------------------------
# shipped benchmark

def builtin_scenario_path(name: str = "aircraft") -> str:
    res = importlib.resources.files("qsmc") / "scenarios" / f"{name}.scn"
    if not res.is_file():
        raise ConfigError(f"no builtin scenario named {name!r}")
    return str(res)


def load_aircraft_scenario() -> ScenarioFile:
    return parse_scenario_file(builtin_scenario_path("aircraft"))


BENCH_KINDS = ("m1", "m2", "mm1", "mm2")


@dataclass(frozen=True)
class BenchmarkRun:
    kind: str
    u_peak: float
    s_bound: float
    x_bound: float
    runtime: float
    trajectory: Trajectory = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class BenchmarkReport:
    noise: bool
    seeds: tuple
    runs: dict                 # kind -> BenchmarkRun (first seed)
    peak_median: dict          # kind -> median peak over seeds
    window: tuple

    @property
    def ranking_ok(self) -> bool:
        """Second-order estimators should track the surface tighter than
        their first-order counterparts in the steady window."""
        r = self.runs
        return (r["m2"].s_bound < r["m1"].s_bound
                and r["mm2"].s_bound < r["mm1"].s_bound)


def aircraft_benchmark(noise: bool = False, seeds=(20260815,),
                       scenario_file: ScenarioFile | None = None) -> BenchmarkReport:
    """All four controllers on the shipped scenario under one shared noise
    realization per seed; peaks reported per kind, medianed over seeds.
    Each seed is one batch of the four kinds, and every seed's batch comes
    from one run_batches, which builds what the seeds share once and draws
    all their noise tables together.  A run's runtime is the total time of
    the batches' next() calls, the first one included, divided by
    seeds x kinds.  Only the first seed's trajectories are kept.  A
    noise-free spec ignores its seed, so without noise only the first
    seed's batch runs, a run's runtime is that batch's time divided by the
    number of kinds, and the report still lists every seed."""
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("benchmark needs at least one seed")
    sf = scenario_file or load_aircraft_scenario()
    base = sf.scenario
    window = default_steady_window(base.disturbance, base.horizon)
    runs = {}
    peaks: dict = {k: [] for k in BENCH_KINDS}
    batches = []
    drawn = seeds if noise else seeds[:1]
    for seed in drawn:
        spec = base.noise
        if noise:
            spec = replace(spec, kind="uniform", seed=int(seed))
            if spec.halfwidth == 0.0:
                spec = replace(spec, halfwidth=0.005)
        else:
            spec = replace(spec, kind="none", seed=int(seed))
        # one stacked batch per seed: the four kinds share its noise draw
        batches.append([base.with_(kind=kind, noise=spec) for kind in BENCH_KINDS])
    gen = run_batches(batches)
    firsts, batch_s = _next_batch(gen, peaks)
    for _ in drawn[1:]:
        # the helper's locals, this batch included, die when it returns
        batch_s += _next_batch(gen, peaks)[1]
    # the first batch runs cold; averaging over every batch steadies the figure
    runtime = batch_s / (len(drawn) * len(BENCH_KINDS))
    for kind, traj in zip(BENCH_KINDS, firsts):
        if "s_bound" not in traj.summary:
            raise ConfigError(f"the steady window {window} is empty or "
                              "outside the benchmark run")
        runs[kind] = BenchmarkRun(kind=kind, u_peak=traj.u_peak,
                                  s_bound=traj.summary["s_bound"],
                                  x_bound=traj.summary["x_bound"],
                                  runtime=runtime, trajectory=traj)
    medians = {k: float(np.median(v)) for k, v in peaks.items()}
    return BenchmarkReport(noise=noise, seeds=seeds, runs=runs,
                           peak_median=medians, window=window)


def _next_batch(gen, peaks: dict) -> tuple:
    """(trajectories, seconds) of the next batch of an aircraft_benchmark
    run_batches; appends each kind's peak input to peaks."""
    t0 = time.perf_counter()
    trajs = next(gen)
    elapsed = time.perf_counter() - t0
    for kind, traj in zip(BENCH_KINDS, trajs):
        peaks[kind].append(traj.u_peak)
    return trajs, elapsed
