import sys
from dataclasses import replace

import numpy as np
import pytest

from qsmc import (AssumptionViolation, ConfigError, Scenario,
                  Segment, SweepSpec, aircraft_benchmark, build_surface,
                  builtin_scenario_path, discretize, load_aircraft_scenario,
                  measure_quasi_sliding, run, run_batch, run_sweep,
                  stability_over_T, zero_signal)
from qsmc.cli import SLOPE_BANDS
from qsmc.controllers import LAWS
from qsmc.experiments import DEFAULT_LADDER, shared_sampler
from qsmc.plant import ConstForm, DisturbanceSignal, ZeroForm
from qsmc.rng import Xoshiro256StarStar

from conftest import random_plant

# frozen from the first validated runs of the shipped benchmark; regression
# anchors, not external truth
PEAKS_NOISE_FREE = {"m1": 26.764879489436318, "m2": 28.103535668408153,
                    "mm1": 2.169726470433033, "mm2": 3.8983833816375526}


def test_builtin_scenario_resolution():
    path = builtin_scenario_path("aircraft")
    assert path.endswith("aircraft.scn")
    with pytest.raises(ConfigError):
        builtin_scenario_path("submarine")


def test_spec_validation(bench_scenario):
    with pytest.raises(ConfigError):
        SweepSpec(base=bench_scenario, T_values=(0.02, 0.01))
    with pytest.raises(ConfigError):
        SweepSpec(base=bench_scenario, T_values=(0.02, 0.01, 0.004))
    with pytest.raises(ConfigError):
        SweepSpec(base=bench_scenario, metric="settling_time")
    spec = SweepSpec(base=bench_scenario, T_values=(0.0025, 0.01, 0.005, 0.02))
    assert spec.T_values == (0.02, 0.01, 0.005, 0.0025)


def test_separate_parses_give_bit_equal_d_tables():
    # two parses of one file share no objects, yet their d sequences agree
    # to the last bit
    a = load_aircraft_scenario().scenario
    b = load_aircraft_scenario().scenario
    assert a.disturbance is not b.disturbance
    da = shared_sampler(a.plant, a.T, a.disturbance).table(0, a.steps)
    db = shared_sampler(b.plant, b.T, b.disturbance).table(0, b.steps)
    assert da.tobytes() == db.tobytes()


def test_sweep_surface_bound_first_order(bench_scenario):
    spec = SweepSpec(base=bench_scenario, metric="s_bound")
    rep = run_sweep(spec)
    assert rep.kind == "mm1" and rep.metric == "s_bound"
    assert len(rep.points) == 4
    assert all(p.certified for p in rep.points)
    assert 0.7 <= rep.slope <= 1.3
    assert rep.half_width < 0.2
    # the bound itself shrinks monotonically with T
    vals = [p.value for p in rep.points]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sweep_input_peak_bounded(bench_scenario):
    spec = SweepSpec(base=bench_scenario, metric="u_peak",
                     T_values=(0.02, 0.01, 0.005))
    rep = run_sweep(spec)
    assert -0.3 <= rep.slope <= 0.3
    vals = [p.value for p in rep.points]
    assert max(vals) / min(vals) < 2.0


def _headline_sweeps(seed):
    """{kind: u_peak sweep over DEFAULT_LADDER} of a random plant, beta = 3,
    a 3 s horizon and a standard-normal constant disturbance from t = 1 s.
    Plant and H are conftest.random_plant's, as in test_batch; a draw is
    redrawn unless cond(H C B) <= 1e4, every rung's surface is admissible
    with a stable xi_step, |H C x0| >= |H C| |x0| / 2 (the O(1/T) peak
    comes from s[0] != 0) and every rung of every law is certified and
    unflagged."""
    rng = np.random.default_rng(seed)
    gen = Xoshiro256StarStar(seed)
    while True:
        plant, H = random_plant(rng, gen)
        n, m = plant.n, plant.m
        HC = H @ plant.C
        if np.linalg.cond(HC @ plant.B) > 1e4:
            continue
        try:
            steps = [build_surface(plant, discretize(plant, T), H).xi_step
                     for T in DEFAULT_LADDER]
        except AssumptionViolation:
            continue
        if any(np.max(np.abs(np.linalg.eigvals(S))) >= 1.0 for S in steps):
            continue
        x0 = rng.standard_normal(n)
        if np.linalg.norm(HC @ x0) < 0.5 * np.linalg.norm(HC, 2) * np.linalg.norm(x0):
            continue
        step = tuple(ConstForm(float(v)) for v in rng.standard_normal(m))
        sig = DisturbanceSignal([Segment(0.0, 1.0, (ZeroForm(),) * m),
                                 Segment(1.0, np.inf, step)])
        base = Scenario(plant=plant, H=H, kind="m1", T=DEFAULT_LADDER[0],
                        horizon=3.0, disturbance=sig, beta=3.0, x0=x0)
        sweeps = {kind: run_sweep(SweepSpec(base.with_(kind=kind), metric="u_peak"))
                  for kind in LAWS}
        if all(pt.certified and pt.flagged is None
               for rep in sweeps.values() for pt in rep.points):
            return sweeps


def test_effort_order_on_random_plants():
    # the paper's headline claim: the deadbeat laws' input peak grows like
    # 1/T, the contraction laws' stays O(1), in the CLI's own u_peak bands
    outside = []
    for seed in range(25):
        for kind, rep in _headline_sweeps(seed).items():
            lo, hi = SLOPE_BANDS[(kind, "u_peak")]
            if not lo <= rep.slope <= hi:
                outside.append((seed, kind, rep.slope))
    assert outside == []


def test_sweep_flags_uncertified_points(bench_scenario):
    from conftest import H_UNSTABLE
    spec = SweepSpec(base=bench_scenario.with_(H=H_UNSTABLE),
                     T_values=(0.02, 0.01, 0.005))
    rep = run_sweep(spec)
    assert all(not p.certified for p in rep.points)
    assert all(p.value is None for p in rep.points)
    assert rep.slope is None
    assert any("spectral radius" in (p.flagged or "") for p in rep.points)
    # each rung's radius is the one stability_over_T gives its loop
    stab = stability_over_T(spec.base.plant, H_UNSTABLE, spec.T_values,
                            beta=spec.base.beta)
    radii = {row.T: row.rho_cl["mm1"] for row in stab.rows}
    assert all(p.rho_cl == radii[p.T] for p in rep.points)


def _count_calls(monkeypatch, module, name):
    """Replace module.name wherever a qsmc module holds it; returns the
    list that gains one entry per call."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "qsmc" or modname.startswith("qsmc."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, spy)
    return calls


def test_sweep_builds_each_rung_once(bench_scenario, monkeypatch):
    import qsmc.discretization
    import qsmc.surface
    discs = _count_calls(monkeypatch, qsmc.discretization, "discretize")
    surfaces = _count_calls(monkeypatch, qsmc.surface, "build_surface")
    rep = run_sweep(SweepSpec(base=bench_scenario, T_values=(0.02, 0.01, 0.005)))
    assert all(p.certified for p in rep.points)
    assert len(discs) == 3
    assert len(surfaces) == 3


def test_sweep_window_outside_run_is_a_config_error(bench_scenario):
    # horizon 1 s is not a whole number of 0.03 s samples, so the default
    # window [0.8, 1.0] of a disturbance-free run ends past the last sample
    spec = SweepSpec(base=bench_scenario.with_(horizon=1.0,
                                               disturbance=zero_signal(2)),
                     T_values=(0.03, 0.015, 0.0075))
    with pytest.raises(ConfigError, match="no s_bound at T = 0.03"):
        run_sweep(spec)
    rep = run_sweep(replace(spec, metric="u_peak"))
    assert all(p.certified for p in rep.points)


def test_benchmark_regression_values():
    rep = aircraft_benchmark(noise=False)
    for kind, expect in PEAKS_NOISE_FREE.items():
        assert rep.peak_median[kind] == pytest.approx(expect, rel=1e-9), kind
    assert rep.ranking_ok
    assert rep.runs["m2"].s_bound < 1e-7
    assert rep.runs["mm1"].s_bound < 1e-3


def test_benchmark_reproducible():
    a = aircraft_benchmark(noise=False)
    b = aircraft_benchmark(noise=False)
    for kind in ("m1", "m2", "mm1", "mm2"):
        assert np.array_equal(a.runs[kind].trajectory.x, b.runs[kind].trajectory.x)
        assert np.array_equal(a.runs[kind].trajectory.u, b.runs[kind].trajectory.u)


def test_benchmark_noise_seeds_differ():
    rep = aircraft_benchmark(noise=True, seeds=(1, 2, 3))
    assert rep.noise is True
    assert rep.seeds == (1, 2, 3)
    # medians over three seeds still near the noise-free peaks
    for kind, expect in PEAKS_NOISE_FREE.items():
        assert rep.peak_median[kind] == pytest.approx(expect, rel=0.35), kind


def test_noisy_benchmark_readout_matches_per_run_route():
    # the stacked read-out of a multi-seed benchmark against the per-run
    # route on the same trajectories, bit for bit: each kind's median peak
    # is the median over the seeds' batches of Trajectory.u_peak, and the
    # first seed's bounds are measure_quasi_sliding on its trajectory
    seeds = (7, 8, 9)
    rep = aircraft_benchmark(noise=True, seeds=seeds)
    base = load_aircraft_scenario().scenario
    assert base.noise.halfwidth == 0.005   # the benchmark keeps the file's
    specs = [replace(base.noise, kind="uniform", seed=seed) for seed in seeds]
    batches = [run_batch([base.with_(kind=kind, noise=spec) for kind in LAWS])
               for spec in specs]
    for i, kind in enumerate(LAWS):
        peaks = [trajs[i].u_peak for trajs in batches]
        assert rep.peak_median[kind] == float(np.median(peaks)), kind
        first = rep.runs[kind]
        assert first.u_peak == peaks[0]
        assert (first.s_bound, first.x_bound) == measure_quasi_sliding(
            batches[0][i], rep.window), kind
        # every batch steps the same samples one at a time, so a lone run
        # is its batch's row bit for bit
        lone = run(base.with_(kind=kind, noise=specs[0]))
        assert lone.u_peak == first.u_peak, kind
        assert measure_quasi_sliding(lone, rep.window) == (
            first.s_bound, first.x_bound), kind


def test_lone_run_equals_benchmark_trajectory():
    # whatever laws share a batch, a run's trajectory is the same bits:
    # m1 and mm1 (warm-up 1) alone and in the four-kind batch (warm-up 2)
    seeds = (7, 8, 9)
    rep = aircraft_benchmark(noise=True, seeds=seeds)
    base = load_aircraft_scenario().scenario
    spec = replace(base.noise, kind="uniform", seed=seeds[0])
    for kind in LAWS:
        lone = run(base.with_(kind=kind, noise=spec))
        kept = rep.runs[kind].trajectory
        for name in ("k", "t", "x", "y", "s", "s_true", "u", "f"):
            assert getattr(lone, name).tobytes() == getattr(kept, name).tobytes(), (
                kind, name)


def test_benchmark_runtime_budget():
    rep = aircraft_benchmark(noise=False)
    for kind, brun in rep.runs.items():
        assert brun.runtime < 5.0, (kind, brun.runtime)


def test_benchmark_runtime_averages_every_seed(monkeypatch):
    # batches of 1 s, 3 s and 5 s: 9 s over 3 seeds x 4 kinds
    ticks = iter([0.0, 1.0, 10.0, 13.0, 20.0, 25.0])
    fake = type("FakeTime", (), {"perf_counter": staticmethod(lambda: next(ticks))})
    monkeypatch.setattr("qsmc.experiments.time", fake)
    rep = aircraft_benchmark(noise=True, seeds=(1, 2, 3))
    assert next(ticks, None) is None
    assert {k: r.runtime for k, r in rep.runs.items()} == {
        k: 0.75 for k in ("m1", "m2", "mm1", "mm2")}


def test_noise_free_benchmark_runs_one_batch(monkeypatch):
    # a noise-free spec ignores its seed: one batch, timed by two calls
    one = aircraft_benchmark(noise=False, seeds=(1,))
    calls = []

    def perf_counter():
        calls.append(None)
        return float(len(calls))

    fake = type("FakeTime", (), {"perf_counter": staticmethod(perf_counter)})
    monkeypatch.setattr("qsmc.experiments.time", fake)
    three = aircraft_benchmark(noise=False, seeds=(1, 2, 3))
    assert len(calls) == 2
    assert three.seeds == (1, 2, 3)
    assert three.peak_median == one.peak_median
    for kind in ("m1", "m2", "mm1", "mm2"):
        a, b = one.runs[kind], three.runs[kind]
        assert (a.u_peak, a.s_bound, a.x_bound) == (b.u_peak, b.s_bound, b.x_bound)
        for name in ("x", "y", "s", "s_true", "u", "f"):
            assert getattr(a.trajectory, name).tobytes() == \
                getattr(b.trajectory, name).tobytes(), (kind, name)
        # one batch of four kinds, timed at 1 s
        assert b.runtime == 0.25


def test_benchmark_needs_a_seed():
    with pytest.raises(ConfigError):
        aircraft_benchmark(seeds=())


def test_scenario_loader_round_trip():
    sf = load_aircraft_scenario()
    assert sf.scenario.kind == "mm1"
    assert sf.out_dir == "out"


def test_unread_disturbance_column_is_never_formed(monkeypatch):
    # no sweep rung and no discarded benchmark seed reads f, so none forms it
    calls = []
    values = DisturbanceSignal.values

    def counted(self, t):
        calls.append(len(t))
        return values(self, t)

    monkeypatch.setattr(DisturbanceSignal, "values", counted)
    sf = load_aircraft_scenario()
    run_sweep(SweepSpec(base=sf.scenario, T_values=(0.02, 0.01, 0.005)))
    assert calls == []
    rep = aircraft_benchmark(noise=True, seeds=(1, 2, 3), scenario_file=sf)
    assert calls == []
    # the kept seed's four runs read one column, formed on the first read
    columns = [brun.trajectory.f for brun in rep.runs.values()]
    assert calls == [sf.scenario.steps + 1]
    assert all(f is columns[0] for f in columns)
