"""The stacked closed-loop recursion against a per-step oracle.

`loop_oracle` is the simulator's former step loop: one scenario at a time,
one ControllerState.step, one NoiseStream.sample and one
DisturbanceSignal.value call per sample.  `run_batch` evaluates the same
law taps for many runs at once, draws noise as one table and fills the
measured and logged columns after the loop; the two must agree to rounding.
"""

import math

import numpy as np
import pytest

from qsmc import (WARMUP, ConfigError, ControllerState, DisturbanceRangeError,
                  DisturbanceSampler, DivergenceError, NoiseSpec, build_surface,
                  constant_signal, discretize, make_gains, run, zero_signal)
from qsmc.plant import NoiseStream
from qsmc.simulate import run_batch

from conftest import H_UNSTABLE

KINDS = ("eq", "m1", "m2", "mm1", "mm2")
FORMS = ("recursive", "estimate")
SEEDS = (5, 20260815)


def loop_oracle(scenario):
    """(x, u, y, s, s_true, f) of one run, stepped sample by sample."""
    plant, T = scenario.plant, scenario.T
    disc = discretize(plant, T)
    design = build_surface(plant, disc, scenario.H)
    gains = make_gains(design, alpha=scenario.alpha, beta=scenario.beta)
    controller = ControllerState(kind=scenario.kind, gains=gains, form=scenario.form)
    noise = scenario.noise.stream()
    hc = design.H @ plant.C
    sig = scenario.disturbance
    steps = scenario.steps
    sampler = DisturbanceSampler(plant, T, sig)
    dk = sampler.table(0, steps + 1 if scenario.kind == "eq" else steps)
    rows = {key: [] for key in ("x", "u", "y", "s", "s_true", "f")}
    x = scenario.x0.copy()
    for k in range(steps + 1):
        y = plant.C @ x + noise.sample(plant.p)
        s_meas = design.H @ y
        g_k = None
        if scenario.kind == "eq" and controller.k >= 1:
            g_k = T * design.drift_from_xi @ (design.annihilator @ x) + hc @ dk[k]
        u = controller.step(s_meas, g_k=g_k)
        t = k * T if k * T < sig.t_end else np.nextafter(sig.t_end, 0)
        for key, value in (("x", x), ("u", u), ("y", y), ("s", s_meas),
                           ("s_true", hc @ x), ("f", sig.value(t))):
            rows[key].append(value)
        if k < steps:
            x = disc.state_map @ x + disc.input_map @ u + dk[k]
    return {key: np.array(v) for key, v in rows.items()}


def _noise(seed):
    return NoiseSpec(kind="uniform", halfwidth=0.005, seed=seed)


def test_batch_matches_loop_oracle(bench_scenario):
    # every kind and form under two noise seeds, as one mixed batch
    scenarios = [bench_scenario.with_(kind=kind, form=form, noise=_noise(seed))
                 for kind in KINDS for form in FORMS for seed in SEEDS]
    for sc, traj in zip(scenarios, run_batch(scenarios)):
        ref = loop_oracle(sc)
        tag = (sc.kind, sc.form, sc.noise.seed)
        assert np.max(np.abs(traj.x - ref["x"])) <= 1e-12, tag
        assert np.max(np.abs(traj.u - ref["u"])) <= 1e-12, tag
        assert np.max(np.abs(traj.s - ref["s"])) <= 1e-12, tag
        assert np.max(np.abs(traj.s_true - ref["s_true"])) <= 1e-12, tag
        # the noise is the same draw; y differs only by the rounding of x
        assert np.max(np.abs(traj.y - ref["y"])) <= 1e-12, tag
        np.testing.assert_array_max_ulp(traj.f, ref["f"], maxulp=2)
        assert not np.any(traj.u[:WARMUP[sc.kind]]), tag


def test_batch_row_matches_lone_run(bench_scenario):
    scenarios = [bench_scenario.with_(kind="m2", noise=_noise(3)),
                 bench_scenario.with_(kind="mm1", form="estimate", alpha=0.95,
                                      beta=None),
                 bench_scenario.with_(kind="eq", x0=np.zeros(4))]
    for sc, traj in zip(scenarios, run_batch(scenarios)):
        lone = run(sc)
        assert np.max(np.abs(traj.x - lone.x)) <= 1e-12, sc.kind
        assert np.max(np.abs(traj.u - lone.u)) <= 1e-12, sc.kind
        assert traj.summary["kind"] == sc.kind


def test_identical_batches_bit_equal(bench_scenario):
    scenarios = [bench_scenario.with_(kind=kind, noise=_noise(9))
                 for kind in ("m1", "m2", "mm1", "mm2")]
    a, b = run_batch(scenarios), run_batch(scenarios)
    for ta, tb in zip(a, b):
        for field in ("x", "y", "s", "s_true", "u", "f"):
            assert getattr(ta, field).tobytes() == getattr(tb, field).tobytes()


@pytest.mark.parametrize("spec", [
    NoiseSpec(),
    NoiseSpec(kind="uniform", halfwidth=0.0, seed=4),
    NoiseSpec(kind="uniform", halfwidth=0.005, seed=0),
    NoiseSpec(kind="uniform", halfwidth=0.005, seed=20260815),
    NoiseSpec(kind="uniform", halfwidth=2.5, seed=2 ** 64 - 1),
])
def test_noise_table_matches_successive_samples(spec):
    table = NoiseStream(spec).table(57, 3)
    stream = NoiseStream(spec)
    rows = np.array([stream.sample(3) for _ in range(57)])
    assert table.shape == (57, 3)
    assert table.tobytes() == rows.tobytes()


def test_batch_divergence_names_first_bad_run(bench_scenario):
    unstable = bench_scenario.with_(H=H_UNSTABLE, disturbance=zero_signal(2))
    # the first run starts a thousand times smaller and crosses the guard
    # later; the second is the one that diverges at step 1246
    batch = [unstable.with_(x0=1e-3 * unstable.x0), unstable]
    with pytest.raises(DivergenceError) as err:
        run_batch(batch)
    assert err.value.step == 1246
    assert err.value.run == 1
    assert err.value.norm > 1e12
    assert "in run 1" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("T", 0.02), ("H", H_UNSTABLE), ("horizon", 10.0),
    ("disturbance", zero_signal(2)), ("record_intersample", True),
])
def test_batch_rejects_unshared_fields(bench_scenario, field, value):
    other = bench_scenario.with_(**{field: value})
    with pytest.raises(ConfigError, match=field):
        run_batch([bench_scenario, other])


def test_batch_rejects_empty():
    with pytest.raises(ConfigError):
        run_batch([])


def test_batch_rk4_route_matches_exact(bench_scenario):
    base = bench_scenario.with_(horizon=0.5, substeps=20)
    scenarios = [base.with_(kind=kind) for kind in ("m1", "mm2")]
    exact = run_batch(scenarios)
    rk4 = run_batch([sc.with_(record_intersample=True) for sc in scenarios])
    for te, tr in zip(exact, rk4):
        assert np.max(np.abs(te.x - tr.x)) <= 1e-7
        assert len(tr.inter_t) == 20 * 50


# --- the f column --------------------------------------------------------------

def test_values_match_scalar_value(bench_scenario):
    sig = bench_scenario.disturbance
    t = np.arange(bench_scenario.steps + 1) * bench_scenario.T
    scalar = np.array([sig.value(ti) for ti in t])
    np.testing.assert_array_max_ulp(sig.values(t), scalar, maxulp=2)


def test_values_reject_times_outside(bench_signal):
    short = constant_signal([1.0, 2.0], t_end=2.0)
    with pytest.raises(DisturbanceRangeError):
        short.values(np.array([0.0, 2.0]))
    with pytest.raises(DisturbanceRangeError):
        bench_signal.values(np.array([-1e-9]))
    assert short.values(np.array([0.0, math.nextafter(2.0, 0)])).tolist() == \
        [[1.0, 2.0], [1.0, 2.0]]
