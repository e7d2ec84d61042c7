from types import SimpleNamespace

import numpy as np
import pytest

from qsmc import ConfigError, ControllerState, contraction_alpha, law_taps, run

from conftest import (ALPHA_BENCH, BETA_BENCH, T_BENCH, equivalent_control,
                      estimate_taps, law_form, reconstruct_g_prev)


def random_design(m=2, T=0.01, seed=0):
    """A stand-in for a SurfaceDesign with random blocks: the parts of a
    design the laws read."""
    rng = np.random.default_rng(seed)
    s_gain = np.eye(m) + 0.1 * rng.standard_normal((m, m))
    return SimpleNamespace(T=T, s_gain=s_gain, s_gain_inv=np.linalg.inv(s_gain),
                           drift_from_xi=rng.standard_normal((m, m)),
                           drift_from_s=rng.standard_normal((m, m)))


def surface_step(design, s, u, g):
    """One exact step of the surface recursion the laws were solved from."""
    m = len(s)
    return (np.eye(m) + design.T * design.drift_from_s) @ s \
        + design.T * (design.s_gain @ u) + g


# --- contraction target ----------------------------------------------------

def test_contraction_alpha_derives_alpha():
    alpha = contraction_alpha(T_BENCH, beta=BETA_BENCH)
    assert alpha == pytest.approx(1.0 - BETA_BENCH * T_BENCH, abs=1e-15)
    assert contraction_alpha(T_BENCH, alpha=ALPHA_BENCH) == ALPHA_BENCH


def test_contraction_alpha_consistency_check():
    # both given and consistent: fine
    contraction_alpha(T_BENCH, alpha=0.97, beta=3.0)
    with pytest.raises(ConfigError, match="alpha and beta disagree"):
        contraction_alpha(T_BENCH, alpha=0.97, beta=4.0)
    with pytest.raises(ConfigError):
        contraction_alpha(T_BENCH)


def test_contraction_alpha_rejects_out_of_range():
    with pytest.raises(ConfigError):
        contraction_alpha(T_BENCH, alpha=1.0)
    with pytest.raises(ConfigError):
        contraction_alpha(T_BENCH, alpha=-0.2)


def test_gain_inverts_coupling(bench_design):
    assert np.allclose(bench_design.s_gain_inv @ bench_design.s_gain, np.eye(2),
                       atol=1e-12)


# --- primitive laws --------------------------------------------------------

def test_equivalent_control_rest_is_zero():
    design = random_design()
    u = equivalent_control(design, 0.9, np.zeros(2), np.zeros(2))
    assert np.array_equal(u, np.zeros(2))


def test_equivalent_control_contracts_exactly():
    # closing the exact recursion with the ideal law gives s+ = alpha s
    for seed in range(5):
        design, alpha = random_design(seed=seed), 0.9 - 0.1 * seed
        rng = np.random.default_rng(100 + seed)
        s = rng.standard_normal(2)
        g = rng.standard_normal(2)
        u = equivalent_control(design, alpha, s, g)
        s_next = surface_step(design, s, u, g)
        assert np.linalg.norm(s_next - alpha * s) <= 1e-9


def test_equivalent_control_deadbeat_at_zero_alpha():
    design = random_design()
    rng = np.random.default_rng(42)
    s, g = rng.standard_normal(2), rng.standard_normal(2)
    u = equivalent_control(design, 0.0, s, g)
    s_next = surface_step(design, s, u, g)
    assert np.linalg.norm(s_next) <= 1e-12


def test_reconstruct_recovers_g():
    design = random_design(seed=3)
    rng = np.random.default_rng(17)
    for _ in range(10):
        s, u, g = (rng.standard_normal(2) for _ in range(3))
        s_next = surface_step(design, s, u, g)
        back = reconstruct_g_prev(design, s_next, s, u)
        assert np.allclose(back, g, atol=1e-12)


def test_reconstruct_zero_history():
    design = random_design()
    out = reconstruct_g_prev(design, np.zeros(2), np.zeros(2), np.zeros(2))
    assert np.array_equal(out, np.zeros(2))


# --- stateful controllers --------------------------------------------------

def test_controller_warmup_emits_zero(bench_design):
    rng = np.random.default_rng(5)
    for kind, warm in (("m1", 1), ("mm1", 1), ("m2", 2), ("mm2", 2)):
        st = ControllerState(kind=kind, design=bench_design, alpha=ALPHA_BENCH)
        for k in range(warm):
            u = st.step(rng.standard_normal(2))
            assert np.array_equal(u, np.zeros(2)), (kind, k)
        u = st.step(rng.standard_normal(2))
        assert np.linalg.norm(u) > 0


def test_controller_rejects_unknown_kind(bench_design):
    with pytest.raises(ConfigError):
        ControllerState(kind="pid", design=bench_design, alpha=ALPHA_BENCH)


def test_eq_requires_oracle(bench_design):
    st = ControllerState(kind="eq", design=bench_design, alpha=ALPHA_BENCH)
    st.step(np.zeros(2))  # warmup
    with pytest.raises(ConfigError):
        st.step(np.ones(2))


def test_alpha_eff(bench_design):
    # the deadbeat baselines are the contraction recursions at alpha = 0
    for kind, twin in (("m1", "mm1"), ("m2", "mm2")):
        got = law_taps(bench_design, ALPHA_BENCH, kind)
        want = law_taps(bench_design, 0.0, twin)
        assert got.warmup == want.warmup
        assert len(got.K) == len(want.K) and len(got.C) == len(want.C)
        for a, b in zip(got.K + got.C, want.K + want.C):
            assert np.array_equal(a, b)


def test_first_order_law_tracks_ideal_with_lagged_g():
    # after warmup, the folded recursion equals the ideal law fed g[k-1]
    design = random_design(seed=8)
    rng = np.random.default_rng(77)
    s_hist = [rng.standard_normal(2)]
    st = ControllerState(kind="mm1", design=design, alpha=0.9)
    u_prev = st.step(s_hist[0])
    g_prev = rng.standard_normal(2)
    s_now = surface_step(design, s_hist[0], u_prev, g_prev)
    u_now = st.step(s_now)
    ideal = equivalent_control(design, 0.9, s_now, g_prev)
    assert np.allclose(u_now, ideal, atol=1e-12)


def test_second_order_law_tracks_ideal_with_extrapolated_g():
    design = random_design(seed=13)
    rng = np.random.default_rng(78)
    st = ControllerState(kind="mm2", design=design, alpha=0.9)
    s0 = rng.standard_normal(2)
    u0 = st.step(s0)                      # warmup -> 0
    g0 = rng.standard_normal(2)
    s1 = surface_step(design, s0, u0, g0)
    u1 = st.step(s1)                      # warmup -> 0
    g1 = rng.standard_normal(2)
    s2 = surface_step(design, s1, u1, g1)
    u2 = st.step(s2)
    ideal = equivalent_control(design, 0.9, s2, 2 * g1 - g0)
    assert np.allclose(u2, ideal, atol=1e-12)


# --- taps --------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["m1", "m2", "mm1", "mm2"])
def test_recursive_and_estimate_taps_agree(kind):
    # the hand-folded taps and the ones composed from the equivalent-control
    # lead and the reconstruction are two derivations of one law
    design = random_design(seed=21)
    rec = law_taps(design, 0.9, kind)
    est = estimate_taps(design, 0.9, kind)
    assert len(rec.K) == len(est.K) == rec.warmup + 1
    assert len(rec.C) == len(est.C) == rec.warmup
    scale = max(np.max(np.abs(K)) for K in rec.K)
    for a, b in zip(rec.K + rec.C, est.K + est.C):
        assert np.max(np.abs(a - b)) <= 1e-13 * scale


def test_eq_taps_are_the_equivalent_control():
    design = random_design(seed=22)
    taps = law_taps(design, 0.9, "eq")
    rng = np.random.default_rng(23)
    s, g = rng.standard_normal(2), rng.standard_normal(2)
    assert taps.C == () and taps.warmup == 1
    assert np.allclose(taps.K[0] @ s + taps.K_g @ g,
                       equivalent_control(design, 0.9, s, g), rtol=1e-14, atol=0)


# --- two-form equivalence over the shipped benchmark ------------------------
# the estimate taps run through the simulator in place of law_taps

@pytest.mark.parametrize("kind", ["m1", "m2", "mm1", "mm2"])
def test_recursive_and_estimate_forms_agree(bench_scenario, kind):
    base = bench_scenario.with_(kind=kind)
    t_rec = run(base)
    with law_form("estimate"):
        t_est = run(base)
    gap = np.max(np.abs(t_rec.u - t_est.u))
    assert gap <= 1e-10
    gap_s = np.max(np.abs(t_rec.s_true - t_est.s_true))
    assert gap_s <= 1e-10


# --- gain scaling in the sampling period ------------------------------------

def test_deadbeat_gain_grows_as_period_shrinks(bench_scenario):
    # the deadbeat baselines pay O(1/T) input: halving T roughly doubles the
    # peak input over the same transient
    peaks = {}
    for T in (0.02, 0.01):
        traj = run(bench_scenario.with_(kind="m1", T=T, alpha=None))
        peaks[T] = traj.u_peak
    factor = peaks[0.01] / peaks[0.02]
    assert 1.6 <= factor <= 2.4


@pytest.mark.parametrize("kind", ["mm1", "mm2"])
def test_contraction_laws_stay_bounded(bench_scenario, kind):
    # with beta fixed, the contraction laws' peak input is O(1) in T
    peaks = {}
    for T in (0.02, 0.01, 0.005):
        traj = run(bench_scenario.with_(kind=kind, T=T, alpha=None))
        peaks[T] = traj.u_peak
    assert max(peaks.values()) / min(peaks.values()) < 2.0
