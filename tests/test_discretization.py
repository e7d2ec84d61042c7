"""Discretization oracles.

Closed-form cases (nilpotent and zero drift) are exact; the generic path is
cross-checked against three independent integrators: adaptive quadrature
and composite Simpson on the convolution integral, and fine-step RK4 on the
state equation itself (conftest.rk4_states, the held-input oracle).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.linalg import expm

from qsmc import (ConfigError, ContinuousPlant, DisturbanceSampler,
                  DisturbanceSignal, Segment, constant_signal,
                  difference_diagnostics, discretize, zero_signal)
from qsmc.errors import DisturbanceRangeError
from qsmc.plant import ConstForm, CosForm, SinForm, ZeroForm

from conftest import T_BENCH, form_value, rk4_states, segment_of, segment_value


def _pieces(sig, T, k):
    """(lo, hi, segment) in tau = (k+1)T - t, cut at the interior segment
    boundaries farther than 1e-13 from both ends of the sample."""
    t1 = (k + 1) * T
    cuts = [0.0, T]
    for b in sig.boundaries_within(t1 - T, t1):
        if 1e-13 < t1 - b < T - 1e-13:
            cuts.append(t1 - b)
    cuts = sorted(set(cuts))
    seg_end = np.nextafter(sig.t_end, 0)
    return [(lo, hi, segment_of(sig, min(t1 - 0.5 * (lo + hi), seg_end)))
            for lo, hi in zip(cuts[:-1], cuts[1:])]


def sampled_disturbance(plant, T, sig, k):
    """One-shot d[k] from a fresh DisturbanceSampler."""
    return DisturbanceSampler(plant, T, sig).at(k)


def quad_dk(plant, T, sig, k):
    """Adaptive Gauss-Kronrod quadrature (quad_vec) on d[k], one piece per
    segment the sample touches."""
    t1 = (k + 1) * T
    epsabs = 1e-12 * (1 + np.linalg.norm(plant.B))
    total = np.zeros(plant.n)
    for lo, hi, seg in _pieces(sig, T, k):
        val, _ = quad_vec(
            lambda tau: expm(plant.A * tau) @ plant.B
            @ segment_value(sig, seg, t1 - tau),
            lo, hi, epsabs=epsabs, epsrel=1e-13)
        total += val
    return total


def _simpson_dk(plant, T, sig, k, panels=2000):
    """Composite Simpson on d[k], split at interior segment boundaries."""
    t1 = (k + 1) * T
    total = np.zeros(plant.n)
    for lo, hi, seg in _pieces(sig, T, k):
        taus, h = np.linspace(lo, hi, 2 * panels + 1, retstep=True)
        vals = np.array([expm(plant.A * tau) @ plant.B
                         @ segment_value(sig, seg, t1 - tau) for tau in taus])
        w = np.ones(len(taus)); w[1:-1:2] = 4.0; w[2:-1:2] = 2.0
        total += h / 3.0 * (w[:, None] * vals).sum(axis=0)
    return total


def _rk4_dk(plant, T, sig, k, steps=1000):
    """RK4 on xdot = A x + B f(t) from x(kT) = 0: the held-input oracle
    with x0 = 0 and u = 0, `steps` steps per piece between segment joins."""
    return rk4_states(plant, sig, np.zeros((1, plant.n)), np.zeros((1, plant.m)),
                      [k * T], T, steps=steps)[0, -1]


# --- exact linear part -----------------------------------------------------

def test_zero_drift_closed_form():
    plant = ContinuousPlant(np.zeros((2, 2)), np.array([[1.0], [2.0]]), np.eye(2))
    d = discretize(plant, 0.5)
    assert np.allclose(d.state_map, np.eye(2), atol=1e-15)
    assert np.allclose(d.input_map, 0.5 * plant.B, atol=1e-15)
    assert np.allclose(d.drift_rate, 0.0, atol=1e-15)
    assert np.allclose(d.input_rate, plant.B, atol=1e-14)
    assert np.allclose(d.input_curvature, 0.0, atol=1e-13)


def test_double_integrator_closed_form(double_integrator):
    d = discretize(double_integrator, 1.0)
    assert np.allclose(d.state_map, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)
    assert np.allclose(d.input_map, [[0.5], [1.0]], atol=1e-14)
    # A is nilpotent: the expansion terminates, both rates are exact
    assert np.allclose(d.drift_rate, double_integrator.A, atol=1e-14)
    assert np.allclose(d.input_curvature, [[0.5], [0.0]], atol=1e-14)


def test_scalar_exponential():
    plant = ContinuousPlant(np.array([[-2.0]]), np.array([[1.0]]), np.eye(1))
    for T in (1.0, 0.1, 0.001):
        d = discretize(plant, T)
        assert d.state_map[0, 0] == pytest.approx(np.exp(-2.0 * T), rel=1e-13)
        assert d.input_map[0, 0] == pytest.approx((1 - np.exp(-2.0 * T)) / 2.0,
                                                  rel=1e-12)


def test_state_map_matches_expm(bench_plant):
    for T in (0.5, 0.01):
        d = discretize(bench_plant, T)
        ref = expm(bench_plant.A * T)
        assert np.linalg.norm(d.state_map - ref) <= 1e-12 * np.linalg.norm(ref)


def test_semigroup_property(bench_plant):
    dT = discretize(bench_plant, 0.01)
    d2T = discretize(bench_plant, 0.02)
    assert np.allclose(d2T.state_map, dT.state_map @ dT.state_map, atol=1e-10)
    # held input over 2T = propagate first half, add second half
    two_step = dT.state_map @ dT.input_map + dT.input_map
    assert np.allclose(d2T.input_map, two_step, atol=1e-10)


def test_expansion_matrices_bounded(bench_plant):
    # input_curvature -> A B / 2 as T -> 0
    d = discretize(bench_plant, 1e-5)
    lim_b = bench_plant.A @ bench_plant.B / 2
    assert np.linalg.norm(d.input_curvature - lim_b) <= 1e-3 * np.linalg.norm(lim_b)


def test_discretize_rejects_bad_period(bench_plant):
    with pytest.raises(ConfigError):
        discretize(bench_plant, 0.0)
    with pytest.raises(ConfigError):
        discretize(bench_plant, -0.1)


# --- sampled disturbance ---------------------------------------------------

def test_constant_disturbance_equals_held_input(bench_plant):
    levels = np.array([2.0, -0.5])
    sig = constant_signal(levels)
    d = discretize(bench_plant, T_BENCH)
    sampler = DisturbanceSampler(bench_plant, T_BENCH, sig)
    for k in (0, 100, 1599):
        assert np.allclose(sampler.at(k), d.input_map @ levels, atol=1e-12)


def test_zero_disturbance_is_zero(bench_plant):
    sampler = DisturbanceSampler(bench_plant, T_BENCH, zero_signal(2))
    assert np.allclose(sampler.at(123), 0.0, atol=1e-15)


def test_exact_vs_quadrature(bench_plant, bench_signal):
    # every kind of sample of the benchmark signal: zero, constant and
    # sinusoidal segments, the step at t = 10 on a sample edge (T = 0.01)
    # and inside a sample (T = 0.03), and the join at 5 pi inside a sample
    for T, ks in ((T_BENCH, (0, 999, 1000, 1300, 1569, 1570, 1571, 1999)),
                  (0.03, (333, 400, 523, 524, 600))):
        sampler = DisturbanceSampler(bench_plant, T, bench_signal)
        table = sampler.table(0, max(ks) + 1)
        for k in ks:
            ref = quad_dk(bench_plant, T, bench_signal, k)
            assert np.linalg.norm(table[k] - ref) <= 1e-12 * np.linalg.norm(ref), \
                (T, k)


def test_quadrature_vs_simpson(bench_plant, bench_signal):
    # smooth sinusoid segment, t in [16.00, 16.01)
    k = 1600
    ours = sampled_disturbance(bench_plant, T_BENCH, bench_signal, k)
    ref = _simpson_dk(bench_plant, T_BENCH, bench_signal, k)
    assert np.linalg.norm(ours - ref) <= 1e-10


def test_quadrature_vs_rk4(bench_plant, bench_signal):
    for k in (500, 1200, 1600):
        ours = sampled_disturbance(bench_plant, T_BENCH, bench_signal, k)
        ref = _rk4_dk(bench_plant, T_BENCH, bench_signal, k)
        assert np.linalg.norm(ours - ref) <= 1e-8


def test_boundary_straddling_interval(bench_plant, bench_signal):
    # T = 0.03 makes sample 333 cover [9.99, 10.02): the step at t = 10 sits
    # strictly inside, forcing the split-at-boundary path
    T = 0.03
    k = 333
    assert k * T < 10.0 < (k + 1) * T
    ours = sampled_disturbance(bench_plant, T, bench_signal, k)
    ref = _simpson_dk(bench_plant, T, bench_signal, k)
    assert np.linalg.norm(ours - ref) <= 1e-10
    rk = _rk4_dk(bench_plant, T, bench_signal, k, steps=3000)
    assert np.linalg.norm(ours - rk) <= 1e-7


def test_exosystem_blocks_match_block_diag():
    # the slicing build of a segment's (S, E) against scipy's block_diag
    from scipy.linalg import block_diag
    cases = [(SinForm(1.0, 1.0, 0.5, 0.0), CosForm(0.5, 1.0)),
             (ZeroForm(), ConstForm(-0.5)),
             (CosForm(2.0, 3.0), ZeroForm(), SinForm(0.1, 0.2, 0.3, 0.4)),
             (ZeroForm(), ZeroForm())]
    for forms in cases:
        S, E = Segment(0.0, np.inf, forms).exosystem
        want_S = block_diag(*(f.exo_S for f in forms))
        want_E = block_diag(*(np.reshape(f.exo_E, (1, -1)) for f in forms))
        assert S.shape == want_S.shape and np.array_equal(S, want_S)
        assert E.shape == want_E.shape and np.array_equal(E, want_E)
    S, E = Segment(0.0, np.inf, (ZeroForm(), ZeroForm())).exosystem
    assert S.shape == (0, 0) and E.shape == (2, 0)


def test_sampler_determinism(bench_plant, bench_signal):
    a = DisturbanceSampler(bench_plant, T_BENCH, bench_signal)
    b = DisturbanceSampler(bench_plant, T_BENCH, bench_signal)
    for k in (0, 999, 1000, 1600):
        assert np.array_equal(a.at(k), b.at(k))
    assert np.array_equal(a.at(1600), a.at(1600))


def test_sampler_range_checks(bench_plant):
    finite = DisturbanceSignal([Segment(0.0, 1.0, (ZeroForm(), ZeroForm()))])
    sampler = DisturbanceSampler(bench_plant, 0.3, finite)
    sampler.at(0)
    with pytest.raises(DisturbanceRangeError):
        sampler.at(3)  # [0.9, 1.2) leaves the signal domain
    with pytest.raises(DisturbanceRangeError):
        sampler.at(-1)


def test_sampler_config_checks(bench_plant):
    sig = zero_signal(2)
    with pytest.raises(ConfigError):
        DisturbanceSampler(bench_plant, -0.01, sig)
    with pytest.raises(ConfigError):
        DisturbanceSampler(bench_plant, 0.01, zero_signal(3))


# --- randomized differential test of the exact route -------------------------

# levels and amplitudes are zero or at least 1e-6 in size: near the bottom
# of the float range d[k] underflows and no route keeps relative accuracy
_size = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
_forms = st.one_of(
    st.builds(ConstForm, _size),
    st.builds(SinForm, _size, _size, st.floats(0.1, 20.0),
              st.floats(-np.pi, np.pi)),
    st.builds(CosForm, _size, st.floats(0.1, 20.0)),
)
# offsets (in seconds) from a grid point kT that put a segment boundary on a
# sample edge or within the 1e-13 split guard of one
_NEAR_EDGE = (0.0, 4e-14, -4e-14, 9e-14, -9e-14)


@st.composite
def _dk_cases(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.standard_normal((n, n))
    margin = draw(st.floats(0.1, 2.0))
    A = M - (np.max(np.linalg.eigvals(M).real) + margin) * np.eye(n)
    plant = ContinuousPlant(A, rng.standard_normal((n, m)), np.eye(n))
    T = draw(st.floats(0.005, 0.2))
    grid = sorted(draw(st.sets(st.integers(1, 12), max_size=2)))
    starts = [0.0]
    for kb in grid:
        if draw(st.booleans()):     # strictly inside sample kb
            starts.append(kb * T + draw(st.floats(0.05, 0.95)) * T)
        else:
            starts.append(kb * T + draw(st.sampled_from(_NEAR_EDGE)))
    ends = starts[1:] + [np.inf]
    segs = [Segment(a, b, tuple(draw(_forms) for _ in range(m)))
            for a, b in zip(starts, ends)]
    return plant, T, DisturbanceSignal(segs), (grid[-1] if grid else 0) + 3


@settings(max_examples=40, deadline=None)
@given(case=_dk_cases(), window=st.tuples(st.integers(0, 15), st.integers(0, 15)))
def test_exact_dk_differential(case, window):
    plant, T, sig, K = case
    sampler = DisturbanceSampler(plant, T, sig)
    table = sampler.table(0, K)
    ref = np.array([quad_dk(plant, T, sig, k) for k in range(K)])
    assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))
    # a row does not depend on the window it was computed in
    k0, k1 = sorted(min(w, K) for w in window)
    part = sampler.table(k0, k1)
    for k in range(k0, k1):
        assert sampler.at(k).tobytes() == part[k - k0].tobytes() \
            == table[k].tobytes()
    # a constant disturbance is a held input
    levels = np.array([form_value(f, 0.0) for f in sig.segments[0].forms])
    const = DisturbanceSampler(plant, T, constant_signal(levels)).table(0, K)
    held = discretize(plant, T).input_map @ levels
    assert np.allclose(const, held, rtol=1e-12, atol=1e-12 * np.max(np.abs(held)))


# --- matched part and residual ---------------------------------------------

def matched_residual_split(plant, T, sig, k):
    """(matched, residual) of d[k]: matched = input_map f(kT), what a held
    input equal to f[k] produces, and residual = d[k] - matched, which is
    O(T^2) absolute where f' is bounded on the sample."""
    matched = discretize(plant, T).input_map @ sig.value(k * T)
    return matched, sampled_disturbance(plant, T, sig, k) - matched


class _Ramp:
    """f(t) = t; not part of the scenario grammar, duck-typed for tests.
    Its exosystem is z = (t, 1), z' = S z with S = [[0, 1], [0, 0]]."""
    sup_d1 = 1.0
    exo_S = np.array([[0.0, 1.0], [0.0, 0.0]])
    exo_E = np.array([1.0, 0.0])
    def exo_z(self, t): return np.column_stack((t, np.ones_like(t)))
    def spec(self): return "ramp"


def test_ramp_residual_closed_form():
    # zero drift, ramp disturbance f(t) = t: the residual of the held-input
    # approximation is exactly (T^2/2) B for every sample
    plant = ContinuousPlant(np.zeros((2, 2)), np.array([[1.0], [2.0]]), np.eye(2))
    T = 0.05
    sig = DisturbanceSignal([Segment(0.0, np.inf, (_Ramp(),))])
    for k in (0, 7, 40):
        matched, residual = matched_residual_split(plant, T, sig, k)
        assert np.allclose(matched, T * plant.B[:, 0] * (k * T), atol=1e-14)
        assert np.allclose(residual, plant.B[:, 0] * T ** 2 / 2, atol=1e-12)


def test_residual_shrinks_quadratically(bench_plant, bench_signal):
    # halving T shrinks the residual by about 4 on a smooth segment
    k_t = 16.0
    norms = []
    for T in (0.02, 0.01):
        k = int(round(k_t / T))
        _, residual = matched_residual_split(bench_plant, T, bench_signal, k)
        norms.append(np.linalg.norm(residual))
    factor = norms[0] / norms[1]
    assert 3.2 <= factor <= 4.8


# --- finite differences ----------------------------------------------------

def test_difference_orders(bench_plant, bench_signal):
    # first differences O(T^2): halving T gives a factor near 4
    # second differences O(T^3): near 8
    # the k ranges cover the same stretch of time at both periods so the
    # maxima see the same disturbance slope
    reps = {}
    for T, count in ((0.02, 9), (0.01, 17)):
        k0 = int(round(16.0 / T))
        reps[T] = difference_diagnostics(bench_plant, T, bench_signal,
                                         range(k0, k0 + count))
    f1 = reps[0.02].first_diff_max / reps[0.01].first_diff_max
    f2 = reps[0.02].second_diff_max / reps[0.01].second_diff_max
    assert 3.2 <= f1 <= 4.8
    assert 6.4 <= f2 <= 9.6
    assert not reps[0.01].spans_boundary


def test_ramp_second_difference_vanishes():
    plant = ContinuousPlant(np.zeros((1, 1)), np.eye(1), np.eye(1))
    sig = DisturbanceSignal([Segment(0.0, np.inf, (_Ramp(),))])
    rep = difference_diagnostics(plant, 0.1, sig, range(0, 8))
    # d[k] is affine in k for a ramp through a driftless plant
    assert rep.second_diff_max <= 1e-12
    assert rep.first_diff_max == pytest.approx(0.1 ** 2, rel=1e-8)


def test_difference_boundary_flag(bench_plant, bench_signal):
    rep = difference_diagnostics(bench_plant, T_BENCH, bench_signal,
                                 range(995, 1005))
    assert rep.spans_boundary


def test_difference_needs_three_samples(bench_plant, bench_signal):
    with pytest.raises(ConfigError):
        difference_diagnostics(bench_plant, T_BENCH, bench_signal, [5, 6])
