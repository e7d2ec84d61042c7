import contextlib
from unittest import mock

import numpy as np
import pytest

import qsmc.controllers
import qsmc.simulate
from qsmc import (ContinuousPlant, DisturbanceSignal, LawTaps, Segment,
                  build_surface, discretize, law_taps, load_aircraft_scenario,
                  make_gains)
from qsmc.controllers import DEADBEAT, WARMUP, _eq_terms
from qsmc.plant import ConstForm, CosForm, SinForm, ZeroForm

# shipped benchmark plant: lateral aircraft dynamics, 4 states, 2 inputs,
# 3 measured outputs
A_BENCH = np.array([
    [-3.79, 0.04, -52.0, 0.0],
    [-0.14, -0.36, 4.24, 0.0],
    [0.06, -1.0, -0.27, 0.05],
    [1.0, 0.06, 0.0, 0.0],
])
B_BENCH = np.array([
    [25.0, 9.83],
    [1.42, -4.2],
    [0.01, 0.05],
    [0.0, 0.0],
])
C_BENCH = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])
H_BENCH = np.array([
    [0.035306, 0.082634, 0.076550],
    [0.011937, -0.210157, 0.008324],
])
X0_BENCH = np.array([-1.0, 1.0, 1.0, -2.0])

# same plant with an output-surface choice that destabilizes the reduced
# dynamics (one unstable invariant direction); used for divergence tests
H_UNSTABLE = np.array([
    [0.125, 0.397, 0.276],
    [-0.275, -0.2, 0.374],
])

T_BENCH = 0.01
ALPHA_BENCH = 0.97
BETA_BENCH = 3.0


# --- estimate-form taps: the oracle of controllers.law_taps -----------------
#
# law_taps folds each law's reconstruction of g[k] into its taps by hand.
# estimate_taps composes the same law from the equivalent-control lead and
# the algebraic reconstruction of g[k-1], so the two are independent
# derivations that agree to rounding.

def _reconstruction(gains):
    """reconstruct_g_prev as (R0, R1, Ru):
    g[k-1] = R0 s[k] + R1 s[k-1] + Ru u[k-1]."""
    T = gains.T
    m = gains.s_gain.shape[0]
    return np.eye(m), -(np.eye(m) + T * gains.drift_from_s), -T * gains.s_gain


def equivalent_control(gains, s_k, g_k):
    """Ideal law given the true g[k] (not available online).  With the exact
    g the surface contracts exactly: s[k+1] = alpha s[k]."""
    lead, E = _eq_terms(gains, gains.alpha)
    return lead @ s_k + E @ g_k


def reconstruct_g_prev(gains, s_k, s_km1, u_km1):
    """Exact g[k-1] from observed history: algebraic inversion of the
    one-step surface update."""
    R0, R1, Ru = _reconstruction(gains)
    return R0 @ s_k + R1 @ s_km1 + Ru @ u_km1


# weights of the delayed reconstructions in each law's estimate of g[k]
_EXTRAPOLATION = {"m1": (1.0,), "mm1": (1.0,), "m2": (2.0, -1.0), "mm2": (2.0, -1.0)}


def estimate_taps(gains, kind):
    """Taps of one law composed as u[k] = lead s[k] + E sum_j w_j g[k-j],
    each g[k-j] rebuilt from (s[k-j+1], s[k-j], u[k-j]); eq (and an unknown
    kind's error) is law_taps'."""
    if kind not in _EXTRAPOLATION:
        return law_taps(gains, kind)
    a = 0.0 if kind in DEADBEAT else gains.alpha
    m = gains.s_gain.shape[0]
    lead, E = _eq_terms(gains, a)
    R0, R1, Ru = _reconstruction(gains)
    weights = _EXTRAPOLATION[kind]
    K = [lead] + [np.zeros((m, m)) for _ in weights]
    C = []
    for j, w in enumerate(weights, start=1):
        K[j - 1] = K[j - 1] + w * (E @ R0)
        K[j] = K[j] + w * (E @ R1)
        C.append(w * (E @ Ru))
    return LawTaps(tuple(K), tuple(C), WARMUP[kind])


# each form's taps; "recursive" is the program's own law_taps
FORMS = {"recursive": law_taps, "estimate": estimate_taps}


@contextlib.contextmanager
def law_form(form):
    """Inside the block the simulator and ControllerState build every law's
    taps with FORMS[form], so either form runs the same code path."""
    taps = FORMS[form]
    with mock.patch.object(qsmc.simulate, "law_taps", taps), \
            mock.patch.object(qsmc.controllers, "law_taps", taps):
        yield


def segment_value(sig, idx, t):
    """f at time t from the forms of segment idx, continued past the
    segment's ends, as an (m,) array; at an array of times, a (len(t), m)
    array.  What an integrator that must not see the jump at a join
    evaluates."""
    forms = sig.segments[idx].forms
    if np.ndim(t) == 0:
        return np.array([f.value(t) for f in forms])
    t = np.asarray(t).tolist()
    return np.array([list(map(f.value, t)) for f in forms], dtype=float).T


def rk4_states(plant, sig, x0, u, t0, T, substeps=1, steps=1):
    """RK4 oracle of the held-input interval: the states x(t0 + j T/substeps),
    j = 1..substeps, of x' = A x + B (u + f(t)) from x(t0) = x0.

    Rows of x0 (K, n), u (K, m) and t0 (K,) are independent intervals,
    stepped together; the result is (K, substeps, n).  Each sub-interval is
    cut at the segment joins inside it and each piece takes `steps` classical
    RK4 steps on its own segment's forms, so no stage sees a jump.  Neither
    discretize nor DisturbanceSampler is used."""
    A, B = plant.A, plant.B
    x = np.array(x0, dtype=float)
    Bu = np.asarray(u, dtype=float) @ B.T
    t0 = np.asarray(t0, dtype=float)
    starts = np.array([seg.t_start for seg in sig.segments])
    last = np.nextafter(sig.t_end, 0)

    def drive(seg, t):
        """B (u + f(t)), each row on its own segment's forms."""
        f = np.empty((len(t), sig.m))
        for j in np.unique(seg):
            rows = seg == j
            f[rows] = segment_value(sig, j, t[rows])
        return Bu + f @ B.T

    out = np.empty((len(x), substeps, plant.n))
    width = T / substeps
    for j in range(substeps):
        lo, hi = t0 + j * width, t0 + (j + 1) * width
        cuts = [lo] + [np.clip(b, lo, hi) for b in starts[1:]] + [hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if not np.any(b > a):
                continue
            seg = np.searchsorted(starts, np.minimum(0.5 * (a + b), last),
                                  side="right") - 1
            h = (b - a) / steps
            hc = h[:, None]
            g_end = drive(seg, a)
            for i in range(steps):
                g0, g_mid = g_end, drive(seg, a + (i + 0.5) * h)
                g_end = drive(seg, a + (i + 1) * h)
                k1 = x @ A.T + g0
                k2 = (x + hc / 2 * k1) @ A.T + g_mid
                k3 = (x + hc / 2 * k2) @ A.T + g_mid
                k4 = (x + hc * k3) @ A.T + g_end
                x = x + hc / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, j] = x
    return out


@pytest.fixture(scope="session")
def bench_plant():
    return ContinuousPlant(A_BENCH, B_BENCH, C_BENCH)


@pytest.fixture(scope="session")
def bench_disc(bench_plant):
    return discretize(bench_plant, T_BENCH)


@pytest.fixture(scope="session")
def bench_design(bench_plant, bench_disc):
    return build_surface(bench_plant, bench_disc, H_BENCH)


@pytest.fixture(scope="session")
def bench_gains(bench_design):
    return make_gains(bench_design, alpha=ALPHA_BENCH, beta=BETA_BENCH)


@pytest.fixture(scope="session")
def bench_signal():
    t_mid = 5.0 * np.pi
    return DisturbanceSignal([
        Segment(0.0, 10.0, (ZeroForm(), ZeroForm())),
        Segment(10.0, t_mid, (ConstForm(2.0), ConstForm(-0.5))),
        Segment(t_mid, np.inf,
                (SinForm(offset=1.0, amp=1.0, omega=0.5), CosForm(0.5, 1.0))),
    ])


@pytest.fixture(scope="session")
def bench_scenario():
    return load_aircraft_scenario().scenario


@pytest.fixture(scope="session")
def double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.eye(2)
    return ContinuousPlant(A, B, C)
