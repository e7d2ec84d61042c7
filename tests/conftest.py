import contextlib
import math
from unittest import mock

import numpy as np
import pytest

import qsmc.controllers
import qsmc.simulate
from qsmc import (ConfigError, ContinuousPlant, DisturbanceSampler,
                  DisturbanceSignal, LawTaps, Segment, Xoshiro256StarStar,
                  build_aug, build_surface, discretize, law_taps,
                  load_aircraft_scenario, run)
from qsmc.controllers import DEADBEAT, WARMUP, _eq_terms
from qsmc.errors import DisturbanceRangeError
from qsmc.plant import ConstForm, CosForm, SinForm, ZeroForm, random_surface_map

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
# derivations that agree to rounding.  Each takes a surface design, or any
# object with its T, s_gain, s_gain_inv and drift_from_s.

def _reconstruction(design):
    """reconstruct_g_prev as (R0, R1, Ru):
    g[k-1] = R0 s[k] + R1 s[k-1] + Ru u[k-1]."""
    T = design.T
    m = design.s_gain.shape[0]
    return np.eye(m), -(np.eye(m) + T * design.drift_from_s), -T * design.s_gain


def equivalent_control(design, alpha, s_k, g_k):
    """Ideal law given the true g[k] (not available online).  With the exact
    g the surface contracts exactly: s[k+1] = alpha s[k]."""
    lead, E = _eq_terms(design, alpha)
    return lead @ s_k + E @ g_k


def reconstruct_g_prev(design, s_k, s_km1, u_km1):
    """Exact g[k-1] from observed history: algebraic inversion of the
    one-step surface update."""
    R0, R1, Ru = _reconstruction(design)
    return R0 @ s_k + R1 @ s_km1 + Ru @ u_km1


# weights of the delayed reconstructions in each law's estimate of g[k]
_EXTRAPOLATION = {"m1": (1.0,), "mm1": (1.0,), "m2": (2.0, -1.0), "mm2": (2.0, -1.0)}


def estimate_taps(design, alpha, kind):
    """Taps of one law composed as u[k] = lead s[k] + E sum_j w_j g[k-j],
    each g[k-j] rebuilt from (s[k-j+1], s[k-j], u[k-j]); eq (and an unknown
    kind's error) is law_taps'."""
    if kind not in _EXTRAPOLATION:
        return law_taps(design, alpha, kind)
    a = 0.0 if kind in DEADBEAT else alpha
    m = design.s_gain.shape[0]
    lead, E = _eq_terms(design, a)
    R0, R1, Ru = _reconstruction(design)
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


# --- the paper's augmented recursion: the oracle of controllers.Loop ---------
#
# analysis.build_aug assembles A_aug in normal coordinates (xi, s, memory).
# With the disturbance vector below, the augmented recursion reproduces a
# direct simulation; the Loop the simulator runs has the same
# characteristic polynomial up to a power of lambda.

def variant_for_kind(kind):
    """The augmented variant of a law: aug1 for the first-order estimators
    (and eq), aug2 for the second-order ones."""
    return "aug1" if kind in ("m1", "mm1", "eq") else "aug2"


def disturbance_vector(design, alpha, variant, d_xi, d_s):
    """The augmented disturbance from the projections of d[k]:
    d_xi = M d[k], d_s = H C d[k]."""
    T = design.T
    m = d_s.shape[0]
    I = np.eye(m)
    cpl = design.drift_from_s
    if variant == "aug1":
        tail = -(((2.0 - alpha) * I + T * cpl) @ d_s)
        return np.concatenate([d_xi, d_s, tail])
    tail = -(((3.0 - alpha) * I + T * cpl) @ d_s)
    z = np.zeros(m)
    return np.concatenate([d_xi, d_s, z, tail, z])


def augmented_vs_direct(design, alpha, variant, scenario):
    """Run the closed loop both as the simulator does and as the augmented
    recursion driven by ground-truth disturbance projections; return the
    max state deviation.  The two are algebraically identical, so this
    validates the block assembly."""
    kind = scenario.kind
    want = variant_for_kind(kind)
    if want != variant:
        raise ConfigError(f"kind {kind!r} pairs with {want}, not {variant}")
    if scenario.noise.kind != "none" and scenario.noise.halfwidth != 0.0:
        raise ConfigError("equivalence check requires a noise-free scenario")
    # deadbeat baselines run the recursions at alpha = 0; the augmented
    # matrix must be assembled with the same effective alpha
    if kind in DEADBEAT:
        alpha = 0.0
    traj = run(scenario)
    M, H, C = design.annihilator, design.H, design.plant.C
    hc = H @ C
    T = design.T
    steps = traj.x.shape[0] - 1
    dk = DisturbanceSampler(design.plant, T, scenario.disturbance).table(0, steps)
    xi = traj.x @ M.T
    s = traj.s_true
    w = traj.u @ (T * design.s_gain).T
    A_aug = build_aug(design, alpha, variant)
    if variant == "aug1":
        psi = np.concatenate([xi[0], s[0], w[0]])
        k0 = 0
    else:
        # seeded one sample in: by then the delayed history slots hold real
        # values and the recursion is exact
        psi = np.concatenate([xi[1], s[1], s[0], w[1], w[0]])
        k0 = 1
    dev = 0.0
    for k in range(k0, steps):
        d = dk[k]
        psi = A_aug @ psi + disturbance_vector(design, alpha, variant, M @ d, hc @ d)
        if variant == "aug1":
            ref = np.concatenate([xi[k + 1], s[k + 1], w[k + 1]])
        else:
            ref = np.concatenate([xi[k + 1], s[k + 1], s[k], w[k + 1], w[k]])
        dev = max(dev, float(np.max(np.abs(psi - ref))))
    return dev


def random_plant(rng, gen):
    """(plant, H): a plant with m <= p < n <= 5 and standard-normal A, B, C
    from the numpy generator rng, and a surface map drawn from the
    xoshiro256** generator gen as invariant_zeros draws it."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n))
    p = int(rng.integers(m, n))
    plant = ContinuousPlant(rng.standard_normal((n, n)),
                            rng.standard_normal((n, m)),
                            rng.standard_normal((p, n)))
    return plant, random_surface_map(gen, m, p)


# --- closed forms and scalar draws: the oracles of the exosystem and lane routes
#
# The package reads f, f' and d[k] from each segment's exosystem and draws
# noise in lockstep lanes.  The closed form of each form and the xoshiro256**
# step taken one draw at a time on Python integers are independent routes
# to the same numbers, kept here to hold those to.

CLOSED_FORMS = {
    ZeroForm: lambda f, t: 0.0,
    ConstForm: lambda f, t: f.level,
    SinForm: lambda f, t: f.offset + f.amp * math.sin(f.omega * t + f.phase),
    CosForm: lambda f, t: f.amp * math.cos(f.omega * t),
}


def form_value(form, t):
    """One form's value at time t, in closed form."""
    return CLOSED_FORMS[type(form)](form, t)


def segment_of(sig, t):
    """Index of the segment [t_start, t_end) of sig that holds t, found by
    walking the segments."""
    if not 0.0 <= t < sig.t_end:
        raise DisturbanceRangeError(f"t = {t} outside defined range [0, {sig.t_end})")
    return next(i for i, seg in enumerate(sig.segments)
                if seg.t_start <= t < seg.t_end)


def signal_value(sig, t):
    """f(t) as an (m,) array, from the closed forms of the segment that
    holds t."""
    return segment_value(sig, segment_of(sig, t), t)


def segment_value(sig, idx, t):
    """f at time t from the closed forms of segment idx, continued past the
    segment's ends, as an (m,) array; at an array of times, a (len(t), m)
    array.  What an integrator that must not see the jump at a join
    evaluates."""
    forms = sig.segments[idx].forms
    if np.ndim(t) == 0:
        return np.array([form_value(f, t) for f in forms])
    t = np.asarray(t).tolist()
    return np.array([[form_value(f, ti) for ti in t] for f in forms], dtype=float).T


_MASK = (1 << 64) - 1


def rotl(x, k):
    """x rotated left by k bits, as a 64-bit word."""
    return ((x << k) | (x >> (64 - k))) & _MASK


class ScalarXoshiro(Xoshiro256StarStar):
    """xoshiro256** stepped one draw at a time on Python integers: the
    reference route that the published test vectors pin, and the oracle of
    rng.symmetric_tables."""

    @classmethod
    def from_state(cls, state):
        gen = cls.__new__(cls)
        gen._s = list(state)
        return gen

    def next_u64(self):
        s0, s1, s2, s3 = self._s
        out = (rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = [s0, s1, s2, rotl(s3, 45)]
        return out

    def uniform(self):
        # top 53 bits -> [0, 1); every representable output is exact
        return (self.next_u64() >> 11) * 2.0 ** -53

    def symmetric(self, halfwidth):
        """Uniform draw in [-halfwidth, halfwidth]."""
        return (2.0 * self.uniform() - 1.0) * halfwidth


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
