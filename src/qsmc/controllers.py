"""Discrete-time surface-feedback control laws.

All laws steer the switching vector toward the contraction target
s[k+1] = alpha s[k] with alpha = 1 - beta T.  Writing gain = s_gain_inv and
cpl = drift_from_s, the ideal (non-causal) law is

    u[k] = -(1/T) gain (((1-alpha) I + T cpl) s[k] + g[k]),

where g[k] collects the terms the controller cannot see (reduced-motion
coupling plus the sampled disturbance through the surface).  The
implementable laws replace g[k] by delayed reconstructions:

    first-order  (mm1):  g[k] ~ g[k-1]            -> residual O(T^2)
    second-order (mm2):  g[k] ~ 2 g[k-1] - g[k-2] -> residual O(T^3)

Folding the reconstruction into the law gives recursions in (s, u) history
alone.  Every law is built once as its taps (law_taps): the coefficients of
u[k] = sum_i K_i s[k-i] + sum_j C_j u[k-j].  The folded ("recursive") taps
and the explicit ("estimate") taps, composed from the equivalent-control
lead and the reconstruction matrices, are derived independently and agree
to rounding.  The deadbeat baselines m1/m2 are the
same recursions evaluated at alpha = 0 (target s[k+1] = 0); their gain
grows like 1/T, which is the behavior the contraction target removes.
closed_loop turns a law's taps and the plant into one Loop value: the
closed-loop recursion that the simulator runs and whose spectral radius
the stability analysis reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .surface import SurfaceDesign

# the implementable laws; eq is an oracle that reads the true g[k]
LAWS = ("m1", "m2", "mm1", "mm2")
KINDS = ("eq",) + LAWS
# deadbeat baselines run the same recursions at alpha = 0
DEADBEAT = ("m1", "m2")
FORMS = ("recursive", "estimate")

# first sample index at which each law may emit a nonzero input; earlier
# samples output zero while history fills
WARMUP = {"eq": 1, "m1": 1, "mm1": 1, "m2": 2, "mm2": 2}


@dataclass(frozen=True)
class GainSet:
    """Contraction parameters bound to one surface design."""
    T: float
    alpha: float
    beta: float
    s_gain: np.ndarray        # H C input_rate
    gain: np.ndarray          # its inverse
    drift_from_xi: np.ndarray
    drift_from_s: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in [0, 1), got {self.alpha}")
        if abs((1.0 - self.alpha) - self.beta * self.T) > 1e-12:
            raise ConfigError(
                f"alpha/beta inconsistent: 1 - alpha = {1 - self.alpha}, "
                f"beta T = {self.beta * self.T}")


def make_gains(design: SurfaceDesign, alpha: float | None = None,
               beta: float | None = None) -> GainSet:
    """Derive the missing one of (alpha, beta) from 1 - alpha = beta T; if
    both are given they must already satisfy the identity."""
    T = design.T
    if alpha is None and beta is None:
        raise ConfigError("need alpha or beta")
    if alpha is None:
        alpha = 1.0 - beta * T
    elif beta is None:
        beta = (1.0 - alpha) / T
    return GainSet(T=T, alpha=float(alpha), beta=float(beta),
                   s_gain=design.s_gain, gain=design.s_gain_inv,
                   drift_from_xi=design.drift_from_xi,
                   drift_from_s=design.drift_from_s)


# ---------------------------------------------------------------------------
# primitive laws, each also available as the matrices that evaluate it

def _eq_terms(gains: GainSet, alpha: float):
    """equivalent_control as (lead, E): u[k] = lead s[k] + E g[k]."""
    T = gains.T
    m = gains.s_gain.shape[0]
    E = -(1.0 / T) * gains.gain
    return E @ ((1.0 - alpha) * np.eye(m) + T * gains.drift_from_s), E


def _reconstruction(gains: GainSet):
    """reconstruct_g_prev as (R0, R1, Ru):
    g[k-1] = R0 s[k] + R1 s[k-1] + Ru u[k-1]."""
    T = gains.T
    m = gains.s_gain.shape[0]
    return np.eye(m), -(np.eye(m) + T * gains.drift_from_s), -T * gains.s_gain


def equivalent_control(gains: GainSet, s_k: np.ndarray, g_k: np.ndarray) -> np.ndarray:
    """Ideal law given the true g[k]; oracle/analysis use only (g[k] is not
    available online).  With the exact g the surface contracts exactly:
    s[k+1] = alpha s[k]."""
    lead, E = _eq_terms(gains, gains.alpha)
    return lead @ s_k + E @ g_k


def reconstruct_g_prev(gains: GainSet, s_k, s_km1, u_km1) -> np.ndarray:
    """Exact g[k-1] from observed history: algebraic inversion of the
    one-step surface update."""
    R0, R1, Ru = _reconstruction(gains)
    return R0 @ s_k + R1 @ s_km1 + Ru @ u_km1


# ---------------------------------------------------------------------------
# control laws as taps

# weights of the delayed reconstructions in each law's estimate of g[k]
_EXTRAPOLATION = {"m1": (1.0,), "mm1": (1.0,), "m2": (2.0, -1.0), "mm2": (2.0, -1.0)}


@dataclass(frozen=True)
class LawTaps:
    """One control law as coefficients:

        u[k] = sum_i K[i] s[k-i] + sum_j C[j-1] u[k-j] (+ K_g g[k], eq only)

    for k >= warmup, and u[k] = 0 before.  closed_loop splits the eq
    oracle's g[k] = T drift_from_xi xi[k] + H C d[k] into taps on x[k] and
    d[k]."""
    K: tuple
    C: tuple
    warmup: int
    K_g: np.ndarray | None = None


def law_taps(gains: GainSet, kind: str, form: str = "recursive") -> LawTaps:
    """Taps of one law.  The recursive form is the hand-folded recursion;
    the estimate form is composed from the equivalent-control lead and the
    reconstruct_g_prev matrices, so the two are independent derivations
    that agree to rounding."""
    if kind not in KINDS:
        raise ConfigError(f"unknown controller kind {kind!r}")
    if form not in FORMS:
        raise ConfigError(f"unknown controller form {form!r}")
    a = 0.0 if kind in DEADBEAT else gains.alpha
    if kind == "eq":
        lead, E = _eq_terms(gains, a)
        return LawTaps((lead,), (), WARMUP[kind], K_g=E)
    m = gains.s_gain.shape[0]
    if form == "recursive":
        I = np.eye(m)
        cpl = gains.T * gains.drift_from_s
        E = -(1.0 / gains.T) * gains.gain
        if kind in ("m1", "mm1"):
            K = (E @ ((2.0 - a) * I + cpl), -E @ (I + cpl))
            C = (I,)
        else:
            K = (E @ ((3.0 - a) * I + cpl), -E @ (3.0 * I + 2.0 * cpl),
                 E @ (I + cpl))
            C = (2.0 * I, -I)
        return LawTaps(K, C, WARMUP[kind])
    # estimate: u[k] = lead s[k] + E sum_j w_j g[k-j], each g[k-j] rebuilt
    # from (s[k-j+1], s[k-j], u[k-j])
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


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def lifted_slices(n: int, m: int) -> tuple:
    """Where x, s[k-1], s[k-2], u[k-1] and u[k-2] sit in the lifted state."""
    return (slice(0, n), slice(n, n + m), slice(n + m, n + 2 * m),
            slice(n + 2 * m, n + 3 * m), slice(n + 3 * m, n + 4 * m))


@dataclass(frozen=True)
class Loop:
    """One law's closed loop as a linear recursion on the lifted state

        psi[k] = [x[k], s[k-1], s[k-2], u[k-1], u[k-2]]      (n + 4m)
        psi[k+1] = A psi[k] + B_d d[k] + B_v v[k],

    where s[k] = H (C x[k] + v[k]) is the measured switching vector and v[k]
    the measurement noise.  psi[k+1] carries s[k] and u[k], the sample-k
    values a run logs.  taps is None for the loop with the law rows zeroed
    (u[k] = 0), which the warm-up samples follow."""
    taps: LawTaps | None
    A: np.ndarray
    B_d: np.ndarray
    B_v: np.ndarray

    @cached_property
    def rho(self) -> float:
        """Spectral radius of A, computed on first read."""
        return spectral_radius(self.A)


def closed_loop(design: SurfaceDesign, taps: LawTaps | None = None) -> Loop:
    """The Loop of one law's taps on one surface design; with taps None
    the law rows are zeroed."""
    disc, H, C = design.disc, design.H, design.plant.C
    m, p = H.shape
    n = C.shape[1]
    hc = H @ C
    N = n + 4 * m
    xs, s1, s2, u1, u2 = lifted_slices(n, m)
    A = np.zeros((N, N))
    A[xs, xs] = disc.state_map
    A[s1, xs] = hc                       # s[k] = H C x[k] + H v[k]
    A[s2, s1] = np.eye(m)
    A[u2, u1] = np.eye(m)
    B_d = np.zeros((N, n))
    B_d[xs] = np.eye(n)
    B_v = np.zeros((N, p))
    B_v[s1] = H
    if taps is None:
        return Loop(None, A, B_d, B_v)
    # u[k] = law psi[k] + law_d d[k] + law_v v[k], fed to u[k]'s row and,
    # through input_map, to x[k+1]
    law = np.zeros((m, N))
    law[:, xs] = taps.K[0] @ hc
    for K, cols in zip(taps.K[1:], (s1, s2)):
        law[:, cols] = K
    for Cj, cols in zip(taps.C, (u1, u2)):
        law[:, cols] = Cj
    law_d = np.zeros((m, n))
    law_v = taps.K[0] @ H
    if taps.K_g is not None:
        # the eq oracle's g[k] = T drift_from_xi xi[k] + H C d[k], xi = M x
        law[:, xs] += design.T * taps.K_g @ design.drift_from_xi @ design.annihilator
        law_d = taps.K_g @ hc
    feed = np.zeros((N, m))
    feed[xs] = disc.input_map
    feed[u1] = np.eye(m)
    return Loop(taps, A + feed @ law, B_d + feed @ law_d, B_v + feed @ law_v)


# ---------------------------------------------------------------------------
# stateful controllers

@dataclass
class ControllerState:
    """Single-owner mutable controller; sees only the measured switching
    vector, never the plant state.  Evaluates its law's taps one step at a
    time (the simulator evaluates the same taps for many runs at once)."""
    kind: str
    gains: GainSet
    form: str = "recursive"   # recursive | estimate
    k: int = 0
    s_km1: np.ndarray | None = None
    s_km2: np.ndarray | None = None
    u_km1: np.ndarray | None = None
    u_km2: np.ndarray | None = None

    def __post_init__(self):
        self.taps = law_taps(self.gains, self.kind, self.form)
        m = self.gains.s_gain.shape[0]
        zero = np.zeros(m)
        self.s_km1 = zero.copy() if self.s_km1 is None else self.s_km1
        self.s_km2 = zero.copy() if self.s_km2 is None else self.s_km2
        self.u_km1 = zero.copy() if self.u_km1 is None else self.u_km1
        self.u_km2 = zero.copy() if self.u_km2 is None else self.u_km2

    def step(self, s_k: np.ndarray, g_k: np.ndarray | None = None) -> np.ndarray:
        """Consume s[k], emit u[k], advance history.  g_k is accepted only
        by the oracle kind 'eq'."""
        s_k = np.asarray(s_k, dtype=float)
        taps = self.taps
        if self.k < taps.warmup:
            u = np.zeros_like(s_k)
        else:
            u = sum(Ki @ si for Ki, si in zip(taps.K, (s_k, self.s_km1, self.s_km2)))
            u = u + sum(Cj @ uj for Cj, uj in zip(taps.C, (self.u_km1, self.u_km2)))
            if taps.K_g is not None:
                if g_k is None:
                    raise ConfigError("kind 'eq' needs the oracle g[k]")
                u = u + taps.K_g @ g_k
        self.s_km2, self.s_km1 = self.s_km1, s_k
        self.u_km2, self.u_km1 = self.u_km1, u
        self.k += 1
        return u
