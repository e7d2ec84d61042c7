"""Closed-loop spectral analysis.

The closed loop of (reduced motion xi, surface s, controller memory) is a
linear recursion psi[k+1] = A_aug psi[k] + d_aug[k].  Two variants:

  aug1 (first-order estimator, kinds m1/mm1):  psi = [xi; s; w],
       w[k] = T s_gain u[k];  dim n + m.
  aug2 (second-order estimator, kinds m2/mm2): psi = [xi; s; s[k-1]; w; w[k-1]],
       dim n + 3m.

A_aug is block [[xi_step, T N_x], [T N_s, memory_block]].  The memory block
has characteristic polynomial lambda^m (lambda-alpha)^m (aug1) resp.
lambda^{3m} (lambda-alpha)^m (aug2) for any coupling and any T - verified
here through characteristic-polynomial coefficients because the zero
eigenvalues of the aug2 block are defective (Jordan blocks of size 3) and
generic eigensolvers scatter them.

The simulator runs each law as a controllers.Loop, a second derivation
on the lifted state [x; s[k-1]; s[k-2]; u[k-1]; u[k-2]]; its
characteristic polynomial is lambda^extra times that of A_aug, and
stability_over_T reports the Loop's radius for every kind, from one
surface design per period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import (DEADBEAT, LAWS, GainSet, closed_loop, law_taps,
                          make_gains, spectral_radius)
from .discretization import DisturbanceSampler, discretize
from .errors import ConfigError
from .surface import SurfaceDesign, build_surface

VARIANTS = ("aug1", "aug2")


def variant_for_kind(kind: str) -> str:
    return "aug1" if kind in ("m1", "mm1", "eq") else "aug2"


# ---------------------------------------------------------------------------
# block assembly

def memory_block(alpha: float, T: float, coupling: np.ndarray, variant: str) -> np.ndarray:
    """Controller-memory transition block; coupling is the m x m surface
    drift term (drift_from_s in a real design, arbitrary in the spectrum
    sweeps)."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    m = coupling.shape[0]
    I = np.eye(m)
    step = I + T * coupling              # one-step surface factor
    decay = (1.0 - alpha) * I + T * coupling
    if variant == "aug1":
        return np.block([[step, I],
                         [-decay @ step, -decay]])
    if variant == "aug2":
        Z = np.zeros((m, m))
        r31 = -(-alpha * I + (2.0 - alpha) * T * coupling
                + T ** 2 * coupling @ coupling)
        return np.block([[step, Z, I, Z],
                         [I, Z, Z, Z],
                         [r31, -step, -decay, -I],
                         [Z, Z, I, Z]])
    raise ConfigError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class AugmentedSystem:
    variant: str
    A_aug: np.ndarray
    xi_step: np.ndarray
    gains: GainSet
    design: SurfaceDesign

    def disturbance_vector(self, d_xi: np.ndarray, d_s: np.ndarray) -> np.ndarray:
        """Assemble the augmented disturbance from the projections of d[k]:
        d_xi = M d[k], d_s = H C d[k]."""
        a, T = self.gains.alpha, self.gains.T
        m = d_s.shape[0]
        I = np.eye(m)
        cpl = self.gains.drift_from_s
        if self.variant == "aug1":
            tail = -(((2.0 - a) * I + T * cpl) @ d_s)
            return np.concatenate([d_xi, d_s, tail])
        tail = -(((3.0 - a) * I + T * cpl) @ d_s)
        z = np.zeros(m)
        return np.concatenate([d_xi, d_s, z, tail, z])


def build_aug(design: SurfaceDesign, gains: GainSet, variant: str) -> AugmentedSystem:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if abs(gains.T - design.T) > 1e-15:
        raise ConfigError("gains and design disagree on T")
    T, a = gains.T, gains.alpha
    M = design.annihilator
    disc = design.disc
    n_m = M.shape[0]
    m = design.s_gain.shape[0]
    mem = memory_block(a, T, design.drift_from_s, variant)
    # memory -> xi: reduced motion is fed by s and by the held input, the
    # latter reaching xi only through the input curvature since M B = 0
    feed_s = M @ disc.drift_rate @ design.from_s
    feed_w = M @ disc.input_curvature @ design.s_gain_inv
    cx1 = design.drift_from_xi
    if variant == "aug1":
        N_x = np.hstack([feed_s, feed_w])
        N_s = np.vstack([cx1, -(((2.0 - a) * np.eye(m) + T * design.drift_from_s) @ cx1)])
    else:
        Zx = np.zeros((n_m, m))
        Zs = np.zeros((m, n_m))
        N_x = np.hstack([feed_s, Zx, feed_w, Zx])
        N_s = np.vstack([cx1, Zs,
                         -(((3.0 - a) * np.eye(m) + T * design.drift_from_s) @ cx1), Zs])
    A_aug = np.block([[design.xi_step, T * N_x], [T * N_s, mem]])
    return AugmentedSystem(variant=variant, A_aug=A_aug, xi_step=design.xi_step,
                           gains=gains, design=design)


# ---------------------------------------------------------------------------
# characteristic polynomial via the Faddeev-LeVerrier recursion: exact in
# exact arithmetic, and in floats it avoids the eigensolver's scattering of
# defective eigenvalues

def charpoly(A: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    Mk = np.zeros_like(A)
    for k in range(1, n + 1):
        Mk = A @ Mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ Mk) / k
    return coeffs


def _expected_memory_charpoly(alpha: float, m: int, variant: str) -> np.ndarray:
    """lambda^{zeros} (lambda - alpha)^m, expanded."""
    poly = np.array([1.0])
    for _ in range(m):
        poly = np.convolve(poly, [1.0, -alpha])
    zeros = m if variant == "aug1" else 3 * m
    return np.concatenate([poly, np.zeros(zeros)])


@dataclass(frozen=True)
class SpectrumReport:
    variant: str
    m: int
    alpha: float
    T: float
    coeffs: np.ndarray
    expected: np.ndarray
    max_coeff_error: float

    def ok(self, tol: float = 1e-8) -> bool:
        return self.max_coeff_error <= tol


def check_memory_spectrum(alpha: float, T: float, coupling, variant: str) -> SpectrumReport:
    """Verify the memory block's spectrum is {alpha x m, 0 x rest} for any
    coupling, by characteristic-polynomial coefficient comparison."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    m = coupling.shape[0]
    block = memory_block(alpha, T, coupling, variant)
    coeffs = charpoly(block)
    expected = _expected_memory_charpoly(alpha, m, variant)
    # normalize by the largest coefficient so the check is scale-free
    err = float(np.max(np.abs(coeffs - expected)) / max(1.0, np.max(np.abs(expected))))
    return SpectrumReport(variant=variant, m=m, alpha=alpha, T=T,
                          coeffs=coeffs, expected=expected, max_coeff_error=err)


# ---------------------------------------------------------------------------
# stability across sampling periods

@dataclass(frozen=True)
class StabilityRow:
    T: float
    alpha: float
    cond: float           # condition number of the sampled coupling (s_gain_cond)
    rho_aug1: float
    rho_aug2: float
    cluster_dist_aug1: float
    cluster_dist_aug2: float
    # same distances over the well-conditioned clusters only (references
    # away from the defective zero group of the aug2 memory block)
    conditioned_dist_aug1: float
    conditioned_dist_aug2: float
    # spectral radius of the simulated closed loop (controllers.Loop.rho)
    # per kind; m1/m2 run at alpha = 0, which neither augmented variant covers
    rho_cl: dict
    # drift_from_s of the period's design, the memory block's coupling
    coupling: np.ndarray

    @property
    def certified(self) -> bool:
        return self.rho_aug1 < 1.0 and self.rho_aug2 < 1.0


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple
    largest_certified: float | None

    @property
    def all_certified(self) -> bool:
        return all(r.certified for r in self.rows)


def _cluster_distances(aug: AugmentedSystem):
    """Hausdorff-style distance from eig(A_aug) to the analytic reference
    eig(xi_step) union {alpha, 0}.  Second value restricts to eigenvalues
    matched to nonzero references: the zero group of the aug2 memory block
    is defective, so its perturbation order is structurally lower."""
    a = aug.gains.alpha
    m = aug.gains.s_gain.shape[0]
    zeros = m if aug.variant == "aug1" else 3 * m
    ref = np.concatenate([np.linalg.eigvals(aug.xi_step),
                          np.full(m, a + 0j), np.zeros(zeros, dtype=complex)])
    d_all = d_cond = 0.0
    for lam in np.linalg.eigvals(aug.A_aug):
        j = int(np.argmin(np.abs(lam - ref)))
        d = float(abs(lam - ref[j]))
        d_all = max(d_all, d)
        if abs(ref[j]) > 1e-9:
            d_cond = max(d_cond, d)
    return d_all, d_cond


def stability_over_T(plant, H, T_list, alpha=None, beta=None) -> StabilityReport:
    """Spectral radii of both augmented variants and of every kind's
    simulated closed loop per period, from one surface design per period;
    raises AssumptionViolation at the first period, in increasing order,
    whose sampled coupling is singular.  With beta given, alpha is
    recomputed per T (fixed contraction rate in time); with alpha given it
    is held constant."""
    if alpha is None and beta is None:
        raise ConfigError("need alpha or beta")
    rows = []
    for T in sorted(T_list):
        disc = discretize(plant, T)
        design = build_surface(plant, disc, H)
        gains = make_gains(design, alpha=alpha, beta=beta if alpha is None else None)
        a1 = build_aug(design, gains, "aug1")
        a2 = build_aug(design, gains, "aug2")
        dist1, cdist1 = _cluster_distances(a1)
        dist2, cdist2 = _cluster_distances(a2)
        rows.append(StabilityRow(
            T=T, alpha=gains.alpha, cond=design.s_gain_cond,
            rho_aug1=spectral_radius(a1.A_aug), rho_aug2=spectral_radius(a2.A_aug),
            cluster_dist_aug1=dist1, cluster_dist_aug2=dist2,
            conditioned_dist_aug1=cdist1, conditioned_dist_aug2=cdist2,
            rho_cl={kind: closed_loop(design, law_taps(gains, kind)).rho
                    for kind in LAWS},
            coupling=design.drift_from_s))
    certified = [r.T for r in rows if r.certified]
    return StabilityReport(rows=tuple(rows),
                           largest_certified=max(certified) if certified else None)


# ---------------------------------------------------------------------------
# augmented recursion vs direct simulation

def augmented_vs_direct(design: SurfaceDesign, gains: GainSet, variant: str,
                        scenario) -> float:
    """Run the closed loop both as the plant recursion + controller and as
    the augmented recursion driven by ground-truth disturbance projections;
    return the max state deviation.  The two are algebraically identical, so
    this validates the block assembly."""
    from .simulate import run  # local import: simulator depends on us for nothing

    kind = scenario.kind
    want = variant_for_kind(kind)
    if want != variant:
        raise ConfigError(f"kind {kind!r} pairs with {want}, not {variant}")
    if scenario.noise.kind != "none" and scenario.noise.halfwidth != 0.0:
        raise ConfigError("equivalence check requires a noise-free scenario")
    # deadbeat baselines run the recursions at alpha = 0; the augmented
    # matrix must be assembled with the same effective alpha
    if kind in DEADBEAT and gains.alpha != 0.0:
        gains = make_gains(design, alpha=0.0)
    traj = run(scenario)
    M, H, C = design.annihilator, design.H, design.plant.C
    hc = H @ C
    T = gains.T
    steps = traj.x.shape[0] - 1
    dk = DisturbanceSampler(design.plant, T, scenario.disturbance).table(0, steps)
    xi = traj.x @ M.T
    s = traj.s_true
    w = traj.u @ (T * design.s_gain).T
    aug = build_aug(design, gains, variant)
    if variant == "aug1":
        psi = np.concatenate([xi[0], s[0], w[0]])
        k0 = 0
    else:
        if steps < 1:
            raise ConfigError("need at least one step")
        # seeded one sample in: by then the delayed history slots hold real
        # values and the recursion is exact
        psi = np.concatenate([xi[1], s[1], s[0], w[1], w[0]])
        k0 = 1
    dev = 0.0
    for k in range(k0, steps):
        d = dk[k]
        psi = aug.A_aug @ psi + aug.disturbance_vector(M @ d, hc @ d)
        if variant == "aug1":
            ref = np.concatenate([xi[k + 1], s[k + 1], w[k + 1]])
        else:
            ref = np.concatenate([xi[k + 1], s[k + 1], s[k], w[k + 1], w[k]])
        dev = max(dev, float(np.max(np.abs(psi - ref))))
    return dev
