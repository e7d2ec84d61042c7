"""Closed-loop spectral analysis.

The simulator runs each law as a controllers.Loop, the closed loop on the
lifted state [x; s[k-1]; s[k-2]; u[k-1]; u[k-2]].  stability_over_T builds
the four Loops of each period, from one surface design and the period's
contraction target alpha (the rate beta held fixed in time, alpha from
controllers.contraction_alpha), and reads every figure from them: the
radius of each kind, and the distance of the mm1/mm2 spectra from their
analytic clusters.

The paper writes the same loop in normal coordinates as the augmented
recursion psi[k+1] = A_aug psi[k] + d_aug[k] of (reduced motion xi,
surface s, controller memory).  Two variants:

  aug1 (first-order estimator, kinds m1/mm1):  psi = [xi; s; w],
       w[k] = T s_gain u[k];  dim n + m.
  aug2 (second-order estimator, kinds m2/mm2): psi = [xi; s; s[k-1]; w; w[k-1]],
       dim n + 3m.

A_aug (build_aug) is block [[xi_step, T N_x], [T N_s, memory_block]], and
charpoly(Loop.A) = lambda^extra charpoly(A_aug); the tests hold the Loop
to it.  The memory block has characteristic polynomial lambda^m
(lambda-alpha)^m (aug1) resp. lambda^{3m} (lambda-alpha)^m (aug2) for any
coupling and any T - verified here through characteristic-polynomial
coefficients because the zero eigenvalues of the aug2 block are defective
(Jordan blocks of size 3) and generic eigensolvers scatter them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import LAWS, Loop, closed_loop, contraction_alpha, law_taps
from .discretization import discretize
from .errors import ConfigError
from .surface import SurfaceDesign, build_surface


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


def build_aug(design: SurfaceDesign, alpha: float, variant: str) -> np.ndarray:
    """A_aug of one design at contraction target alpha: the paper's form of
    a law's closed loop, which the tests hold the Loop to; no command
    reads it."""
    T, a = design.T, alpha
    M = design.annihilator
    disc = design.disc
    n_m = M.shape[0]
    m = design.s_gain.shape[0]
    mem = memory_block(a, T, design.drift_from_s, variant)
    # memory -> xi: reduced motion is fed by s and by the held input, the
    # latter reaching xi only through the input curvature since M B = 0
    feed_s = M @ disc.drift_rate @ design.base.from_s
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
    return np.block([[design.xi_step, T * N_x], [T * N_s, mem]])


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
    # distance of the mm1 (aug1) and mm2 (aug2) spectra from their
    # well-conditioned clusters (references away from the defective zero
    # group)
    conditioned_dist_aug1: float
    conditioned_dist_aug2: float
    # spectral radius of the simulated closed loop (controllers.Loop.rho)
    # per kind; m1/m2 run at alpha = 0
    rho_cl: dict
    # drift_from_s of the period's design, the memory block's coupling
    coupling: np.ndarray

    @property
    def rho_aug1(self) -> float:
        """Radius of the first-order contraction law (mm1) at alpha."""
        return self.rho_cl["mm1"]

    @property
    def rho_aug2(self) -> float:
        """Radius of the second-order contraction law (mm2) at alpha."""
        return self.rho_cl["mm2"]

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


def _conditioned_distance(loop: Loop, design: SurfaceDesign, alpha: float) -> float:
    """Hausdorff-style distance from loop.eigvals to the analytic reference
    eig(xi_step) union {alpha x m} union {0 x rest}, over the eigenvalues
    matched to nonzero references only: the zero group is defective, so
    its perturbation order is structurally lower and its distance is
    rounding noise of the eigensolver."""
    m = design.s_gain.shape[0]
    xi = np.linalg.eigvals(design.xi_step)
    ref = np.concatenate([xi, np.full(m, alpha + 0j),
                          np.zeros(len(loop.A) - len(xi) - m, dtype=complex)])
    d_cond = 0.0
    for lam in loop.eigvals:
        j = int(np.argmin(np.abs(lam - ref)))
        if abs(ref[j]) > 1e-9:
            d_cond = max(d_cond, float(abs(lam - ref[j])))
    return d_cond


def stability_over_T(plant, H, T_list, beta) -> StabilityReport:
    """Spectral radius of every kind's simulated closed loop per period,
    and the cluster distances of the mm1/mm2 loops, from one surface design
    per period, with the contraction rate beta held fixed in time (alpha =
    1 - beta T per period); raises AssumptionViolation at the first period,
    in increasing order, whose sampled coupling is singular."""
    rows = []
    for T in sorted(T_list):
        disc = discretize(plant, T)
        design = build_surface(plant, disc, H)
        alpha = contraction_alpha(T, beta=beta)
        loops = {kind: closed_loop(design, law_taps(design, alpha, kind))
                 for kind in LAWS}
        rows.append(StabilityRow(
            T=T, alpha=alpha, cond=design.s_gain_cond,
            conditioned_dist_aug1=_conditioned_distance(loops["mm1"], design, alpha),
            conditioned_dist_aug2=_conditioned_distance(loops["mm2"], design, alpha),
            rho_cl={kind: loop.rho for kind, loop in loops.items()},
            coupling=design.drift_from_s))
    certified = [r.T for r in rows if r.certified]
    return StabilityReport(rows=tuple(rows),
                           largest_certified=max(certified) if certified else None)
