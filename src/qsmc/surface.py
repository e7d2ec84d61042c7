"""Output-feedback switching surface and normal-form coordinates.

The switching function is s = H y = H C x.  An orthonormal annihilator M of
the input matrix (M B = 0) completes H C to the change of basis

    [xi; s] = to_normal x,    to_normal = [M; H C],

whose inverse splits into [from_xi, from_s].  In these coordinates the
surface motion s and the reduced motion xi decouple up to O(T) terms; the
reduced-motion matrix zero_dynamics = M A from_xi carries the plant's
invariant zeros plus the surface-assigned eigenvalues.  build_surface
makes the design of one period T; a ladder of periods is one design each
(analysis.stability_over_T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .errors import AssumptionViolation, ConfigError
from .discretization import DiscretePlant
from .plant import ContinuousPlant

_COND_LIMIT = 1e12


def input_annihilator(B: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the left null space of B, deterministically
    oriented: first significant entry of each row positive, rows sorted
    lexicographically.  Any such basis works; pinning one makes runs
    reproducible."""
    rows = null_space(B.T).T
    if rows.size == 0:
        raise ConfigError("input matrix has no left null space (m >= n?)")
    fixed = []
    for r in rows:
        lead = np.argmax(np.abs(r) > 1e-12 * np.max(np.abs(r)))
        fixed.append(-r if r[lead] < 0 else r)
    fixed.sort(key=lambda r: tuple(r))
    return np.array(fixed)


@dataclass(frozen=True)
class NormalForm:
    """Sampling-period-free part of the surface design."""
    H: np.ndarray
    annihilator: np.ndarray   # M, (n-m) x n, M B = 0
    to_normal: np.ndarray     # [M; H C]
    from_xi: np.ndarray       # first n-m columns of to_normal^-1
    from_s: np.ndarray        # last m columns
    zero_dynamics: np.ndarray  # M A from_xi


def build_surface_raw(plant: ContinuousPlant, H, annihilator=None) -> NormalForm:
    H = np.atleast_2d(np.asarray(H, dtype=float))
    m, p, n = plant.m, plant.p, plant.n
    if H.shape != (m, p):
        raise ConfigError(f"H must be {m}x{p}, got {H.shape[0]}x{H.shape[1]}")
    hcb = H @ plant.C @ plant.B
    scale = np.linalg.norm(H, 2) * np.linalg.norm(plant.C, 2) * np.linalg.norm(plant.B, 2)
    if _smallest_sv(hcb) <= 1e-12 * max(scale, 1e-300) or np.linalg.cond(hcb) > _COND_LIMIT:
        raise AssumptionViolation(
            "H C B is singular: the surface design requires an invertible "
            "output-to-input coupling")
    M = input_annihilator(plant.B) if annihilator is None else np.asarray(annihilator, float)
    to_normal = np.vstack([M, H @ plant.C])
    if np.linalg.cond(to_normal) > _COND_LIMIT:
        raise AssumptionViolation(
            "normal-form transformation [M; H C] is singular; H does not "
            "complete the annihilator to a basis")
    inv = np.linalg.inv(to_normal)
    from_xi, from_s = inv[:, :n - m], inv[:, n - m:]
    return NormalForm(H=H, annihilator=M, to_normal=to_normal,
                      from_xi=from_xi, from_s=from_s,
                      zero_dynamics=M @ plant.A @ from_xi)


def _smallest_sv(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


@dataclass(frozen=True)
class SurfaceDesign:
    """Normal form plus the discretization-linked blocks for one period T."""
    plant: ContinuousPlant
    disc: DiscretePlant
    base: NormalForm
    drift_from_xi: np.ndarray   # H C drift_rate from_xi, m x (n-m)
    drift_from_s: np.ndarray    # H C drift_rate from_s, m x m
    s_gain: np.ndarray          # H C input_rate, m x m
    s_gain_inv: np.ndarray
    s_gain_cond: float
    xi_step: np.ndarray         # I + T M drift_rate from_xi

    # convenience pass-throughs
    @property
    def H(self):
        return self.base.H

    @property
    def annihilator(self):
        return self.base.annihilator

    @property
    def from_s(self):
        return self.base.from_s

    @property
    def T(self):
        return self.disc.T


def build_surface(plant: ContinuousPlant, disc: DiscretePlant, H,
                  annihilator=None) -> SurfaceDesign:
    """Assemble the full design for one sampling period.

    Raises AssumptionViolation if H C B or the sampled coupling H C
    input_rate is not invertible (condition number above 1e12, or smallest
    singular value at rounding level relative to the factors' scale)."""
    base = build_surface_raw(plant, H, annihilator=annihilator)
    hc = base.H @ plant.C
    s_gain = hc @ disc.input_rate
    scale = (np.linalg.norm(base.H, 2) * np.linalg.norm(plant.C, 2)
             * np.linalg.norm(disc.input_rate, 2))
    cond = float(np.linalg.cond(s_gain))
    # name the test that fired: a 1x1 coupling has cond 1 however small it is
    relative = _smallest_sv(s_gain) / max(scale, 1e-300)
    if relative <= 1e-12:
        raise AssumptionViolation(
            f"sampled surface-to-input coupling is singular at T = {disc.T} "
            f"(smallest singular value {relative:.3e} of |H| |C| |input_rate|)")
    if cond > _COND_LIMIT:
        raise AssumptionViolation(
            f"sampled surface-to-input coupling is singular at T = {disc.T} "
            f"(cond = {cond:.3e})")
    n, m = plant.n, plant.m
    return SurfaceDesign(
        plant=plant, disc=disc, base=base,
        drift_from_xi=hc @ disc.drift_rate @ base.from_xi,
        drift_from_s=hc @ disc.drift_rate @ base.from_s,
        s_gain=s_gain,
        s_gain_inv=np.linalg.inv(s_gain),
        s_gain_cond=cond,
        xi_step=np.eye(n - m) + disc.T * (base.annihilator @ disc.drift_rate @ base.from_xi),
    )
