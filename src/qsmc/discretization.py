"""Zero-order-hold discretization and sampled disturbances.

For a period T the exact sample-to-sample model is

    x[k+1] = state_map x[k] + input_map u[k] + d[k],

with state_map = exp(AT), input_map the held-input integral, and d[k] the
disturbance carried across one interval.  Alongside the exact pair we keep
the O(T)-expansion matrices

    drift_rate      = (state_map - I) / T          (-> A as T -> 0)
    drift_curvature = (state_map - I - T A) / T^2  (bounded as T -> 0)
    input_rate      = input_map / T                (-> B)
    input_curvature = (input_map - T B) / T^2      (bounded)

which the control laws and the closed-loop analysis are written in terms of.

d[k] is exact as well: every disturbance form is the output of a small
linear exosystem, so the integral over a sample is one block matrix
exponential (see DisturbanceSampler).  Adaptive quadrature, Simpson and RK4
are independent routes kept in the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, expm

from .errors import ConfigError, DisturbanceRangeError
from .plant import ContinuousPlant, DisturbanceSignal

# split guard: a segment boundary closer than this (in seconds) to either end
# of a sample interval is not split at; the sample is taken as lying wholly
# in the segment that holds its midpoint
_EDGE = 1e-13


@dataclass(frozen=True)
class DiscretePlant:
    T: float
    state_map: np.ndarray        # exp(A T)
    input_map: np.ndarray        # int_0^T exp(A tau) dtau B
    drift_rate: np.ndarray
    drift_curvature: np.ndarray
    input_rate: np.ndarray
    input_curvature: np.ndarray


def discretize(plant: ContinuousPlant, T: float) -> DiscretePlant:
    """Exact ZOH discretization via the block matrix exponential.

    exp([[A, B], [0, 0]] T) carries exp(AT) in the top-left block and the
    held-input integral in the top-right, both to machine precision; no
    quadrature is involved for the linear part.
    """
    if not T > 0:
        raise ConfigError(f"sampling period must be positive, got {T}")
    n, m = plant.n, plant.m
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = plant.A
    blk[:n, n:] = plant.B
    e = expm(blk * T)
    state_map = e[:n, :n]
    input_map = e[:n, n:]
    # subtract I first, then T A: limits cancellation for small T
    sm_minus_i = state_map - np.eye(n)
    return DiscretePlant(
        T=T,
        state_map=state_map,
        input_map=input_map,
        drift_rate=sm_minus_i / T,
        drift_curvature=(sm_minus_i - T * plant.A) / T ** 2,
        input_rate=input_map / T,
        input_curvature=(input_map - T * plant.B) / T ** 2,
    )


class DisturbanceSampler:
    """Exact d[k] = int_{kT}^{(k+1)T} exp(A ((k+1)T - t)) B f(t) dt.

    On one segment every channel form is the output of a linear exosystem,
    f = E z with z' = S z, so (Van Loan, IEEE TAC 1978)

        int_0^h exp(A (h - s)) B f(a + s) ds
            = [expm([[A, B E], [0, S]] h)]_12 z(a).

    The top-right block at h = T is one gain per segment, computed here
    once; a sample inside segment j is then d[k] = G_j z_j(kT).  A sample
    that straddles a segment boundary is split there: each piece gets its
    own block exponential and is carried to the end of the sample by
    exp(A (t1 - b)).  Quadrature survives only as a test oracle.
    """

    def __init__(self, plant: ContinuousPlant, T: float, sig: DisturbanceSignal):
        if not T > 0:
            raise ConfigError(f"sampling period must be positive, got {T}")
        if sig.m != plant.m:
            raise ConfigError(
                f"disturbance has {sig.m} channels, plant has {plant.m} inputs")
        self.plant = plant
        self.T = T
        self.sig = sig
        self._starts = np.array([seg.t_start for seg in sig.segments])
        self._exo = []
        for seg in sig.segments:
            S = block_diag(*(f.exo_S for f in seg.forms))
            E = block_diag(*(np.reshape(f.exo_E, (1, -1)) for f in seg.forms))
            self._exo.append((S, E) if S.size else None)
        self._gain = [self._block(j, T) for j in range(len(self._exo))]

    def _block(self, j: int, h: float):
        """[expm([[A, B E_j], [0, S_j]] h)]_12, or None for a zero segment."""
        if self._exo[j] is None:
            return None
        S, E = self._exo[j]
        n, q = self.plant.n, S.shape[0]
        blk = np.zeros((n + q, n + q))
        blk[:n, :n] = self.plant.A
        blk[:n, n:] = self.plant.B @ E
        blk[n:, n:] = S
        return expm(blk * h)[:n, n:]

    def _z(self, j: int, t: np.ndarray) -> np.ndarray:
        return np.hstack([f.exo_z(t) for f in self.sig.segments[j].forms])

    def covers(self, k: int) -> bool:
        """Whether the disturbance is defined over all of sample k."""
        return k >= 0 and (k + 1) * self.T <= self.sig.t_end + _EDGE

    def table(self, k0: int, k1: int) -> np.ndarray:
        """d[k0..k1) as the rows of a (k1 - k0, n) array."""
        if k1 < k0:
            raise ConfigError(f"empty sample range [{k0}, {k1})")
        T = self.T
        t0 = np.arange(k0, k1) * T
        t1 = np.arange(k0 + 1, k1 + 1) * T
        outside = np.flatnonzero((t0 < 0) | (t1 > self.sig.t_end + _EDGE))
        if outside.size:
            k = k0 + int(outside[0])
            raise DisturbanceRangeError(
                f"sample {k} covers [{k * T}, {(k + 1) * T}), "
                f"outside [0, {self.sig.t_end})")
        out = np.zeros((k1 - k0, self.plant.n))
        straddle = np.zeros(k1 - k0, dtype=bool)
        for b in self._starts[1:]:
            straddle |= (t1 - b > _EDGE) & (t1 - b < T - _EDGE)
        seg = np.searchsorted(self._starts, t1 - 0.5 * T, side="right") - 1
        for j, gain in enumerate(self._gain):
            rows = np.flatnonzero((seg == j) & ~straddle)
            if gain is not None and rows.size:
                out[rows] = _apply(gain, self._z(j, t0[rows]))
        for i in np.flatnonzero(straddle):
            out[i] = self._split(t0[i], t1[i])
        return out

    def at(self, k: int) -> np.ndarray:
        return self.table(k, k + 1)[0]

    def _split(self, t0: float, t1: float) -> np.ndarray:
        """d over [t0, t1), cut at the segment boundaries inside it."""
        T = self.T
        cuts = [t0] + [b for b in self._starts[1:]
                       if _EDGE < t1 - b < T - _EDGE] + [t1]
        total = np.zeros(self.plant.n)
        for a, b in zip(cuts[:-1], cuts[1:]):
            j = int(np.searchsorted(self._starts, 0.5 * (a + b), side="right")) - 1
            gain = self._block(j, b - a)
            if gain is None:
                continue
            piece = _apply(gain, self._z(j, np.array([a])))[0]
            if b < t1:
                piece = expm(self.plant.A * (t1 - b)) @ piece
            total += piece
        return total


def _apply(gain: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Rows of Z @ gain.T, summed in a fixed order so that a row does not
    depend on how many rows are computed with it."""
    out = np.zeros((Z.shape[0], gain.shape[0]))
    for j in range(gain.shape[1]):
        out += Z[:, j, None] * gain[:, j]
    return out


def matched_residual_split(plant: ContinuousPlant, T: float, sig: DisturbanceSignal,
                           k: int, sampler: DisturbanceSampler | None = None):
    """Split d[k] into the held-input part and the sampling residual.

    matched  = input_map f(kT)   (what a ZOH input equal to f[k] produces)
    residual = d[k] - matched    (first-order small: O(T) relative, O(T^2)
                                  absolute, provided f' is bounded on the
                                  sample interval)
    Returns (matched, residual).
    """
    if sampler is None:
        sampler = DisturbanceSampler(plant, T, sig)
    disc = discretize(plant, T)
    matched = disc.input_map @ sig.value(k * T)
    residual = sampler.at(k) - matched
    return matched, residual


@dataclass(frozen=True)
class DiffReport:
    """Finite-difference growth diagnostics of the sampled disturbance."""
    T: float
    k_range: tuple
    first_diff_max: float    # max_k |d[k] - d[k-1]|, expected O(T^2)
    second_diff_max: float   # max_k |d[k] - 2d[k-1] + d[k-2]|, expected O(T^3)
    first_order: int = 2
    second_order: int = 3
    spans_boundary: bool = False


def difference_diagnostics(plant: ContinuousPlant, T: float, sig: DisturbanceSignal,
                           k_range, sampler: DisturbanceSampler | None = None) -> DiffReport:
    """First and second differences of d[k] over k_range (an iterable of
    consecutive sample indices, at least 3 of them)."""
    ks = sorted(k_range)
    if len(ks) < 3:
        raise ConfigError("difference diagnostics need at least 3 samples")
    if sampler is None:
        sampler = DisturbanceSampler(plant, T, sig)
    d = {k: sampler.at(k) for k in ks}
    first = max(np.linalg.norm(d[k] - d[km]) for k, km in zip(ks[1:], ks[:-1]))
    second = max(np.linalg.norm(d[k] - 2 * d[k1] + d[k2])
                 for k, k1, k2 in zip(ks[2:], ks[1:-1], ks[:-2]))
    spans = bool(sig.boundaries_within(ks[0] * T, (ks[-1] + 1) * T))
    return DiffReport(T=T, k_range=(ks[0], ks[-1]), first_diff_max=float(first),
                      second_diff_max=float(second), spans_boundary=spans)
