"""Zero-order-hold discretization and sampled disturbances.

For a period T the exact sample-to-sample model is

    x[k+1] = state_map x[k] + input_map u[k] + d[k],

with state_map = exp(AT), input_map the held-input integral, and d[k] the
disturbance carried across one interval.  Alongside the exact pair we keep
the O(T)-expansion matrices

    drift_rate      = (state_map - I) / T          (-> A as T -> 0)
    input_rate      = input_map / T                (-> B)
    input_curvature = (input_map - T B) / T^2      (bounded as T -> 0)

which the control laws and the closed-loop analysis are written in terms of.

d[k] is exact as well: every disturbance segment is the output of a small
linear exosystem (Segment.exosystem), so the integral over a sample is one
block matrix exponential (see DisturbanceSampler).  Adaptive quadrature,
Simpson and RK4 are independent routes kept in the tests as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, DisturbanceRangeError
from .plant import ContinuousPlant, DisturbanceSignal, Segment

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
    input_rate: np.ndarray
    input_curvature: np.ndarray


def discretize(plant: ContinuousPlant, T: float) -> DiscretePlant:
    """Exact ZOH discretization via the block matrix exponential.

    exp([[A, B], [0, 0]] T) carries exp(AT) in the top-left block and the
    held-input integral in the top-right, both to machine precision; no
    quadrature is involved for the linear part.
    """
    # input_curvature divides by T ** 2, which raises OverflowError past
    # 1.3e154 and is 0 below 1.5e-162
    if not (T > 0 and T * T < math.inf):
        raise ConfigError(f"sampling period must be positive with a finite "
                          f"square, got {T}")
    if T * T == 0:
        raise ConfigError(f"sampling period must be positive with a nonzero "
                          f"square, got {T}")
    n, m = plant.n, plant.m
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = plant.A
    blk[:n, n:] = plant.B
    e = expm(blk * T)
    if not np.isfinite(e).all():
        raise ConfigError(f"exp(A T) overflows at T = {T}")
    state_map = e[:n, :n]
    input_map = e[:n, n:]
    return DiscretePlant(
        T=T,
        state_map=state_map,
        input_map=input_map,
        drift_rate=(state_map - np.eye(n)) / T,
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
        self._joins = [seg.t_start for seg in sig.segments[1:]]
        self._gain = [self._block(seg, T) for seg in sig.segments]

    def _block(self, seg: Segment, h: float):
        """[expm([[A, B E], [0, S]] h)]_12 of the segment's exosystem, or
        None for a segment without a state."""
        S, E = seg.exosystem
        n, q = self.plant.n, S.shape[0]
        if not q:
            return None
        blk = np.zeros((n + q, n + q))
        blk[:n, :n] = self.plant.A
        blk[:n, n:] = self.plant.B @ E
        blk[n:, n:] = S
        return expm(blk * h)[:n, n:]

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
        for b in self._joins:
            straddle |= (t1 - b > _EDGE) & (t1 - b < T - _EDGE)
        owner = self.sig.owner(t1 - 0.5 * T)
        for j, (seg, gain) in enumerate(zip(self.sig.segments, self._gain)):
            rows = np.flatnonzero((owner == j) & ~straddle)
            if gain is not None and rows.size:
                out[rows] = _apply(gain, seg.state(t0[rows]))
        for i in np.flatnonzero(straddle):
            out[i] = self._split(t0[i], t1[i])
        return out

    def at(self, k: int) -> np.ndarray:
        return self.table(k, k + 1)[0]

    def _split(self, t0: float, t1: float) -> np.ndarray:
        """d over [t0, t1), cut at the segment boundaries inside it."""
        T = self.T
        joins = [b for b in self._joins if _EDGE < t1 - b < T - _EDGE]
        cuts = np.array([t0, *joins, t1])
        owner = self.sig.owner(0.5 * (cuts[:-1] + cuts[1:]))
        total = np.zeros(self.plant.n)
        for a, b, j in zip(cuts[:-1], cuts[1:], owner):
            seg = self.sig.segments[j]
            gain = self._block(seg, b - a)
            if gain is None:
                continue
            piece = _apply(gain, seg.state(np.array([a])))[0]
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


@dataclass(frozen=True)
class DiffReport:
    """Finite-difference growth diagnostics of the sampled disturbance."""
    T: float
    k_range: tuple
    first_diff_max: float    # max_k |d[k] - d[k-1]|, expected O(T^2)
    second_diff_max: float   # max_k |d[k] - 2d[k-1] + d[k-2]|, expected O(T^3)
    spans_boundary: bool = False
    # the expected orders in T of the two differences
    first_order = 2
    second_order = 3


def difference_diagnostics(plant: ContinuousPlant, T: float, sig: DisturbanceSignal,
                           k_range) -> DiffReport:
    """First and second differences of d[k] over k_range (an iterable of
    consecutive sample indices, at least 3 of them)."""
    ks = sorted(k_range)
    if len(ks) < 3:
        raise ConfigError("difference diagnostics need at least 3 samples")
    table = DisturbanceSampler(plant, T, sig).table(ks[0], ks[-1] + 1)
    d = table[np.subtract(ks, ks[0])]
    first = max(np.linalg.norm(a - b) for a, b in zip(d[1:], d[:-1]))
    second = max(np.linalg.norm(a - 2 * b + c)
                 for a, b, c in zip(d[2:], d[1:-1], d[:-2]))
    spans = bool(sig.boundaries_within(ks[0] * T, (ks[-1] + 1) * T))
    return DiffReport(T=T, k_range=(ks[0], ks[-1]), first_diff_max=float(first),
                      second_diff_max=float(second), spans_boundary=spans)
