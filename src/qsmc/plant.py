"""Continuous plant, disturbance profiles, measurement-noise spec.

The plant is a strictly proper LTI triple (A, B, C) with m inputs, p outputs
and n states, m <= p < n.  Disturbances enter through the input channels as a
piecewise-defined vector signal f(t); each time segment carries one closed
form per channel so values, derivatives and derivative bounds are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DisturbanceRangeError
from .rng import Xoshiro256StarStar


# ---------------------------------------------------------------------------
# plant

@dataclass(frozen=True)
class ContinuousPlant:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ConfigError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ConfigError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ConfigError(f"C has {C.shape[1]} columns, expected {n}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            yield f"{'pass' if c.passed else 'FAIL'}  {c.name}: {c.detail}"


def validate_plant(plant: ContinuousPlant) -> ValidationReport:
    """Structural checks, reported rather than raised so sweeps can log and
    continue: full column rank of B, full row rank of C, m <= p < n."""
    n, m, p = plant.n, plant.m, plant.p
    rank_b = int(np.linalg.matrix_rank(plant.B))
    rank_c = int(np.linalg.matrix_rank(plant.C))
    checks = (
        ValidationCheck("input-rank", rank_b == m,
                        f"rank(B) = {rank_b} of {m} columns"),
        ValidationCheck("output-rank", rank_c == p,
                        f"rank(C) = {rank_c} of {p} rows"),
        ValidationCheck("dimensions", m <= p < n,
                        f"m={m}, p={p}, n={n} (need m <= p < n)"),
    )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# disturbance forms
#
# Each form knows its value, derivative and sup-norms of the first two
# derivatives; the sups are global (amplitude-based), hence valid on any
# sub-interval.  Each is also the output of a linear exosystem
#
#     z' = exo_S z,   f = exo_E . z,
#
# and exo_z(t) gives its state at an array of times as a (len(t), q) array;
# the sampled disturbance d[k] is computed exactly from these.

@dataclass(frozen=True)
class ZeroForm:
    def value(self, t: float) -> float:
        return 0.0

    def deriv(self, t: float) -> float:
        return 0.0

    sup_d1 = 0.0
    sup_d2 = 0.0
    exo_S = np.zeros((0, 0))
    exo_E = np.zeros(0)

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        return np.zeros((len(t), 0))

    def token(self) -> str:
        return "zero"


@dataclass(frozen=True)
class ConstForm:
    level: float

    def value(self, t: float) -> float:
        return self.level

    def deriv(self, t: float) -> float:
        return 0.0

    sup_d1 = 0.0
    sup_d2 = 0.0
    exo_S = np.zeros((1, 1))
    exo_E = np.ones(1)

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        return np.full((len(t), 1), self.level)

    def token(self) -> str:
        return f"const {self.level!r}"


@dataclass(frozen=True)
class SinForm:
    """offset + amp * sin(omega * t + phase)"""
    offset: float
    amp: float
    omega: float
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.offset + self.amp * math.sin(self.omega * t + self.phase)

    def deriv(self, t: float) -> float:
        return self.amp * self.omega * math.cos(self.omega * t + self.phase)

    @property
    def sup_d1(self) -> float:
        return abs(self.amp * self.omega)

    @property
    def sup_d2(self) -> float:
        return abs(self.amp * self.omega ** 2)

    # z = (offset, amp sin(theta), amp cos(theta)), theta = omega t + phase
    @property
    def exo_S(self) -> np.ndarray:
        w = self.omega
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, w], [0.0, -w, 0.0]])

    exo_E = np.array([1.0, 1.0, 0.0])

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        th = self.omega * t + self.phase
        return np.column_stack((np.full(len(t), self.offset),
                                self.amp * np.sin(th), self.amp * np.cos(th)))

    def token(self) -> str:
        return f"sin {self.offset!r} {self.amp!r} {self.omega!r} {self.phase!r}"


@dataclass(frozen=True)
class CosForm:
    """amp * cos(omega * t); kept distinct from SinForm so benchmark values
    are bit-exact rather than phase-shifted."""
    amp: float
    omega: float

    def value(self, t: float) -> float:
        return self.amp * math.cos(self.omega * t)

    def deriv(self, t: float) -> float:
        return -self.amp * self.omega * math.sin(self.omega * t)

    @property
    def sup_d1(self) -> float:
        return abs(self.amp * self.omega)

    @property
    def sup_d2(self) -> float:
        return abs(self.amp * self.omega ** 2)

    # z = (amp cos(omega t), amp sin(omega t))
    @property
    def exo_S(self) -> np.ndarray:
        w = self.omega
        return np.array([[0.0, -w], [w, 0.0]])

    exo_E = np.array([1.0, 0.0])

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        th = self.omega * t
        return np.column_stack((self.amp * np.cos(th), self.amp * np.sin(th)))

    def token(self) -> str:
        return f"cos {self.amp!r} {self.omega!r}"


@dataclass(frozen=True)
class Segment:
    t_start: float
    t_end: float  # may be inf; interval is half-open [t_start, t_end)
    forms: tuple

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ConfigError(
                f"segment [{self.t_start}, {self.t_end}) is empty")

    def contains(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class DisturbanceSignal:
    """Piecewise channel-form disturbance covering [0, t_end) contiguously."""
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ConfigError("disturbance needs at least one segment")
        m = len(segs[0].forms)
        if any(len(s.forms) != m for s in segs):
            raise ConfigError("segments disagree on channel count")
        if segs[0].t_start != 0.0:
            raise ConfigError("first segment must start at t = 0")
        for a, b in zip(segs[:-1], segs[1:]):
            if b.t_start != a.t_end:
                raise ConfigError(
                    f"gap or overlap at t = {a.t_end} (next starts {b.t_start})")

    @property
    def m(self) -> int:
        return len(self.segments[0].forms)

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    def segment_index(self, t: float) -> int:
        if t < 0.0 or t >= self.t_end:
            raise DisturbanceRangeError(
                f"t = {t} outside defined range [0, {self.t_end})")
        for i, seg in enumerate(self.segments):
            if seg.contains(t):
                return i
        raise DisturbanceRangeError(f"t = {t} matched no segment")

    def value(self, t: float) -> np.ndarray:
        seg = self.segments[self.segment_index(t)]
        return np.array([f.value(t) for f in seg.forms])

    def values(self, t) -> np.ndarray:
        """value at every time of an array, as a (len(t), m) array; each
        segment is evaluated in one call through its forms' exosystems."""
        t = np.asarray(t, dtype=float)
        outside = np.flatnonzero(~((t >= 0.0) & (t < self.t_end)))
        if outside.size:
            raise DisturbanceRangeError(
                f"t = {t[outside[0]]} outside defined range [0, {self.t_end})")
        starts = np.array([seg.t_start for seg in self.segments])
        owner = np.searchsorted(starts, t, side="right") - 1
        out = np.empty((len(t), self.m))
        for j, seg in enumerate(self.segments):
            rows = np.flatnonzero(owner == j)
            for c, f in enumerate(seg.forms):
                out[rows, c] = f.exo_z(t[rows]) @ f.exo_E
        return out

    def value_in_segment(self, idx: int, t: float) -> np.ndarray:
        # analytic continuation of one segment's forms; used by integrators
        # that must not see the jump at a segment boundary
        seg = self.segments[idx]
        return np.array([f.value(t) for f in seg.forms])

    def derivative(self, t: float) -> np.ndarray:
        seg = self.segments[self.segment_index(t)]
        return np.array([f.deriv(t) for f in seg.forms])

    def deriv_bound(self, idx: int) -> float:
        """sup of the euclidean norm of f' on segment idx (closed form)."""
        return float(np.linalg.norm([f.sup_d1 for f in self.segments[idx].forms]))

    def boundaries_within(self, t0: float, t1: float):
        """Interior segment boundaries strictly inside (t0, t1)."""
        pts = []
        for seg in self.segments[1:]:
            if t0 < seg.t_start < t1:
                pts.append(seg.t_start)
        return pts


def constant_signal(levels, t_end=math.inf) -> DisturbanceSignal:
    forms = tuple(ConstForm(float(v)) for v in np.atleast_1d(levels))
    return DisturbanceSignal((Segment(0.0, t_end, forms),))


def zero_signal(m: int, t_end=math.inf) -> DisturbanceSignal:
    return DisturbanceSignal((Segment(0.0, t_end, tuple(ZeroForm() for _ in range(m))),))


# ---------------------------------------------------------------------------
# measurement noise

@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"  # none | uniform
    halfwidth: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "uniform"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "uniform" and self.halfwidth < 0:
            raise ConfigError("noise halfwidth must be >= 0")

    def stream(self):
        return NoiseStream(self)

    def with_seed(self, seed: int) -> "NoiseSpec":
        return NoiseSpec(self.kind, self.halfwidth, seed)


class NoiseStream:
    """Per-run noise source; draws p values per sample instant."""

    def __init__(self, spec: NoiseSpec):
        self.spec = spec
        self._gen = Xoshiro256StarStar(spec.seed)

    def sample(self, p: int) -> np.ndarray:
        return self.table(1, p)[0]

    def table(self, rows: int, p: int) -> np.ndarray:
        """The next `rows` samples of p values as a (rows, p) array, in the
        draw order of `rows` successive sample(p) calls: one lane draw
        (Xoshiro256StarStar.symmetric_table) of rows * p values, bit-equal
        to as many scalar symmetric calls."""
        if self.spec.kind == "none" or self.spec.halfwidth == 0.0:
            return np.zeros((rows, p))
        return self._gen.symmetric_table(rows * p, self.spec.halfwidth).reshape(rows, p)


# ---------------------------------------------------------------------------
# invariant zeros

def random_surface_map(gen: Xoshiro256StarStar, m: int, p: int) -> np.ndarray:
    """An m x p surface map with entries uniform on [-1, 1), drawn row by
    row from gen."""
    return gen.symmetric_table(m * p, 1.0).reshape(m, p)


def invariant_zeros(plant: ContinuousPlant, draws: int = 8, seed: int = 20260815,
                    tol: float = 1e-6):
    """Transmission zeros of (A, B, C) via the reduced sliding dynamics.

    For any admissible surface map H the reduced-motion matrix carries the
    invariant zeros plus eigenvalues that move with H; intersecting the
    spectra over several random well-conditioned H draws isolates the zeros.
    Deterministic for a fixed seed.
    """
    from .surface import build_surface_raw  # local import: avoid cycle

    gen = Xoshiro256StarStar(seed)
    m, p = plant.m, plant.p
    spectra = []
    attempts = 0
    while len(spectra) < draws and attempts < 50 * draws:
        attempts += 1
        H = random_surface_map(gen, m, p)
        try:
            design = build_surface_raw(plant, H)
        except Exception:
            continue
        if np.linalg.cond(H @ plant.C @ plant.B) > 1e8:
            continue
        spectra.append(np.linalg.eigvals(design.zero_dynamics))
    if len(spectra) < 2:
        raise ConfigError("could not build enough valid random surfaces")
    common = list(spectra[0])
    for spec in spectra[1:]:
        common = [z for z in common if np.min(np.abs(spec - z)) < tol]
    common.sort(key=lambda z: (z.real, z.imag))
    return [complex(z) if abs(z.imag) > tol else float(z.real) for z in common]
