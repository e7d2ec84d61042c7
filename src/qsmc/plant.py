"""Continuous plant, disturbance profiles, measurement-noise spec.

The plant is a strictly proper LTI triple (A, B, C) with m inputs, p outputs
and n states, m <= p < n.  Disturbances enter through the input channels as a
piecewise-defined vector signal f(t); each time segment carries one closed
form per channel so values, derivatives and derivative bounds are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import AssumptionViolation, ConfigError, DisturbanceRangeError
from .rng import Xoshiro256StarStar, symmetric_tables


def check_finite(name: str, value) -> None:
    """Refuse a number, or a vector or matrix with an entry, that is nan or
    infinite; the error names the first such entry, counted from 1."""
    value = np.asarray(value, dtype=float)
    if np.isfinite(value).all():
        return
    at = tuple(np.argwhere(~np.isfinite(value))[0].tolist())
    where = {0: "", 1: " at entry {}", 2: " at row {}, column {}"}[len(at)]
    raise ConfigError(f"{name} must be finite, got {value[at]}"
                      + where.format(*(i + 1 for i in at)), name)


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
            raise ConfigError(f"A must be square, got {A.shape}", "A")
        if B.shape[0] != n:
            raise ConfigError(f"B has {B.shape[0]} rows, expected {n}", "B")
        if C.shape[1] != n:
            raise ConfigError(f"C has {C.shape[1]} columns, expected {n}", "C")
        for name, M in (("A", A), ("B", B), ("C", C)):
            check_finite(name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


# ---------------------------------------------------------------------------
# disturbance forms
#
# Each form is the output of a linear exosystem
#
#     z' = exo_S z,   f = exo_E . z,   f' = exo_E exo_S . z,
#
# and exo_z(t) gives its state at an array of times as a (len(t), q) array.
# A segment stacks its forms' exosystems (Segment.exosystem), and f, f' and
# the sampled disturbance d[k] are all read from that; the closed forms live
# in the tests as its oracle.  sup_d1, the sup-norm of f', is global
# (amplitude-based), hence valid on any sub-interval.

@dataclass(frozen=True)
class ZeroForm:
    sup_d1 = 0.0
    exo_S = np.zeros((0, 0))
    exo_E = np.zeros(0)

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        return np.zeros((len(t), 0))


def _check_form(form) -> None:
    """Every parameter of a form is finite; named as in a scenario file,
    e.g. "const level"."""
    name = type(form).__name__.removesuffix("Form").lower()
    for f in fields(form):
        check_finite(f"{name} {f.name}", getattr(form, f.name))


@dataclass(frozen=True)
class ConstForm:
    level: float

    __post_init__ = _check_form

    sup_d1 = 0.0
    exo_S = np.zeros((1, 1))
    exo_E = np.ones(1)

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        return np.full((len(t), 1), self.level)


@dataclass(frozen=True)
class SinForm:
    """offset + amp * sin(omega * t + phase)"""
    offset: float
    amp: float
    omega: float
    phase: float = 0.0

    __post_init__ = _check_form

    @property
    def sup_d1(self) -> float:
        return abs(self.amp * self.omega)

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


@dataclass(frozen=True)
class CosForm:
    """amp * cos(omega * t); kept distinct from SinForm so benchmark values
    are bit-exact rather than phase-shifted."""
    amp: float
    omega: float

    __post_init__ = _check_form

    @property
    def sup_d1(self) -> float:
        return abs(self.amp * self.omega)

    # z = (amp cos(omega t), amp sin(omega t))
    @property
    def exo_S(self) -> np.ndarray:
        w = self.omega
        return np.array([[0.0, -w], [w, 0.0]])

    exo_E = np.array([1.0, 0.0])

    def exo_z(self, t: np.ndarray) -> np.ndarray:
        th = self.omega * t
        return np.column_stack((self.amp * np.cos(th), self.amp * np.sin(th)))


@dataclass(frozen=True)
class Segment:
    t_start: float
    t_end: float  # may be inf; interval is half-open [t_start, t_end)
    forms: tuple

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ConfigError(
                f"segment [{self.t_start}, {self.t_end}) is empty")

    @cached_property
    def exosystem(self):
        """(S, E) of the segment, z' = S z and f = E z: the forms' exo_S
        blocks down the diagonal of S and row c of E the exo_E of channel c
        in its own columns; (0, 0) and (m, 0) when no form has a state."""
        sizes = [f.exo_S.shape[0] for f in self.forms]
        q = sum(sizes)
        S = np.zeros((q, q))
        E = np.zeros((len(self.forms), q))
        at = 0
        for c, (f, size) in enumerate(zip(self.forms, sizes)):
            S[at:at + size, at:at + size] = f.exo_S
            E[c, at:at + size] = f.exo_E
            at += size
        return S, E

    def state(self, t: np.ndarray) -> np.ndarray:
        """z(t) of the exosystem at an array of times, (len(t), q)."""
        return np.hstack([f.exo_z(t) for f in self.forms])


@dataclass(frozen=True)
class DisturbanceSignal:
    """Piecewise channel-form disturbance covering [0, t_end) contiguously."""
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ConfigError("disturbance needs at least one segment", "disturbance")
        m = len(segs[0].forms)
        if any(len(s.forms) != m for s in segs):
            raise ConfigError("segments disagree on channel count", "disturbance")
        if segs[0].t_start != 0.0:
            raise ConfigError("first segment must start at t = 0", "disturbance")
        for a, b in zip(segs[:-1], segs[1:]):
            if b.t_start != a.t_end:
                raise ConfigError(f"gap or overlap at t = {a.t_end} (next starts "
                                  f"{b.t_start})", "disturbance")

    @property
    def m(self) -> int:
        return len(self.segments[0].forms)

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    def owner(self, t):
        """Index of the segment [t_start, t_end) that holds t, for a number
        or for each time of an array."""
        t = np.asarray(t)
        inside = (t >= 0.0) & (t < self.t_end)
        if not inside.all():
            raise DisturbanceRangeError(
                f"t = {t[~inside][0]} outside defined range [0, {self.t_end})")
        starts = np.array([seg.t_start for seg in self.segments])
        return starts.searchsorted(t, side="right") - 1

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    def values(self, t) -> np.ndarray:
        """f at every time of an array, as a (len(t), m) array; each
        segment is evaluated in one call through its exosystem."""
        t = np.asarray(t, dtype=float)
        owner = self.owner(t)
        out = np.empty((len(t), self.m))
        for j, seg in enumerate(self.segments):
            rows = np.flatnonzero(owner == j)
            out[rows] = seg.state(t[rows]) @ seg.exosystem[1].T
        return out

    def derivative(self, t: float) -> np.ndarray:
        """f'(t) of every channel, E S z(t) of its segment's exosystem."""
        seg = self.segments[self.owner(t)]
        S, E = seg.exosystem
        return E @ S @ seg.state(np.array([t]))[0]

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
            raise ConfigError(f"unknown noise kind {self.kind!r}", "kind")
        # whatever the kind: benchmark --noise switches a kind-none spec on
        # at its halfwidth
        if not 0 <= self.halfwidth < math.inf:
            raise ConfigError(f"noise halfwidth must be finite and >= 0, "
                              f"got {self.halfwidth}", "halfwidth")
        # xoshiro256** takes a 64-bit seed; a wider one would wrap silently
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"noise seed must lie in [0, 2**64), got {self.seed}",
                              "seed")

    def stream(self):
        return NoiseStream(self)


class NoiseStream:
    """Per-run noise source; draws p values per sample instant."""

    def __init__(self, spec: NoiseSpec):
        self.spec = spec
        self._gen = Xoshiro256StarStar(spec.seed)

    def sample(self, p: int) -> np.ndarray:
        """The next sample of p values."""
        return noise_tables([self], 1, p)[0][0]


def noise_tables(streams, rows: int, p: int) -> list:
    """The next `rows` samples of p values of every stream, one (rows, p)
    array each, in the draw order of `rows` successive sample(p) calls:
    the uniform streams draw their rows * p values in one lockstep lane
    draw (rng.symmetric_tables); a noise-free stream gives zeros and draws
    nothing."""
    live = [st.spec.kind != "none" and st.spec.halfwidth != 0.0 for st in streams]
    drawn = iter(symmetric_tables(
        [st._gen for st, on in zip(streams, live) if on], rows * p,
        [st.spec.halfwidth for st, on in zip(streams, live) if on]))
    return [next(drawn).reshape(rows, p) if on else np.zeros((rows, p))
            for on in live]


# ---------------------------------------------------------------------------
# invariant zeros

def random_surface_map(gen: Xoshiro256StarStar, m: int, p: int) -> np.ndarray:
    """An m x p surface map with entries uniform on [-1, 1), drawn row by
    row from gen."""
    return symmetric_tables([gen], m * p, [1.0])[0].reshape(m, p)


# invariant_zeros draws this many surfaces from this seed, and keeps the
# eigenvalues that all their spectra share to within _ZERO_TOL
_ZERO_DRAWS, _ZERO_SEED, _ZERO_TOL = 8, 20260815, 1e-6


def invariant_zeros(plant: ContinuousPlant):
    """Transmission zeros of (A, B, C) via the reduced sliding dynamics.

    For any admissible surface map H the reduced-motion matrix carries the
    invariant zeros plus eigenvalues that move with H; intersecting the
    spectra over several random well-conditioned H draws isolates the zeros.
    Deterministic: the draws come from a fixed seed.
    """
    from .surface import build_surface_raw  # local import: avoid cycle

    gen = Xoshiro256StarStar(_ZERO_SEED)
    m, p = plant.m, plant.p
    spectra = []
    attempts = 0
    while len(spectra) < _ZERO_DRAWS and attempts < 50 * _ZERO_DRAWS:
        attempts += 1
        H = random_surface_map(gen, m, p)
        try:
            design = build_surface_raw(plant, H)
        except (AssumptionViolation, ConfigError, np.linalg.LinAlgError):
            # what a random H can cause; any other error propagates
            continue
        if np.linalg.cond(H @ plant.C @ plant.B) > 1e8:
            continue
        spectra.append(np.linalg.eigvals(design.zero_dynamics))
    if len(spectra) < 2:
        raise ConfigError("could not build enough valid random surfaces")
    common = list(spectra[0])
    for spec in spectra[1:]:
        common = [z for z in common if np.min(np.abs(spec - z)) < _ZERO_TOL]
    common.sort(key=lambda z: (z.real, z.imag))
    return [complex(z) if abs(z.imag) > _ZERO_TOL else float(z.real) for z in common]
