"""Deterministic uniform noise source.

Measurement noise must be bit-reproducible across platforms and runs, so the
generator is specified here rather than delegated to a library: xoshiro256**
(Blackman & Vigna) seeded through splitmix64.  All arithmetic is on unsigned
64-bit integers; doubles in [0, 1) are produced by taking the top 53 bits.

Two routes give the same bits.  `next_u64`/`uniform`/`symmetric` step one
draw at a time on Python integers; they are the reference that the published
test vectors pin.  `symmetric_table` draws n values in lanes: the state
transition is linear over GF(2), a 256 x 256 bit matrix M, so the start of
every 64-draw chunk follows from the one before by one jump with M^64
(Blackman & Vigna, "Scrambled linear pseudorandom number generators", ACM
TOMS 2021, jump functions).  All chunks then advance in lockstep on a
(4, lanes) uint64 array and are scrambled and converted as the scalar route
does.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = (1 << 64) - 1
_CHUNK = 64   # draws per lane; the jump matrix is M^_CHUNK


def _splitmix64(state: int):
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _lane_rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def _lane_step(s: np.ndarray) -> None:
    """The xoshiro256** state transition, in place, on a (4, L) uint64
    array whose columns are L independent states."""
    s0, s1, s2, s3 = s
    t = s1 << np.uint64(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s[3] = _lane_rotl(s3, 45)


_BIT = np.arange(64, dtype=np.uint64)


@functools.cache
def _jump_columns() -> np.ndarray:
    """M^64 as its 256 columns, shape (256, 4): row 64 w + i is the state
    reached after 64 steps from the basis state whose only set bit is bit i
    of word w.  Built by stepping all 256 basis states as lanes."""
    basis = np.zeros((4, 256), dtype=np.uint64)
    for w in range(4):
        basis[w, 64 * w:64 * (w + 1)] = np.uint64(1) << _BIT
    for _ in range(_CHUNK):
        _lane_step(basis)
    columns = np.ascontiguousarray(basis.T)
    columns.setflags(write=False)   # shared by every caller in the process
    return columns


class Xoshiro256StarStar:
    """xoshiro256** stream; state is four u64 words derived from the seed."""

    def __init__(self, seed: int):
        s = seed & _MASK
        words = []
        for _ in range(4):
            s, w = _splitmix64(s)
            words.append(w)
        self._s = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        # top 53 bits -> [0, 1); every representable output is exact
        return (self.next_u64() >> 11) * 2.0 ** -53

    def symmetric(self, halfwidth: float) -> float:
        """Uniform draw in [-halfwidth, halfwidth]."""
        return (2.0 * self.uniform() - 1.0) * halfwidth

    def symmetric_table(self, n: int, halfwidth: float) -> np.ndarray:
        """The next n symmetric(halfwidth) draws as one float array, bit for
        bit, leaving the stream where n symmetric calls would.

        Draw 64 j + i is output i of lane j, whose start is 64 j steps past
        the current state (j jumps with M^64).  The lanes advance together;
        the last one holds draw n - 1, so its state after draw n is the
        stream's next state."""
        if n == 0:
            return np.empty(0)
        lanes = -(-n // _CHUNK)
        jump = _jump_columns()
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = np.array(self._s, dtype=np.uint64)
        for j in range(1, lanes):
            # M^64 start[j - 1]: XOR of the columns its set bits select
            bits = ((starts[j - 1][:, None] >> _BIT) & np.uint64(1)).astype(bool)
            starts[j] = np.bitwise_xor.reduce(jump[bits.ravel()], axis=0)
        s = np.ascontiguousarray(starts.T)
        steps = min(n, _CHUNK)
        last = n - _CHUNK * (lanes - 1)   # draws taken from the last lane
        out = np.empty((steps, lanes), dtype=np.uint64)
        for i in range(steps):
            # the ** scrambler, rotl(s1 * 5, 7) * 9, as in next_u64
            out[i] = _lane_rotl(s[1] * np.uint64(5), 7) * np.uint64(9)
            _lane_step(s)
            if i + 1 == last:
                self._s = [int(w) for w in s[:, -1]]
        draws = out.T.ravel()[:n]
        uniform = (draws >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return (2.0 * uniform - 1.0) * halfwidth
