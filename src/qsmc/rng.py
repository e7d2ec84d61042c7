"""Deterministic uniform noise source.

Measurement noise must be bit-reproducible across platforms and runs, so the
generator is specified here rather than delegated to a library: xoshiro256**
(Blackman & Vigna) seeded through splitmix64.  All arithmetic is on unsigned
64-bit integers; an output u becomes the draw (2 (u >> 11) 2^-53 - 1) h
on [-h, h], from its top 53 bits.

`symmetric_tables` draws n values of each of G generators in lanes: the
state transition is linear over GF(2), a 256 x 256 bit matrix M, so the
start of every 64-draw chunk follows from the generator's state by jumps
(Blackman & Vigna, "Scrambled linear pseudorandom number generators", ACM
TOMS 2021, jump functions).  The starts come from a doubling ladder of
jumps M^(64 2^r), each a nibble table built once per process, applied to
every start known so far, so G generators of `lanes` chunks take about
log2(lanes) vectorized jumps.  All chunks of all generators then advance in
lockstep on one (4, G lanes) uint64 array and are scrambled and converted.
The tests keep a one-draw-at-a-time route on Python integers, which the
published test vectors pin, as the oracle of this one.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = (1 << 64) - 1
_CHUNK = 64   # draws per lane; rung 0 of the jump ladder is M^_CHUNK


def _splitmix64(state: int):
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


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
_NIBBLE = np.arange(0, 64, 4, dtype=np.uint64)   # shifts of a word's 16 nibbles
_ROW = np.arange(0, 1024, 16)[:, None]   # row of nibble position q, value 0
# rows per step of a jump (2 kB of gather each) and of the conversion of
# drawn words (512 B each); a benchmark's 10 seeds jump at most 320 starts
# at once
_SLICE = 512


def _nibble_table(columns: np.ndarray) -> np.ndarray:
    """A GF(2) matrix given by its 256 columns (shape (256, 4)) as a
    (64, 16, 4) table: entry [q, v] is the image of the state whose only
    set bits are the nibble v at bits 4 q..4 q + 3 (word q // 16), the XOR
    of the columns that v selects."""
    cols = columns.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for v in range(1, 16):
        low = v & -v
        table[:, v] = table[:, v ^ low] ^ cols[:, low.bit_length() - 1]
    return table


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The matrix of a nibble table applied to each row of a (K, 4) uint64
    array of states: the XOR of the 64 entries their nibbles select.  The
    rows go `_SLICE` at a time, which bounds the (64, K, 4) gather."""
    out = np.empty_like(states)
    for lo in range(0, len(states), _SLICE):
        part = states[lo:lo + _SLICE]
        nibbles = ((part[:, :, None] >> _NIBBLE) & np.uint64(15)).reshape(-1, 64)
        # (64, K, 4), so that the XOR runs over the leading axis
        picked = np.take(table.reshape(1024, 4), nibbles.T.astype(np.intp) + _ROW,
                         axis=0)
        np.bitwise_xor.reduce(picked, axis=0, out=out[lo:lo + _SLICE])
    return out


@functools.cache
def _jump_ladder(r: int) -> np.ndarray:
    """Rung r of the jump ladder: M^(64 2^r) as a nibble table.  Rung 0 is
    built by stepping the 256 basis states 64 times as lanes; rung r + 1
    squares rung r by applying it to its own columns (column 4 q + b is
    entry [q, 2^b])."""
    if r == 0:
        basis = np.zeros((4, 256), dtype=np.uint64)
        for w in range(4):
            basis[w, 64 * w:64 * (w + 1)] = np.uint64(1) << _BIT
        for _ in range(_CHUNK):
            _lane_step(basis)
        columns = basis.T
    else:
        below = _jump_ladder(r - 1)
        columns = _jump(below, below[:, [1, 2, 4, 8]].reshape(256, 4))
    table = _nibble_table(columns)
    table.setflags(write=False)   # shared by every caller in the process
    return table


def symmetric_tables(gens, n: int, halfwidths) -> np.ndarray:
    """The next n draws on [-halfwidths[g], halfwidths[g]] of every
    generator gens[g] as one (G, n) array, leaving each stream n steps on.

    Draw 64 j + i of a generator is output i of its lane j, whose start is
    64 j steps past the generator's state.  The starts come from a doubling
    ladder: with the first 2^r starts of every generator known, rung r
    (M^(64 2^r)) carries all of them at once to the next 2^r, so about
    log2(lanes) rungs give every start.  The lanes of all generators then
    advance together for min(n, 64) steps; the last lane of each holds its
    draw n - 1, so its state after draw n is that stream's next state."""
    G = len(gens)
    if n == 0 or G == 0:
        return np.empty((G, n))
    lanes = -(-n // _CHUNK)
    starts = np.empty((G, lanes, 4), dtype=np.uint64)
    starts[:, 0] = [gen._s for gen in gens]
    known, r = 1, 0
    while known < lanes:
        new = min(known, lanes - known)
        starts[:, known:known + new] = _jump(
            _jump_ladder(r), starts[:, :new].reshape(-1, 4)).reshape(G, new, 4)
        known, r = known + new, r + 1
    s = np.ascontiguousarray(starts.reshape(-1, 4).T)
    steps = min(n, _CHUNK)
    last = n - _CHUNK * (lanes - 1)   # draws taken from each last lane
    # out[g, 64 j + i] is output i of lane j of generator g
    out = np.empty((G * lanes, _CHUNK), dtype=np.uint64)
    for i in range(steps):
        # the ** scrambler, rotl(s1 * 5, 7) * 9
        out[:, i] = _lane_rotl(s[1] * np.uint64(5), 7) * np.uint64(9)
        _lane_step(s)
        if i + 1 == last:
            for gen, state in zip(gens, s[:, lanes - 1::lanes].T.tolist()):
                gen._s = state
    # top 53 bits to [0, 1), then to [-h, h] as (2 u - 1) h, in place; the
    # conversion goes a slice of rows at a time, as copying onto itself
    # makes a temporary of the copy's size
    out >>= np.uint64(11)
    draws = out.view(np.float64)
    for lo in range(0, len(out), _SLICE):
        np.copyto(draws[lo:lo + _SLICE], out[lo:lo + _SLICE], casting="unsafe")
    draws *= 2.0 ** -53
    draws *= 2.0
    draws -= 1.0
    draws = draws.reshape(G, lanes * _CHUNK)[:, :n]
    draws *= np.asarray(halfwidths, dtype=np.float64)[:, None]
    return draws


class Xoshiro256StarStar:
    """xoshiro256** stream; state is four u64 words derived from the seed."""

    def __init__(self, seed: int):
        s = seed & _MASK
        words = []
        for _ in range(4):
            s, w = _splitmix64(s)
            words.append(w)
        self._s = words
