"""Decimal text of whole float64 arrays, byte for byte as CPython writes it.

`repr_cells` gives each value's `repr`: the shortest decimal that reads
back to the same double, and of those the closest.  `fixed2_cells` gives
`'%.2f' % v` and `count_cells` the digits of a non-negative integer.  A
cell is a row of `WIDTH` ASCII bytes whose text is its non-NUL bytes in
order; `join_cells` turns a table of cells into text.  Only whole-array
numpy operations run per value.

The shortest digits come from Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020), as in Java's `DoubleToDecimal`, with CPython's
rules in place of Java's: no second digit is forced (`5e-324`, `1e+16`).
A value v = c 2^q has its rounding interval scaled by 10^-k, a 126-bit
power of ten g from a 617-entry table, and rounded to odd (`_rop`); the
one multiple of ten, or else the closer of the two integers, inside it
gives the digits.

All three formats write one row (see `WIDTH`): the digits once, with a
'.' after the first `point` of them, the exponent and the constant
characters.  A mask, one per (sign, kept digits, class), keeps the bytes
of the text.  '%.2f' is the fixed form of the cents with the point before
their last two digits; a count is its digits alone.  The tables, masks
included, are built on first use by whole-array numpy arithmetic.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_U = np.uint64
_MASK32 = _U(2 ** 32 - 1)
_MASK63 = _U(2 ** 63 - 1)
_FRACTION = _U(2 ** 52 - 1)
_C_MIN = _U(2 ** 52)
_ONE = np.float64(1.0).view(np.uint64)
_Q_MIN = -1074
_E_MIN, _E_MAX = -292, 324     # the powers 10^e of the g table
_FIXED_MAX = 2.0 ** 53 / 100   # '%.2f' is exact below this magnitude

_DIGITS = 17                   # a double's shortest decimal has at most 17
_POW10 = np.array([10 ** i for i in range(_DIGITS + 1)], dtype=np.uint64)
_GROUP = _U(10 ** 4)
# values per whole-array step: timed in process, 4,096 beat 2,048 (more
# calls) and 16,384 (temporaries that the allocator maps afresh each call)
SLICE = 4096

# The row of a cell, as bytes, written as nine 4-byte words:
#   0 '-'   1..3 '000'   4..23 digits   24 'e'   25..27 'inf'
#   28..31 exponent: its sign and 2 or 3 digits   32..34 'nan'   35 separator
# The digits are a 20-digit number: the value's digits, left-aligned to 17
# places from byte 7, with their first `point` digits moved one byte left.
# Byte _POINT + point, the '0' that this opens or, for point <= 0, one of
# the '0's before the digits, becomes the '.'.  The last byte holds the
# separator that join_cells writes.
WIDTH = 36
_POINT = 6

# the word table: the 4 digits of 0..9999, then the exponents -400..400;
# the class table covers decpt -400..400 as well
_EXP_LO = -400
_EXP_WORD = 10 ** 4 - _EXP_LO      # the word of exponent 0
_CONST = np.frombuffer(b"-000einfnan\0", dtype=np.uint32)  # row columns 0, 6 and 8

# classes of a text: the fixed form for decpt -3..16 (the value is
# 0.d1d2... 10^decpt), the exponent form, zero, infinity, nan and a count
_FIXED_LO, _FIXED_HI = -3, 16
_EXP, _ZERO, _INF, _NAN, _COUNT = range(_FIXED_HI - _FIXED_LO + 1, _FIXED_HI - _FIXED_LO + 6)
_CLASSES = _COUNT + 1


def _flog10pow2(q):
    """floor(log10(2^q))"""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q))"""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))"""
    return (e * 913_124_641_741) >> 38


def _g_table():
    """g = floor(10^e 2^-r) + 1 for each e, with r such that
    2^125 <= 10^e 2^-r < 2^126, split as g1 = g >> 63 and g0 = g mod 2^63:
    the tables of g1, and of the high and low 32 bits of g1 and of g0."""
    cols = []
    for e in range(_E_MIN, _E_MAX + 1):
        r = _flog2pow10(e) - 125
        if e < 0:
            g = (1 << -r) // 10 ** -e + 1
        else:
            g = (10 ** e << -r if r < 0 else 10 ** e >> r) + 1
        g1, g0 = g >> 63, g & (2 ** 63 - 1)
        cols.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return tuple(np.array(cols, dtype=np.uint64).T.copy())


def _mul_high(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit products a b, from 32-bit limbs, for
    a < 2^63 and b < 2^60, so that the middle sum cannot overflow."""
    mid = a_lo * b_lo
    mid >>= _U(32)
    mid += a_lo * b_hi
    mid += a_hi * b_lo
    mid >>= _U(32)
    mid += a_hi * b_hi
    return mid


def _rop(g, cp):
    """floor(g cp 2^-127), rounded to odd, for the g table's limbs g and
    the multipliers cp < 2^60 (Schubfach's figure 8)."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _MASK32
    z = g1 * cp
    z >>= _U(1)
    z += _mul_high(g0_hi, g0_lo, cp_hi, cp_lo)
    vb = _mul_high(g1_hi, g1_lo, cp_hi, cp_lo)
    vb += z >> _U(63)
    z <<= _U(1)
    vb |= z != 0
    return vb


def _shortest(t, mag):
    """(f, k) with f 10^k the shortest, then closest, decimal that reads
    back to each finite, nonzero double of bit pattern `mag` (sign clear)."""
    bq = (mag >> _U(52)).astype(np.int64)
    c = (mag & _FRACTION) | ((bq > 0).astype(np.uint64) << _U(52))
    q = np.maximum(bq, 1) - 1075
    # at a power of two above the subnormals the gap below is half the gap
    # above
    irregular = (c == _C_MIN) & (q > _Q_MIN)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    row = -k - _E_MIN
    g = [table.take(row) for table in t.g]
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h)
    vbr = _rop(g, (cb + _U(2)) << h)
    out = c & _U(1)   # an even c's interval holds its ends
    s = vb >> _U(2)
    # at most one multiple of ten fits in the interval: the shorter answer
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    # both in: the closer, s on a tie when it is even
    closer_s = vb + (s & _U(1)) <= (s << _U(2)) + _U(2)
    one = uin != win
    f = s + ((one & win) | (~one & ~closer_s))
    return np.where(upin != wpin, sp10 + _U(10) * wpin, f), k


def _digit_count(f):
    return np.searchsorted(_POW10[:_DIGITS], f, side="right")


def _write_rows(t, cells, f, nd, point):
    """Write into the (N, WIDTH) cells the rows, but for the exponent, of
    the integers f < 10^17 of nd digits with a '.' after their first
    `point` digits; return the (5, N) 4-digit groups of the 20 digits."""
    x = f * _POW10.take(_DIGITS - nd)
    # head m + tail becomes 10 head m + tail: a '0' opens after the head
    m = _POW10.take(_DIGITS - point, mode="clip")
    x += x // m * m * _U(9)
    groups = np.empty((5, len(f)), dtype=np.intp)
    for j in range(4, 0, -1):
        q = x // _GROUP
        groups[j] = x - q * _GROUP
        x = q
    groups[0] = x
    rows = cells.view(np.uint32)
    rows[:, 1:6] = t.words[groups.T]
    rows[:, [0, 6, 8]] = _CONST
    cells.reshape(-1)[np.arange(_POINT, cells.size, WIDTH) + point] = ord(".")
    return groups


def _each_slice(fill, values, dtype=np.float64):
    """The (..., WIDTH) cells of values, filled `SLICE` values at a time by
    fill(tables, slice, its (n, WIDTH) cells), which returns each value's
    sign, kept digits and class."""
    t = _tables()
    v = np.ascontiguousarray(values, dtype=dtype)
    flat = v.reshape(-1)
    cells = np.empty((flat.size, WIDTH), dtype=np.uint8)
    for lo in range(0, flat.size, SLICE):
        out = cells[lo:lo + SLICE]
        neg, n, cls = fill(t, flat[lo:lo + SLICE], out)
        out &= t.masks.take((neg * (_DIGITS + 1) + n) * _CLASSES + cls, axis=0)
    return cells.reshape(v.shape + (WIDTH,))


def _masks() -> np.ndarray:
    """The masks of every text, indexed [neg, n, class] with n kept digits:
    each keeps the bytes lo..hi of its digits, its class's constant bytes,
    the sign of a negative value that is not a nan, and the separator."""
    n = np.arange(_DIGITS + 1)[:, None]
    decpt = np.arange(_FIXED_LO, _FIXED_HI + 1)
    lo = np.full((_DIGITS + 1, _CLASSES), WIDTH)
    hi = np.zeros_like(lo)
    # '0.' and -decpt '0's before the digits, or the digits up to the point
    # and at least one after it
    lo[:, :_EXP] = _POINT - 1 + np.minimum(decpt, 1)
    hi[:, :_EXP] = _POINT + np.maximum(n, decpt + 1)
    # the first digit, then the point and the rest if there is a rest
    lo[:, [_EXP, _COUNT]] = _POINT
    hi[:, [_EXP]] = _POINT + n - (n == 1)
    hi[:, [_COUNT]] = _POINT - 1 + n
    const = np.zeros((_CLASSES, WIDTH), dtype=bool)
    const[_EXP, [24, 28, 29, 30, 31]] = True
    # a '0', then the '.' and the '0' after the stand-in 1's first digit
    const[_ZERO, [1, _POINT + 1, _POINT + 2]] = True
    const[_INF, 25:28] = const[_NAN, 32:35] = const[:, -1] = True
    byte = np.arange(WIDTH)
    keep = (lo[..., None] <= byte) & (byte <= hi[..., None]) | const
    sign = (byte == 0) & (np.arange(_CLASSES) != _NAN)[:, None]
    return (np.stack([keep, keep | sign]) * np.uint8(0xFF)).reshape(-1, WIDTH)


@functools.cache
def _tables() -> SimpleNamespace:
    """The constant tables, built on first use and shared read-only: the
    words of the rows, the trailing zeros of each 4-digit word, the class
    of each decpt, the g table and the masks."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    # the 4 digits of 0..9999, in order
    chars = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(-1, 4)
    decpt = np.arange(_EXP_LO, 1 - _EXP_LO)
    # an exponent is its sign and 3 digits, or 2 and a NUL
    exps = chars[np.abs(decpt)]
    exps[:, 0] = np.where(decpt < 0, ord("-"), ord("+"))
    two = np.abs(decpt) < 100
    exps[two, 1:3], exps[two, 3] = exps[two, 2:], 0
    t = SimpleNamespace(
        words=np.concatenate([chars, exps]).view(np.uint32).ravel(),
        group_zeros=sum(np.arange(10 ** 4) % 10 ** i == 0 for i in range(1, 5)),
        decpt_class=np.where((_FIXED_LO <= decpt) & (decpt <= _FIXED_HI), decpt - _FIXED_LO, _EXP),
        g=_g_table(),
        masks=_masks())
    for table in [t.words, t.group_zeros, t.decpt_class, t.masks, *t.g]:
        table.setflags(write=False)
    return t


def _bits(flat):
    bits = flat.view(np.uint64)
    mag = bits & _MASK63
    return (bits >> _U(63)).astype(np.intp), mag, (mag >> _U(52)).astype(np.intp)


def _repr_slice(t, v, cells):
    neg, mag, bq = _bits(v)
    zero, special = mag == 0, bq == 2047
    # zeros, infinities and nans take a stand-in value and their own class
    f, k = _shortest(t, np.where(zero | special, _ONE, mag))
    nd = _digit_count(f)
    decpt = nd + k
    cls = t.decpt_class.take(decpt - _EXP_LO)
    point = np.where(cls < _EXP, decpt, 1)
    groups = _write_rows(t, cells, f, nd, point)
    cells.view(np.uint32)[:, 7] = t.words.take(decpt + (_EXP_WORD - 1))
    # the trailing zeros of the 20 digits, word by word from the last, less
    # the '0' opened for the point if they reach it
    group_zeros = t.group_zeros[groups]
    zeros = group_zeros[4]
    for j in (3, 2, 1, 0):
        zeros += (zeros == 4 * (4 - j)) * group_zeros[j]
    zeros -= zeros >= 18 - point
    np.putmask(cls, zero, _ZERO)
    np.putmask(cls, special, np.where(mag & _FRACTION, _NAN, _INF))
    return neg, _DIGITS - zeros, cls


def repr_cells(values) -> np.ndarray:
    """The cells of `repr(float(v))` for every value, as a (..., WIDTH)
    uint8 array."""
    return _each_slice(_repr_slice, values)


def _fixed2_slice(t, v, cells):
    neg, mag, bq = _bits(v)
    finite = bq < 2047
    if np.any(finite & (mag.view(np.float64) >= _FIXED_MAX)):
        raise ValueError(f"'%.2f' cells hold magnitudes below {_FIXED_MAX!r}")
    # a finite value below the bound has v = c 2^q with q <= 0: cents are
    # 100 c shifted right by -q, rounded half to even
    cents = ((mag & _FRACTION) | ((bq > 0).astype(np.uint64) << _U(52))) * _U(100)
    shift = np.clip(1075 - np.maximum(bq, 1), 1, 63).astype(np.uint64)
    whole = (cents + ((_U(1) << shift) >> _U(1)) - _U(1) + ((cents >> shift) & _U(1))) >> shift
    whole *= finite
    # the fixed form of the cents' digits, at least 3, with decpt nd - 2
    nd = np.maximum(_digit_count(whole), 3)
    _write_rows(t, cells, whole, nd, nd - 2)
    cls = np.where(finite, nd - 2 - _FIXED_LO, np.where(mag & _FRACTION, _NAN, _INF))
    return neg, nd, cls


def fixed2_cells(values) -> np.ndarray:
    """The cells of `'%.2f' % v` for every value, as a (..., WIDTH) uint8
    array.  The exact binary value is rounded to cents, ties to even; a
    finite value of magnitude 2^53 / 100 or more is a ValueError."""
    return _each_slice(_fixed2_slice, values)


def _count_slice(t, k, cells):
    if k.min() < 0 or k.max() >= 10 ** _DIGITS:
        raise ValueError("count cells hold integers in [0, 10**17)")
    f = k.astype(np.uint64)
    nd = np.maximum(_digit_count(f), 1)
    _write_rows(t, cells, f, nd, nd)
    return 0, nd, _COUNT


def count_cells(counts) -> np.ndarray:
    """The cells of the decimal digits of every integer in [0, 10^17), as
    a (..., WIDTH) uint8 array; any other count is a ValueError."""
    return _each_slice(_count_slice, counts, dtype=np.int64)


def join_cells(cells, sep: str, end: str) -> str:
    """The text of a (rows, columns, width) array of cells: each row's
    cells joined by `sep`, every row followed by `end`.  The separators are
    written into the cells' last byte."""
    cells[:, :, -1] = ord(sep)
    cells[:, -1, -1] = ord(end)
    return cells.tobytes().translate(None, b"\0").decode("ascii")
