"""Decimal text of whole float64 arrays, byte for byte as CPython writes it.

`repr_cells` gives each value's `repr`: the shortest decimal that reads
back to the same double, and of those the closest.  `fixed2_cells` gives
`'%.2f' % v` and `count_cells` the digits of a non-negative integer.  A
cell is a row of ASCII bytes (`WIDTH` of them, `FIXED2_WIDTH` for '%.2f')
whose text is its non-NUL bytes in order; `join_cells` turns a table of
cells into text.  Only whole-array numpy operations run per value.

The shortest digits come from Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020), as in Java's `DoubleToDecimal`, with CPython's
rules in place of Java's: no second digit is forced (`5e-324`, `1e+16`).
A value v = c 2^q has its rounding interval scaled by 10^-k, a 126-bit
power of ten g from a 617-entry table, and rounded to odd (`_rop`); the
one multiple of ten, or else the closer of the two integers, inside it
gives the digits.

Every repr cell starts as the same 60-byte row of 4-byte words from one
table: the value's digits twice, its exponent and the constant characters
(see `WIDTH`).  A mask from a table built once in scalar Python from the
format's rules, one per (sign, significant digits, decimal-point class),
then keeps the bytes that the value's text is made of.  A '%.2f' cell is a
32-byte row of the same kind whose point sits at a fixed place, as its
digits are right-aligned (see `FIXED2_WIDTH`).
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
_Q_MIN = -1074
_E_MIN, _E_MAX = -292, 324     # the powers 10^e of the g table
_FIXED_MAX = 2.0 ** 53 / 100   # '%.2f' is exact below this magnitude

_DIGITS = 17                   # a double's shortest decimal has at most 17
_POW10 = np.array([10 ** i for i in range(_DIGITS + 1)], dtype=np.uint64)
_GROUP = _U(10 ** 4)
# values per whole-array step: timed in process, 4,096 beat 2,048 (more
# calls) and 16,384 (temporaries that the allocator maps afresh each call)
_SLICE = 4096

# The row of a cell, as bytes.  The value's 17 digits, left-aligned, are
# written twice as a 20-digit number of five 4-digit words, so that digit i
# sits at byte _FIRST + i and at byte _SECOND + i.  The last byte holds the
# separator that join_cells writes.
#   0 '-'   2 '0'   3 '.'   4..6 '000'   7..23 copy 1   24 '.'
#   28..30 '000'   31..47 copy 2   48 'e'   49..51 'inf'
#   52..55 exponent sign and 3 digits   56..58 'nan'   59 separator
WIDTH = 60
_MINUS, _ZERO, _LEAD_POINT, _ZEROS = 0, 2, 3, 4
_FIRST, _POINT, _SECOND = 7, 24, 31
_E, _INF, _EXP_SIGN, _NAN = 48, 49, 52, 56

# The row of a '%.2f' cell: 100 |v| rounded, right-aligned as 16 digits;
# the last four come from a table of 8-byte words with the point inside.
#   0 '-'   4..15 digits 0..11   16..17 digits 12, 13   18 '.'
#   19..20 digits 14, 15   24..28 'inanf' (inf and nan)   31 separator
FIXED2_WIDTH = 32
_F2_DIGIT, _F2_POINT, _F2_INANF = 4, 18, 24

# the word table: the 4 digits of 0..9999, the sign and 3 digits of the
# exponents -400..400, then the words of row columns 0, 6, 12 and 14; the
# class table covers decpt -400..400 as well
_EXP_LO = -400
_EXP_WORD = 10 ** 4 - _EXP_LO      # the word of exponent 0
_CONST_WORD = 10 ** 4 - 2 * _EXP_LO + 1
_CONST_COLUMNS = (0, 6, 12, 14)

# decimal-point classes of a repr: the fixed form for decpt -3..16 (the
# value is 0.d1d2... 10^decpt), the exponent form with a 2- or 3-digit
# exponent, then zero, infinity and nan
_FIXED_LO, _FIXED_HI = -3, 16
_EXP2 = _FIXED_HI - _FIXED_LO + 1
_EXP3, _ZERO_CLASS, _INF_CLASS, _NAN_CLASS = range(_EXP2 + 1, _EXP2 + 5)
_REPR_CLASSES = _NAN_CLASS + 1


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


def _write_rows(t, cells, f, nd, exp_words=_EXP_WORD):
    """Write into the (N, WIDTH) cells the row words of the integers
    f < 10^17 of nd digits, with exponent words exp_words; return the
    (5, N) 4-digit groups of f aligned to 17 digits."""
    rows = cells.view(np.uint32)
    x = f * _POW10[_DIGITS - nd]
    groups = np.empty((5, len(f)), dtype=np.intp)
    for j in range(4, 0, -1):
        q = x // _GROUP
        groups[j] = x - q * _GROUP
        x = q
    groups[0] = x
    for j in range(5):
        rows[:, 1 + j] = rows[:, 7 + j] = t.words.take(groups[j])
    for col, word in zip(_CONST_COLUMNS, t.words[_CONST_WORD:]):
        rows[:, col] = word
    rows[:, 13] = t.words.take(exp_words)
    return groups


def _each_slice(fill, values, width=WIDTH, dtype=np.float64):
    """The (..., width) cells of values, filled `_SLICE` values at a time by
    fill(tables, slice, its (n, width) cells), which returns the masks and
    each value's key into them."""
    t = _tables()
    v = np.ascontiguousarray(values, dtype=dtype)
    flat = v.reshape(-1)
    cells = np.empty((flat.size, width), dtype=np.uint8)
    for lo in range(0, flat.size, _SLICE):
        out = cells[lo:lo + _SLICE]
        masks, key = fill(t, flat[lo:lo + _SLICE], out)
        out &= masks.take(key, axis=0)
    return cells.reshape(v.shape + (width,))


def _mask(neg, body, width=WIDTH):
    kept = ([_MINUS] if neg else []) + body + [width - 1]
    assert kept == sorted(set(kept)), kept
    mask = np.zeros(width, dtype=np.uint8)
    mask[kept] = 0xFF
    return mask


def _first(lo, hi):
    return list(range(_FIRST + lo, _FIRST + hi))


def _second(lo, hi):
    return list(range(_SECOND + lo, _SECOND + hi))


def _repr_masks() -> np.ndarray:
    """The masks of every repr, indexed [neg, n, class] with n significant
    digits."""
    table = np.zeros((2, _DIGITS + 1, _REPR_CLASSES, WIDTH), dtype=np.uint8)
    for neg in (0, 1):
        for n in range(1, _DIGITS + 1):
            for decpt in range(_FIXED_LO, _FIXED_HI + 1):
                if decpt <= 0:
                    body = ([_ZERO, _LEAD_POINT] + list(range(_ZEROS, _ZEROS - decpt))
                            + _first(0, n))
                elif decpt >= n:
                    # digit decpt is a '0' of the alignment
                    body = _first(0, decpt) + [_POINT] + _second(decpt, decpt + 1)
                else:
                    body = _first(0, decpt) + [_POINT] + _second(decpt, n)
                table[neg, n, decpt - _FIXED_LO] = _mask(neg, body)
            mantissa = _first(0, 1) + ([_POINT] + _second(1, n) if n > 1 else [])
            table[neg, n, _EXP2] = _mask(
                neg, mantissa + [_E, _EXP_SIGN, _EXP_SIGN + 2, _EXP_SIGN + 3])
            table[neg, n, _EXP3] = _mask(
                neg, mantissa + [_E] + list(range(_EXP_SIGN, _EXP_SIGN + 4)))
        table[neg, :, _ZERO_CLASS] = _mask(neg, [_ZERO, _LEAD_POINT, _ZEROS])
        table[neg, :, _INF_CLASS] = _mask(neg, list(range(_INF, _INF + 3)))
        table[neg, :, _NAN_CLASS] = _mask(0, list(range(_NAN, _NAN + 3)))  # unsigned
    return table.reshape(-1, WIDTH)


def _fixed2_masks() -> np.ndarray:
    """The masks of every '%.2f' text, indexed [neg, nd, class] with nd >= 3
    digits of 100 |v| and class finite, infinity or nan."""
    def at(i):   # byte of digit i of 16
        return _F2_DIGIT + i if i < 12 else _F2_POINT - 14 + i + (i >= 14)

    table = np.zeros((2, _DIGITS + 1, 3, FIXED2_WIDTH), dtype=np.uint8)
    for neg in (0, 1):
        for nd in range(3, 17):
            body = [at(i) for i in range(16 - nd, 14)] + [_F2_POINT, at(14), at(15)]
            table[neg, nd, 0] = _mask(neg, body, FIXED2_WIDTH)
        inanf = [_F2_INANF + i for i in range(5)]
        table[neg, :, 1] = _mask(neg, [inanf[0], inanf[1], inanf[4]], FIXED2_WIDTH)
        table[neg, :, 2] = _mask(0, inanf[1:4], FIXED2_WIDTH)
    return table.reshape(-1, FIXED2_WIDTH)


@functools.cache
def _tables() -> SimpleNamespace:
    """The constant tables, built on first use and shared read-only: the
    words of the rows, the trailing zeros of each 4-digit word, the class
    of each decpt, the g table and the masks of each format."""
    groups = [f"{g:04d}" for g in range(10 ** 4)]
    t = SimpleNamespace(
        words=np.frombuffer(
            ("".join(groups) + "".join(f"{e:+04d}" for e in range(_EXP_LO, 1 - _EXP_LO))
             + "-\0" "0." ".\0\0\0" "einf" "nan\0").encode("ascii"), dtype=np.uint32),
        # the 4 digits of 0..9999 with a point after the second, in 8 bytes
        pointed=np.frombuffer("".join(g[:2] + "." + g[2:] + "\0\0\0" for g in groups)
                              .encode("ascii"), dtype=np.uint64),
        # the words of '%.2f' row columns 0, 6 and 7
        fixed2_words=np.frombuffer(b"-\0\0\0inanf\0\0\0", dtype=np.uint32),
        group_zeros=np.array([4] + [4 - len(g.rstrip("0")) for g in groups[1:]],
                             dtype=np.intp),
        decpt_class=np.array(
            [d - _FIXED_LO if _FIXED_LO <= d <= _FIXED_HI else _EXP2 if abs(d - 1) < 100
             else _EXP3 for d in range(_EXP_LO, 1 - _EXP_LO)], dtype=np.intp),
        g=_g_table(),
        repr_masks=_repr_masks(),
        fixed2_masks=_fixed2_masks(),
        count_masks=np.array([_mask(0, _first(0, nd)) for nd in range(_DIGITS + 1)]))
    for table in [*vars(t).values(), *t.g]:
        if isinstance(table, np.ndarray):
            table.setflags(write=False)
    return t


def _bits(flat):
    bits = flat.view(np.uint64)
    mag = bits & _MASK63
    return (bits >> _U(63)).astype(np.intp), mag, (mag >> _U(52)).astype(np.intp)


_ONE = np.float64(1.0).view(np.uint64)


def _repr_slice(t, v, cells):
    neg, mag, bq = _bits(v)
    zero, special = mag == 0, bq == 2047
    # zeros, infinities and nans take a stand-in value and their own class
    f, k = _shortest(t, np.where(zero | special, _ONE, mag))
    nd = _digit_count(f)
    decpt = nd + k
    groups = _write_rows(t, cells, f, nd, decpt + (_EXP_WORD - 1))
    # the trailing zeros of the aligned digits, word by word from the last
    zeros = t.group_zeros.take(groups[4])
    for j in (3, 2, 1):
        zeros += (zeros == 4 * (4 - j)) * t.group_zeros.take(groups[j])
    cls = t.decpt_class.take(decpt - _EXP_LO)
    np.putmask(cls, zero, _ZERO_CLASS)
    np.putmask(cls, special, np.where(mag & _FRACTION, _NAN_CLASS, _INF_CLASS))
    return t.repr_masks, (neg * (_DIGITS + 1) + _DIGITS - zeros) * _REPR_CLASSES + cls


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
    shift = np.clip(1075 - np.maximum(bq, 1), 0, 63).astype(np.uint64)
    whole = cents >> shift
    twice_rest = (cents - (whole << shift)) << _U(1)
    half = _U(1) << shift
    whole += (twice_rest > half) | ((twice_rest == half) & (whole & _U(1) == 1))
    whole *= finite
    nd = np.maximum(_digit_count(whole), 3)
    rows = cells.view(np.uint32)
    x = whole // _GROUP
    cells.view(np.uint64)[:, 2] = t.pointed.take(whole - x * _GROUP)
    for col in (3, 2, 1):
        q = x // _GROUP
        rows[:, col] = t.words.take(x - q * _GROUP)
        x = q
    for col, word in zip((0, 6, 7), t.fixed2_words):
        rows[:, col] = word
    cls = np.where(finite, 0, np.where(mag & _FRACTION, 2, 1))
    return t.fixed2_masks, (neg * (_DIGITS + 1) + nd) * 3 + cls


def fixed2_cells(values) -> np.ndarray:
    """The cells of `'%.2f' % v` for every value, as a (..., FIXED2_WIDTH)
    uint8 array.  The exact binary value is rounded to cents, ties to even;
    a finite value of magnitude 2^53 / 100 or more is a ValueError."""
    return _each_slice(_fixed2_slice, values, FIXED2_WIDTH)


def _count_slice(t, k, cells):
    f = k.astype(np.uint64)
    nd = np.maximum(_digit_count(f), 1)
    _write_rows(t, cells, f, nd)
    return t.count_masks, nd


def count_cells(counts) -> np.ndarray:
    """The cells of the decimal digits of every non-negative integer below
    10^17, as a (..., WIDTH) uint8 array."""
    return _each_slice(_count_slice, counts, dtype=np.int64)


def join_cells(cells, sep: str, end: str) -> str:
    """The text of a (rows, columns, width) array of cells: each row's
    cells joined by `sep`, every row followed by `end`.  The separators are
    written into the cells' last byte."""
    cells[:, :, -1] = ord(sep)
    cells[:, -1, -1] = ord(end)
    return cells.tobytes().translate(None, b"\0").decode("ascii")
