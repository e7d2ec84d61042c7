"""Every mask of numtext against CPython: for each sign, count of kept
digits and class of text, values that land on it, held to `repr(float(v))`,
`'%.2f' % v` or `str(k)`.  Random draws need not reach every mask, and one
wrong row of a table built by broadcasting would show only on its own key."""

import math

import numpy as np
import pytest

from qsmc.numtext import count_cells, fixed2_cells, repr_cells


def texts(cells):
    return [bytes(c).translate(None, b"\0").decode("ascii")
            for c in cells.reshape(-1, cells.shape[-1])]


def repr_key(text):
    """(negative, kept digits, decpt or exponent form) of a repr, or
    (negative, text) of a zero, an infinity or a nan."""
    neg, body = text.startswith("-"), text.lstrip("-")
    if body in ("0.0", "inf", "nan"):
        return neg, body
    mantissa, _, exp = body.partition("e")
    whole, _, frac = mantissa.partition(".")
    n = len((whole + frac).strip("0"))
    if exp:
        return neg, n, f"exp{len(exp) - 1}"
    return neg, n, len(whole) if whole != "0" else len(frac.lstrip("0")) - len(frac)


FIXED = range(-3, 17)
REPR_KEYS = ({(neg, n, d) for neg in (False, True) for n in range(1, 18) for d in FIXED}
             | {(neg, n, form) for neg in (False, True) for n in range(1, 18)
                for form in ("exp2", "exp3")}
             | {(neg, s) for neg in (False, True) for s in ("0.0", "inf")}
             | {(False, "nan")})


def landing(key, rng):
    """A double whose repr has the key (negative, n, decpt): an n-digit
    decimal at decpt, redrawn until its shortest digits are n long (below
    16 digits the first draw is)."""
    neg, n, decpt = key
    for _ in range(200):
        digits = int(rng.integers(10 ** (n - 1), 10 ** n)) // 10 * 10 + int(rng.integers(1, 10))
        v = float(f"{'-' if neg else ''}{digits}e{decpt - n}")
        if repr_key(repr(v))[1] == n:
            return v
    raise AssertionError(f"no double found for {key}")


def repr_pool():
    rng = np.random.default_rng(31)
    decpts = list(FIXED) + [-30, 30, -200, 200]   # then 2- and 3-digit exponents
    pool = [landing((neg, n, d), rng) for neg in (False, True)
            for n in range(1, 18) for d in decpts]
    return pool + [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]


def test_every_repr_key():
    pool = np.array(repr_pool())
    want = [repr(float(v)) for v in pool]
    assert {repr_key(text) for text in want} == REPR_KEYS
    assert texts(repr_cells(pool)) == want


def fixed2_key(text):
    return text.startswith("-"), sum(c.isdigit() for c in text) or text.lstrip("-")


FIXED2_KEYS = ({(neg, nd) for neg in (False, True) for nd in range(3, 17)}
               | {(False, "inf"), (True, "inf"), (False, "nan")})


def test_every_fixed2_key():
    # the cents 10^(nd - 1) + 7 and 10^nd - 3 of nd digits, either sign;
    # the largest lie below the bound 2^53 / 100
    cents = [c for nd in range(3, 17) for c in (10 ** (nd - 1) + 7, min(10 ** nd - 3, 2 ** 53 - 1))]
    pool = np.array([s * c / 100 for c in cents for s in (1, -1)]
                    + [0.001, -0.001, math.inf, -math.inf, math.nan, -math.nan])
    want = ["%.2f" % v for v in pool]
    assert {fixed2_key(text) for text in want} == FIXED2_KEYS
    assert texts(fixed2_cells(pool)) == want


def test_every_count_key():
    counts = np.array([0] + [c for n in range(1, 18) for c in (10 ** (n - 1), 10 ** n - 1)])
    assert texts(count_cells(counts)) == [str(k) for k in counts]


@pytest.mark.parametrize("bad", [-1, 10 ** 17, -(2 ** 63)])
def test_count_cells_refuses_what_it_cannot_write(bad):
    with pytest.raises(ValueError, match="count cells hold"):
        count_cells([3, bad])
