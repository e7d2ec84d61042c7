"""numtext against CPython: every cell is `repr(float(v))`, `'%.2f' % v` or
`str(k)`, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmc.numtext import count_cells, fixed2_cells, join_cells, repr_cells


def texts(cells):
    return [bytes(c).translate(None, b"\0").decode("ascii")
            for c in cells.reshape(-1, cells.shape[-1])]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert texts(repr_cells(values)) == [repr(float(v)) for v in values]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
def test_repr_of_any_bit_pattern(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_repr_of_random_bit_patterns():
    bits = np.random.default_rng(20261021).integers(0, 2 ** 64, 50_000, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_repr_of_random_magnitudes():
    rng = np.random.default_rng(7)
    assert_repr(rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000))


def _neighbours(values):
    return [w for v in values for w in (math.nextafter(v, -math.inf), v,
                                        math.nextafter(v, math.inf))]


EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
         5e-324, -5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308,
         2.225073858507201e-308, 1.7976931348623157e308, 0.1, 0.2, 0.3,
         1.0, 123.456, 1e22, 1e23, 12345678901234567890.0]


@pytest.mark.parametrize("name, values", [
    ("edges", EDGES),
    # the rounding interval of a power of two is asymmetric
    ("powers of two", _neighbours([s * 2.0 ** e for e in range(-1074, 1024)
                                   for s in (1.0, -1.0)])),
    ("integers around 2^53", [float(i) for i in range(2 ** 53 - 40, 2 ** 53 + 40)]),
    # fixed form for 1e-4 <= |v| < 1e16, exponent form outside
    ("form boundaries", _neighbours([1e-4, 1e-5, 1e16, 1e15, 9999999999999998.0,
                                     -1e-4, -1e16, 0.001, 0.01])),
    ("powers of ten", _neighbours([10.0 ** e for e in range(-323, 309)])),
    ("3-digit exponents", _neighbours([1.2345e100, 1e-100, 4.5e-310, 6.02e299])),
])
def test_repr_of_edge_classes(name, values):
    assert_repr(values)


def assert_fixed2(values):
    values = np.asarray(values, dtype=np.float64)
    assert texts(fixed2_cells(values)) == ["%.2f" % v for v in values]


def test_fixed2_of_random_values():
    rng = np.random.default_rng(11)
    assert_fixed2(np.concatenate([rng.uniform(-1000, 1000, 20_000),
                                  rng.uniform(-1, 1, 5_000) * 10.0 ** rng.integers(-12, 13, 5_000)]))


def test_fixed2_of_exact_binary_ties():
    # k/8 is exact, so the half-cent cases round to even
    assert_fixed2(np.arange(-8000, 8001) / 8)


def test_fixed2_of_small_negatives_and_specials():
    assert_fixed2([-0.0, 0.0, -1e-9, -0.004, -0.005, -0.0051, 5e-324, -5e-324,
                   math.nan, math.inf, -math.inf, 2.0 ** 53 / 100 * 0.999999])


def test_fixed2_refuses_what_it_cannot_round_exactly():
    with pytest.raises(ValueError, match="magnitudes below"):
        fixed2_cells([1.0, -2.0 ** 53 / 100])


def test_count_cells_and_join():
    counts = np.array([0, 7, 10, 999, 10 ** 16, 10 ** 17 - 1])
    assert texts(count_cells(counts)) == [str(k) for k in counts]
    cells = np.concatenate([count_cells([[1], [2]]), repr_cells([[0.5, -1e-7], [2.0, 3e20]])],
                           axis=1)
    assert join_cells(cells, ",", "\n") == "1,0.5,-1e-07\n2,2.0,3e+20\n"
