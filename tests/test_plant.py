import numpy as np
import pytest

from qsmc import (ConfigError, ContinuousPlant, DisturbanceSignal, NoiseSpec,
                  Segment, constant_signal, invariant_zeros, validate_plant,
                  zero_signal)
from qsmc.errors import DisturbanceRangeError
from qsmc.plant import ConstForm, CosForm, SinForm, ZeroForm

from conftest import A_BENCH, B_BENCH, C_BENCH


def test_plant_dimensions(bench_plant):
    assert (bench_plant.n, bench_plant.m, bench_plant.p) == (4, 2, 3)


def test_plant_shape_checks():
    with pytest.raises(ConfigError):
        ContinuousPlant(np.eye(3), np.ones((2, 1)), np.eye(3))
    with pytest.raises(ConfigError):
        ContinuousPlant(np.ones((2, 3)), np.ones((2, 1)), np.eye(2))
    with pytest.raises(ConfigError):
        ContinuousPlant(np.eye(2), np.ones((2, 1)), np.ones((2, 3)))


def test_validate_benchmark_ok(bench_plant):
    rep = validate_plant(bench_plant)
    assert rep.ok
    assert all(c.passed for c in rep.checks)


def test_validate_flags_rank_deficient_input():
    plant = ContinuousPlant(np.eye(3), np.zeros((3, 1)), np.eye(3)[:2])
    rep = validate_plant(plant)
    assert not rep.ok
    assert any("input" in c.name and not c.passed for c in rep.checks)


def test_validate_flags_square_output():
    # p < n advisory check: full-state measurement is flagged, not fatal
    plant = ContinuousPlant(np.eye(2), np.array([[1.0], [0.0]]), np.eye(2))
    rep = validate_plant(plant)
    assert any(not c.passed for c in rep.checks)


# --- disturbance forms -----------------------------------------------------

def test_form_values_and_derivatives():
    t = 1.7
    sin = SinForm(offset=1.0, amp=2.0, omega=0.5, phase=0.3)
    assert sin.value(t) == pytest.approx(1.0 + 2.0 * np.sin(0.5 * t + 0.3))
    assert sin.deriv(t) == pytest.approx(1.0 * np.cos(0.5 * t + 0.3))
    cos = CosForm(0.5, 2.0)
    assert cos.value(t) == pytest.approx(0.5 * np.cos(2.0 * t))
    assert cos.deriv(t) == pytest.approx(-1.0 * np.sin(2.0 * t))
    assert ConstForm(-3.0).value(t) == -3.0
    assert ConstForm(-3.0).deriv(t) == 0.0
    assert ZeroForm().value(t) == 0.0


def test_form_sup_bounds():
    sin = SinForm(offset=1.0, amp=2.0, omega=0.5)
    assert sin.sup_d1 == pytest.approx(1.0)
    assert sin.sup_d2 == pytest.approx(0.5)
    assert CosForm(0.5, 2.0).sup_d1 == pytest.approx(1.0)
    assert ConstForm(9.0).sup_d1 == 0.0
    assert ZeroForm().sup_d2 == 0.0


def test_form_derivative_matches_finite_difference():
    h = 1e-6
    for form in (SinForm(1.0, 1.0, 0.5), CosForm(0.5, 1.0),
                 SinForm(0.0, 2.0, 3.0, 0.7)):
        for t in (0.0, 0.4, 2.9, 11.0):
            fd = (form.value(t + h) - form.value(t - h)) / (2 * h)
            assert form.deriv(t) == pytest.approx(fd, abs=1e-6)


# --- piecewise signal ------------------------------------------------------

def test_benchmark_signal_values(bench_signal):
    assert np.allclose(bench_signal.value(5.0), [0.0, 0.0])
    assert np.allclose(bench_signal.value(12.0), [2.0, -0.5])
    expect = [1.0 + np.sin(0.5 * 20.0), 0.5 * np.cos(20.0)]
    assert np.allclose(bench_signal.value(20.0), expect)


def test_signal_half_open_boundaries(bench_signal):
    # value at a boundary belongs to the segment starting there
    assert np.allclose(bench_signal.value(10.0), [2.0, -0.5])
    t3 = 5.0 * np.pi
    expect = [1.0 + np.sin(0.5 * t3), 0.5 * np.cos(t3)]
    assert np.allclose(bench_signal.value(t3), expect)


def test_signal_is_continuous_at_joins(bench_signal):
    # the shipped benchmark disturbance was built with matching one-sided
    # limits at the second join only
    t3 = 5.0 * np.pi
    left = bench_signal.value_in_segment(1, t3)
    right = bench_signal.value_in_segment(2, t3)
    assert np.allclose(left, right, atol=1e-12)


def test_signal_range_error(bench_signal):
    with pytest.raises(DisturbanceRangeError):
        bench_signal.value(-0.5)
    finite = DisturbanceSignal([Segment(0.0, 1.0, (ZeroForm(),))])
    with pytest.raises(DisturbanceRangeError):
        finite.value(1.0)


def test_signal_requires_contiguity():
    with pytest.raises(ConfigError):
        DisturbanceSignal([
            Segment(0.0, 1.0, (ZeroForm(),)),
            Segment(1.5, 2.0, (ZeroForm(),)),
        ])
    with pytest.raises(ConfigError):
        DisturbanceSignal([Segment(1.0, 2.0, (ZeroForm(),))])


def test_signal_requires_uniform_channel_count():
    with pytest.raises(ConfigError):
        DisturbanceSignal([
            Segment(0.0, 1.0, (ZeroForm(), ZeroForm())),
            Segment(1.0, 2.0, (ZeroForm(),)),
        ])


def test_segment_index_and_boundaries(bench_signal):
    assert bench_signal.segment_index(0.0) == 0
    assert bench_signal.segment_index(10.0) == 1
    assert bench_signal.segment_index(100.0) == 2
    inner = bench_signal.boundaries_within(9.5, 16.0)
    assert np.allclose(inner, [10.0, 5.0 * np.pi])
    assert bench_signal.boundaries_within(0.0, 9.0) == []


def test_constant_and_zero_helpers():
    sig = constant_signal([2.0, -0.5])
    assert np.allclose(sig.value(123.0), [2.0, -0.5])
    zero = zero_signal(3)
    assert np.allclose(zero.value(7.0), [0.0, 0.0, 0.0])
    assert zero.m == 3


def test_derivative_evaluates_piecewise(bench_signal):
    assert np.allclose(bench_signal.derivative(5.0), [0.0, 0.0])
    t = 17.0
    expect = [0.5 * np.cos(0.5 * t), -0.5 * np.sin(t)]
    assert np.allclose(bench_signal.derivative(t), expect)
    assert bench_signal.deriv_bound(0) == 0.0
    # euclidean norm across channels: hypot(0.5, 0.5)
    assert bench_signal.deriv_bound(2) == pytest.approx(np.hypot(0.5, 0.5))


# --- measurement noise -----------------------------------------------------

def test_noise_none_is_exactly_zero():
    stream = NoiseSpec().stream()
    for _ in range(5):
        assert np.array_equal(stream.sample(3), np.zeros(3))


def test_noise_uniform_bounds_and_determinism():
    spec = NoiseSpec(kind="uniform", halfwidth=0.005, seed=20260815)
    a = np.array([spec.stream().sample(3) for _ in range(1)])
    b = np.array([spec.stream().sample(3) for _ in range(1)])
    assert np.array_equal(a, b)
    stream = spec.stream()
    samples = np.array([stream.sample(3) for _ in range(4000)])
    assert np.all(np.abs(samples) <= 0.005)
    assert abs(samples.mean()) < 2e-4


def test_noise_with_seed():
    spec = NoiseSpec(kind="uniform", halfwidth=0.01, seed=1)
    other = spec.with_seed(2)
    assert other.seed == 2 and other.halfwidth == 0.01
    a = spec.stream().sample(4)
    b = other.stream().sample(4)
    assert not np.array_equal(a, b)


# --- invariant zeros -------------------------------------------------------

def test_invariant_zeros_decoupled_diagonal():
    # with A = diag(-1,-2,-3), input entering only the third state and full
    # measurement, dropping the input channel leaves modes -1 and -2
    A = np.diag([-1.0, -2.0, -3.0])
    B = np.array([[0.0], [0.0], [1.0]])
    plant = ContinuousPlant(A, B, np.eye(3))
    zeros = invariant_zeros(plant)
    assert np.allclose(sorted(zeros), [-2.0, -1.0], atol=1e-8)


def test_invariant_zeros_two_state():
    plant = ContinuousPlant(-np.eye(2), np.array([[1.0], [0.0]]), np.eye(2))
    zeros = invariant_zeros(plant)
    assert np.allclose(zeros, [-1.0], atol=1e-8)


def test_invariant_zeros_benchmark():
    plant = ContinuousPlant(A_BENCH, B_BENCH, C_BENCH)
    zeros = invariant_zeros(plant)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(-0.17955502166299872, abs=1e-8)
