from dataclasses import replace

import numpy as np
import pytest

from qsmc import (ConfigError, ContinuousPlant, DisturbanceSignal, NoiseSpec,
                  Segment, constant_signal, invariant_zeros, zero_signal)
from qsmc.errors import DisturbanceRangeError
from qsmc.plant import ConstForm, CosForm, SinForm, ZeroForm

from conftest import (A_BENCH, B_BENCH, C_BENCH, form_value, segment_of,
                      segment_value)


def test_plant_dimensions(bench_plant):
    assert (bench_plant.n, bench_plant.m, bench_plant.p) == (4, 2, 3)


def test_plant_shape_checks():
    with pytest.raises(ConfigError):
        ContinuousPlant(np.eye(3), np.ones((2, 1)), np.eye(3))
    with pytest.raises(ConfigError):
        ContinuousPlant(np.ones((2, 3)), np.ones((2, 1)), np.eye(2))
    with pytest.raises(ConfigError):
        ContinuousPlant(np.eye(2), np.ones((2, 1)), np.ones((2, 3)))


# --- disturbance forms -----------------------------------------------------

def _alone(form):
    """form as the one channel of a signal over [0, inf)."""
    return DisturbanceSignal([Segment(0.0, np.inf, (form,))])


def _deriv(form, t):
    """f'(t) of one form, read from its exosystem."""
    return _alone(form).derivative(t)[0]


def test_form_values_and_derivatives():
    t = 1.7
    sin = SinForm(offset=1.0, amp=2.0, omega=0.5, phase=0.3)
    assert _alone(sin).value(t)[0] == pytest.approx(1.0 + 2.0 * np.sin(0.5 * t + 0.3))
    assert _deriv(sin, t) == pytest.approx(1.0 * np.cos(0.5 * t + 0.3))
    cos = CosForm(0.5, 2.0)
    assert _alone(cos).value(t)[0] == pytest.approx(0.5 * np.cos(2.0 * t))
    assert _deriv(cos, t) == pytest.approx(-1.0 * np.sin(2.0 * t))
    assert _alone(ConstForm(-3.0)).value(t)[0] == -3.0
    assert _deriv(ConstForm(-3.0), t) == 0.0
    assert _alone(ZeroForm()).value(t)[0] == 0.0
    assert _deriv(ZeroForm(), t) == 0.0


def test_form_sup_bounds():
    sin = SinForm(offset=1.0, amp=2.0, omega=0.5)
    assert sin.sup_d1 == pytest.approx(1.0)
    assert CosForm(0.5, 2.0).sup_d1 == pytest.approx(1.0)
    assert ConstForm(9.0).sup_d1 == 0.0


def test_form_derivative_matches_finite_difference():
    # the exosystem that d[k] is built from, against the closed-form value
    h = 1e-6
    for form in (SinForm(1.0, 1.0, 0.5), CosForm(0.5, 1.0),
                 SinForm(0.0, 2.0, 3.0, 0.7)):
        for t in (0.0, 0.4, 2.9, 11.0):
            fd = (form_value(form, t + h) - form_value(form, t - h)) / (2 * h)
            assert _deriv(form, t) == pytest.approx(fd, abs=1e-6)


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
    left = segment_value(bench_signal, 1, t3)
    right = segment_value(bench_signal, 2, t3)
    assert np.allclose(left, right, atol=1e-12)


def test_signal_range_error(bench_signal):
    finite = DisturbanceSignal([Segment(0.0, 1.0, (ZeroForm(),))])
    for sig, t, text in ((bench_signal, -0.5, "t = -0.5 outside defined range [0, inf)"),
                         (finite, 1.0, "t = 1.0 outside defined range [0, 1.0)")):
        for read in (sig.value, sig.derivative):
            with pytest.raises(DisturbanceRangeError) as err:
                read(t)
            assert str(err.value) == text


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


def test_owner_and_boundaries(bench_signal):
    # half-open segments: a join belongs to the segment it starts
    t3 = 5.0 * np.pi
    for t, idx in ((0.0, 0), (10.0, 1), (t3, 2), (100.0, 2)):
        assert bench_signal.owner(t) == idx
    times = np.array([0.0, 9.99, 10.0, np.nextafter(t3, 0), t3, 1e6])
    assert bench_signal.owner(times).tolist() == [0, 0, 1, 1, 2, 2]
    assert bench_signal.owner(times).tolist() == [segment_of(bench_signal, t)
                                                  for t in times]
    for bad in (-0.5, np.array([1.0, -1e-9])):
        with pytest.raises(DisturbanceRangeError, match="outside defined range"):
            bench_signal.owner(bad)
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
    other = replace(spec, seed=2)
    assert other.seed == 2 and other.halfwidth == 0.01
    a = spec.stream().sample(4)
    b = other.stream().sample(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("kw, field", [
    (dict(kind="pink"), "kind"), (dict(halfwidth=-1.0), "halfwidth"),
    (dict(halfwidth=float("nan")), "halfwidth"), (dict(seed=2 ** 64), "seed"),
], ids=["kind", "halfwidth-negative", "halfwidth-nan", "seed"])
def test_noise_spec_refuses_with_field(kw, field):
    with pytest.raises(ConfigError) as err:
        NoiseSpec(**kw)
    assert err.value.field == field


def test_disturbance_refuses_with_field():
    zero = (ZeroForm(),)
    for segments in ((), (Segment(0.0, 1.0, zero), Segment(2.0, 3.0, zero)),
                     (Segment(0.0, 1.0, zero), Segment(1.0, 2.0, zero * 2))):
        with pytest.raises(ConfigError) as err:
            DisturbanceSignal(segments)
        assert err.value.field == "disturbance"


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


def test_invariant_zeros_propagates_foreign_errors(monkeypatch):
    # a random H may fail the surface's assumptions and is redrawn; any
    # other error is a fault and must not turn into "not enough surfaces"
    import qsmc.surface

    def broken(plant, H):
        raise RuntimeError("injected")

    monkeypatch.setattr(qsmc.surface, "build_surface_raw", broken)
    with pytest.raises(RuntimeError, match="injected"):
        invariant_zeros(ContinuousPlant(A_BENCH, B_BENCH, C_BENCH))
