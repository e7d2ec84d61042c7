"""Acceptance battery: one test per shipped claim, one PASS/FAIL line each.

Each test prints `acceptance N: PASS|FAIL ...` and the same lines are
collected into acceptance_report.txt next to the test run.  Two claims are
known not to hold on the shipped benchmark and their tests fail honestly;
the numbers are printed so the gap is visible, not hidden.
"""

import time

import numpy as np
import pytest

from qsmc import (aircraft_benchmark, augmented_vs_direct, build_surface,
                  check_memory_spectrum, difference_diagnostics, discretize,
                  invariant_zeros, load_aircraft_scenario, make_gains,
                  measure_quasi_sliding, run, stability_over_T, zero_signal)

from conftest import ALPHA_BENCH, BETA_BENCH, H_BENCH, law_form

_LINES = []


def _verdict(num: int, ok: bool, detail: str) -> bool:
    line = f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    _LINES.append(line)
    return ok


@pytest.fixture(scope="session", autouse=True)
def _write_report():
    yield
    with open("acceptance_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(_LINES) + "\n")


@pytest.fixture(scope="module")
def clean_benchmark():
    return aircraft_benchmark(noise=False)


@pytest.fixture(scope="module")
def bench_file():
    return load_aircraft_scenario()


def test_criterion_1_noise_free_peaks(clean_benchmark):
    """Peak input of each controller on the nominal run, within 30% of the
    published levels; each 20 s run under 5 s of wall clock."""
    expected = {"m1": 23.0, "m2": 25.0, "mm1": 2.0, "mm2": 2.0}
    rows = []
    ok = True
    for kind, nominal in expected.items():
        got = clean_benchmark.peak_median[kind]
        rel = got / nominal - 1.0
        inside = abs(rel) <= 0.30
        ok &= inside
        rows.append(f"{kind}={got:.3f} vs {nominal} ({rel:+.1%})")
        runtime = clean_benchmark.runs[kind].runtime
        ok &= runtime < 5.0
    passed = _verdict(1, ok, "; ".join(rows))
    assert passed, "mm2 exceeds its band; see acceptance_report.txt and docs"


def test_criterion_2_noisy_peak_medians(bench_file):
    """Same peaks under +-0.005 uniform output noise, medianed over ten
    seeds, within 40%."""
    seeds = tuple(range(20260815, 20260825))
    rep = aircraft_benchmark(noise=True, seeds=seeds)
    expected = {"m1": 24.0, "m2": 23.0, "mm1": 3.0, "mm2": 4.0}
    rows = []
    ok = True
    for kind, nominal in expected.items():
        got = rep.peak_median[kind]
        rel = got / nominal - 1.0
        ok &= abs(rel) <= 0.40
        rows.append(f"{kind}={got:.3f} vs {nominal} ({rel:+.1%})")
    assert _verdict(2, ok, "; ".join(rows))


def test_criterion_3_memory_spectrum_100_draws():
    """The controller-memory spectrum is {alpha x m, 0 x rest} for random
    couplings: characteristic coefficients within 1e-8 on 100 draws."""
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.0, 0.995))
        T = float(10 ** rng.uniform(-3, -1))
        cpl = rng.standard_normal((m, m))
        variant = "aug1" if i % 2 == 0 else "aug2"
        rep = check_memory_spectrum(alpha, T, cpl, variant)
        worst = max(worst, rep.max_coeff_error)
    assert _verdict(3, worst <= 1e-8, f"worst coefficient error {worst:.3e}")


def test_criterion_4_stability_and_decay(bench_file):
    """Both augmented spectral radii below one at the nominal design point,
    and the unforced closed loop settles below 1e-6."""
    sc = bench_file.scenario
    rep = stability_over_T(sc.plant, sc.H, [sc.T], alpha=ALPHA_BENCH)
    row = rep.rows[0]
    radii_ok = row.rho_aug1 < 1.0 and row.rho_aug2 < 1.0
    quiet = sc.with_(disturbance=zero_signal(2), horizon=90.0)
    traj = run(quiet)
    norms = np.linalg.norm(traj.x, axis=1)
    decayed = bool(np.any(norms < 1e-6)) and norms[-1] < 1e-6
    t_hit = float(traj.t[int(np.argmax(norms < 1e-6))]) if decayed else -1.0
    ok = radii_ok and decayed
    assert _verdict(4, ok,
                    f"rho1={row.rho_aug1:.6f}, rho2={row.rho_aug2:.6f}, "
                    f"|x| < 1e-6 from t={t_hit:.2f}s, final={norms[-1]:.2e}")


def test_criterion_5_accuracy_order_ladder(bench_file):
    """Slopes of steady-surface bound, steady-state bound and input peak over
    the period ladder, beta fixed; whole sweep under two minutes."""
    t_start = time.perf_counter()
    sc = bench_file.scenario
    ladder = (0.02, 0.01, 0.005, 0.0025)
    window = (14.566370614359172, 15.707963267948966)
    bands = {
        ("m1", "s_bound"): (1.7, 2.3), ("m2", "s_bound"): (2.7, 3.3),
        ("mm1", "s_bound"): (0.7, 1.3), ("mm2", "s_bound"): (1.7, 2.3),
        ("m1", "x_bound"): (0.7, 1.3), ("m2", "x_bound"): (0.7, 1.3),
        ("mm1", "x_bound"): (0.7, 1.3), ("mm2", "x_bound"): (0.7, 1.3),
        ("m1", "u_peak"): (-1.3, -0.7), ("m2", "u_peak"): (-1.3, -0.7),
        ("mm1", "u_peak"): (-0.3, 0.3), ("mm2", "u_peak"): (-0.3, 0.3),
    }
    metrics: dict = {}
    for kind in ("m1", "m2", "mm1", "mm2"):
        for T in ladder:
            cfg = sc.with_(kind=kind, T=T, alpha=None, beta=BETA_BENCH)
            traj = run(cfg)
            sb, xb = measure_quasi_sliding(traj, window)
            metrics[(kind, T, "s_bound")] = sb
            metrics[(kind, T, "x_bound")] = xb
            metrics[(kind, T, "u_peak")] = traj.u_peak
    rows = []
    ok = True
    lt = np.log(ladder)
    for (kind, metric), (lo, hi) in bands.items():
        lv = np.log([metrics[(kind, T, metric)] for T in ladder])
        slope = float(np.polyfit(lt, lv, 1)[0])
        inside = lo <= slope <= hi
        ok &= inside
        rows.append(f"{kind}/{metric}={slope:+.2f}"
                    + ("" if inside else f" (want [{lo}, {hi}])"))
    elapsed = time.perf_counter() - t_start
    ok &= elapsed < 120.0
    passed = _verdict(5, ok, "; ".join(rows) + f"; elapsed {elapsed:.0f}s")
    assert passed, "x_bound slopes are flat on this benchmark; see docs"


def test_criterion_6_formulation_equivalence(bench_file):
    """The program's hand-folded taps and the estimate taps of the test
    oracle, each run through the simulator, agree to 1e-10 over the full
    benchmark; the augmented recursion reproduces the direct simulation to
    1e-8."""
    sc = bench_file.scenario
    worst_forms = 0.0
    for kind in ("m1", "m2", "mm1", "mm2"):
        rec = run(sc.with_(kind=kind))
        with law_form("estimate"):
            est = run(sc.with_(kind=kind))
        worst_forms = max(worst_forms, float(np.max(np.abs(rec.u - est.u))))
    design = build_surface(sc.plant, discretize(sc.plant, sc.T), sc.H)
    gains = make_gains(design, alpha=ALPHA_BENCH)
    worst_aug = 0.0
    for kind, variant in (("mm1", "aug1"), ("mm2", "aug2"),
                          ("m1", "aug1"), ("m2", "aug2")):
        gap = augmented_vs_direct(design, gains, variant, sc.with_(kind=kind))
        worst_aug = max(worst_aug, gap)
    ok = worst_forms <= 1e-10 and worst_aug <= 1e-8
    assert _verdict(6, ok, f"form gap {worst_forms:.2e}, "
                           f"augmented gap {worst_aug:.2e}")


def test_criterion_7_sampled_disturbance_differences(bench_file):
    """First differences of the sampled disturbance shrink like T^2 (factor
    4 +-20% per halving), second differences like T^3 (factor 8 +-20%), and
    the first-difference size matches its T^2 B f' scale within 1.5x."""
    sc = bench_file.scenario
    plant, sig = sc.plant, sc.disturbance
    reps = {}
    preds = {}
    for T, count in ((0.02, 9), (0.01, 17)):
        k0 = int(round(16.0 / T))
        reps[T] = difference_diagnostics(plant, T, sig, range(k0, k0 + count))
        ts = np.arange(k0, k0 + count) * T
        preds[T] = T ** 2 * max(np.linalg.norm(plant.B @ sig.derivative(t))
                                for t in ts)
    f1 = reps[0.02].first_diff_max / reps[0.01].first_diff_max
    f2 = reps[0.02].second_diff_max / reps[0.01].second_diff_max
    ratio = reps[0.01].first_diff_max / preds[0.01]
    ok = (3.2 <= f1 <= 4.8 and 6.4 <= f2 <= 9.6
          and 1.0 / 1.5 <= ratio <= 1.5)
    assert _verdict(7, ok, f"shrink factors {f1:.2f}/{f2:.2f}, "
                           f"scale ratio {ratio:.2f}")


def test_criterion_8_reduced_dynamics_placement(bench_file):
    """The plant's transmission zero shows up in the reduced dynamics along
    with the surface-assigned eigenvalue at -2."""
    sc = bench_file.scenario
    zeros = invariant_zeros(sc.plant)
    zero_ok = len(zeros) == 1 and abs(zeros[0] - (-0.1796)) <= 1e-2
    design = build_surface(sc.plant, discretize(sc.plant, sc.T), H_BENCH)
    eigs = np.linalg.eigvals(design.base.zero_dynamics)
    placed_ok = bool(np.any(np.abs(eigs - (-2.0)) <= 1e-2))
    carried_ok = bool(np.any(np.abs(eigs - zeros[0]) <= 1e-6))
    ok = zero_ok and placed_ok and carried_ok
    assert _verdict(8, ok, f"transmission zero {zeros[0]:.4f}, "
                           f"reduced eigs {np.sort(eigs.real)}")
