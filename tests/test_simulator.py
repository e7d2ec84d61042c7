import numpy as np
import pytest

from qsmc import (ConfigError, DisturbanceRangeError, DivergenceError,
                  NoiseSpec, Scenario, constant_signal, csv_header,
                  default_steady_window, export_csv,
                  measure_quasi_sliding, run, stability_over_T,
                  zero_signal)

from conftest import (ALPHA_BENCH, H_BENCH, H_UNSTABLE, T_BENCH, X0_BENCH,
                      rk4_states)


# --- scenario validation -----------------------------------------------------

def test_scenario_defaults(bench_plant):
    sc = Scenario(plant=bench_plant, H=H_BENCH, kind="mm1", T=0.01,
                  horizon=1.0, alpha=0.9)
    assert sc.disturbance.m == 2
    assert np.array_equal(sc.x0, np.zeros(4))
    assert sc.steps == 100


def test_scenario_step_count_rounding(bench_plant):
    mk = lambda T, horizon: Scenario(plant=bench_plant, H=H_BENCH, kind="mm1",
                                     T=T, horizon=horizon, alpha=0.9).steps
    assert mk(0.01, 20.0) == 2000
    assert mk(0.3, 1.0) == 3       # floor(1/0.3)
    assert mk(0.1, 0.3) == 3       # 0.3/0.1 droops below 3 in floats
    assert mk(0.1, 0.9999999) == 9  # a genuinely short horizon still floors


def test_scenario_rejects_bad_config(bench_plant):
    with pytest.raises(ConfigError):
        Scenario(plant=bench_plant, H=H_BENCH, kind="mm1", T=-0.01, horizon=1.0)
    with pytest.raises(ConfigError):
        Scenario(plant=bench_plant, H=H_BENCH, kind="mm1", T=0.01, horizon=0.0)
    with pytest.raises(ConfigError):
        Scenario(plant=bench_plant, H=H_BENCH, kind="mm1", T=0.01, horizon=1.0,
                 x0=np.zeros(3))


@pytest.mark.parametrize("T, horizon", [
    (np.nan, 1.0), (np.inf, 1.0), (0.01, np.nan), (0.01, np.inf), (0.0, 1.0),
])
def test_scenario_rejects_non_finite_timing(bench_plant, T, horizon):
    with pytest.raises(ConfigError, match="finite and positive"):
        Scenario(plant=bench_plant, H=H_BENCH, kind="mm1", T=T, horizon=horizon)


# --- record layout -----------------------------------------------------------

def test_record_count(bench_scenario):
    traj = run(bench_scenario)
    assert traj.x.shape[0] == 2001
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(20.0, abs=1e-9)
    assert len(traj.k) == len(traj.t) == len(traj.u) == 2001


def test_warmup_inputs_zero(bench_scenario):
    for kind, warm in (("eq", 1), ("m1", 1), ("mm1", 1), ("m2", 2), ("mm2", 2)):
        traj = run(bench_scenario.with_(kind=kind, horizon=0.5))
        assert np.array_equal(traj.u[:warm], np.zeros((warm, 2))), kind
        assert np.any(traj.u[warm] != 0.0), kind


def test_determinism_bit_identical(bench_scenario):
    noisy = bench_scenario.with_(
        noise=NoiseSpec(kind="uniform", halfwidth=0.005, seed=99), horizon=2.0)
    a = run(noisy)
    b = run(noisy)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.y, b.y)


def test_measured_vs_true_switching(bench_scenario):
    hw = 0.005
    noisy = bench_scenario.with_(
        noise=NoiseSpec(kind="uniform", halfwidth=hw, seed=3), horizon=2.0)
    traj = run(noisy)
    # s - s_true = H (measurement noise): bounded by the row sums of |H|
    room = np.max(np.sum(np.abs(H_BENCH), axis=1)) * hw
    assert np.max(np.abs(traj.s - traj.s_true)) <= room + 1e-15
    assert np.any(traj.s != traj.s_true)
    clean = run(bench_scenario.with_(horizon=2.0))
    assert np.allclose(clean.s, clean.s_true, atol=1e-15)


# --- oracle law ---------------------------------------------------------------

def test_equivalent_control_contracts_in_closed_loop(bench_scenario):
    traj = run(bench_scenario.with_(kind="eq", horizon=5.0))
    s = traj.s_true
    # after warmup every step contracts exactly: s[k+1] = alpha s[k]
    resid = s[2:] - ALPHA_BENCH * s[1:-1]
    assert np.max(np.abs(resid)) <= 1e-9


def test_eq_needs_the_disturbance_at_the_last_sample(bench_scenario):
    # eq feeds d[k] into u[k], so at the last sample it reads d[steps]; a
    # disturbance that ends at the horizon does not cover that sample
    sc = bench_scenario.with_(disturbance=constant_signal([0.5, -0.2], t_end=2.0),
                              horizon=2.0)
    with pytest.raises(DisturbanceRangeError, match="sample 200 "):
        run(sc.with_(kind="eq"))
    traj = run(sc)   # mm1 needs d[0..199] only
    # past its end the f column holds the disturbance's last defined value
    assert traj.f[-1].tolist() == [0.5, -0.2]


# --- the exact map vs the RK4 oracle -----------------------------------------

def test_exact_map_matches_rk4(bench_scenario):
    # every x[k + 1] against RK4 from the sample's own x[k] with u[k] held,
    # 1000 RK4 steps per sample
    sc = bench_scenario.with_(horizon=2.0)
    traj = run(sc)
    ref = rk4_states(sc.plant, sc.disturbance, traj.x[:-1], traj.u[:-1],
                     traj.t[:-1], sc.T, substeps=1, steps=1000)[:, -1]
    assert np.max(np.abs(traj.x[1:] - ref)) <= 1e-7


# --- divergence guard ----------------------------------------------------------

def test_divergence_raises_with_step(bench_scenario):
    sc = bench_scenario.with_(H=H_UNSTABLE, disturbance=zero_signal(2))
    with pytest.raises(DivergenceError) as err:
        run(sc)
    assert err.value.step == 1246
    assert err.value.norm > 1e12


def test_divergence_carries_closed_loop_radius(bench_scenario):
    # the radius of the loop that diverged, as stability_over_T reports it
    sc = bench_scenario.with_(H=H_UNSTABLE, disturbance=zero_signal(2))
    rho = stability_over_T(sc.plant, H_UNSTABLE, [sc.T],
                           alpha=sc.alpha).rows[0].rho_cl["mm1"]
    with pytest.raises(DivergenceError) as err:
        run(sc)
    assert err.value.rho_cl == rho
    assert rho > 1.0
    assert "rho" not in str(err.value)


# --- disturbance-free decay ------------------------------------------------------

def test_state_decays_without_disturbance(bench_scenario):
    sc = bench_scenario.with_(disturbance=zero_signal(2), horizon=30.0,
                              x0=X0_BENCH)
    traj = run(sc)
    norms = np.linalg.norm(traj.x, axis=1)
    assert norms[-1] < 1e-2 * norms[0]
    # the decay is monotone past the transient
    assert np.all(np.diff(norms[500:]) < 1e-6)


# --- steady window and bound measurement ----------------------------------------

def test_default_steady_window_benchmark(bench_signal):
    w = default_steady_window(bench_signal, 20.0)
    assert w[0] == pytest.approx(14.566370614359172, abs=1e-12)
    assert w[1] == pytest.approx(5.0 * np.pi, abs=1e-12)


def test_default_steady_window_fallback(bench_signal):
    # horizon ends before any still segment finishes: fall back to the tail
    w = default_steady_window(zero_signal(2), 10.0)
    assert w == (8.0, 10.0)
    w2 = default_steady_window(bench_signal, 8.0)
    assert w2 == (8.0 * 0.8, 8.0)


def test_measure_quasi_sliding_window_errors(bench_scenario):
    traj = run(bench_scenario.with_(horizon=1.0))
    with pytest.raises(ConfigError):
        measure_quasi_sliding(traj, (0.5, 2.0))
    with pytest.raises(ConfigError):
        measure_quasi_sliding(traj, (0.9, 0.2))
    sb, xb = measure_quasi_sliding(traj, (0.5, 1.0))
    assert sb > 0 and xb > 0


def test_summary_contents(bench_scenario):
    traj = run(bench_scenario)
    for key in ("u_peak", "steps", "T", "kind", "window", "s_bound", "x_bound"):
        assert key in traj.summary
    assert traj.summary["kind"] == "mm1"
    assert traj.summary["steps"] == 2000
    assert traj.summary["u_peak"] == traj.u_peak


# --- CSV export -------------------------------------------------------------------

def test_csv_header_layout():
    assert csv_header(4, 3, 2) == ("k,t,x1,x2,x3,x4,y1,y2,y3,"
                                   "s1,s2,strue1,strue2,u1,u2,f1,f2")
    assert csv_header(2, 2, 1) == "k,t,x1,x2,y1,y2,s1,strue1,u1,f1"


def csv_oracle(traj, path):
    """The former row-by-row writer: one repr(float(v)) per value."""
    n, p, m = traj.x.shape[1], traj.y.shape[1], traj.u.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_header(n, p, m) + "\n")
        for i in range(traj.x.shape[0]):
            row = ([f"{traj.k[i]:d}", repr(float(traj.t[i]))]
                   + [repr(float(v)) for v in traj.x[i]]
                   + [repr(float(v)) for v in traj.y[i]]
                   + [repr(float(v)) for v in traj.s[i]]
                   + [repr(float(v)) for v in traj.s_true[i]]
                   + [repr(float(v)) for v in traj.u[i]]
                   + [repr(float(v)) for v in traj.f[i]])
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("noise", [
    NoiseSpec(),
    NoiseSpec(kind="uniform", halfwidth=0.005, seed=20260815),
])
def test_csv_bytes_match_row_writer(tmp_path, bench_scenario, noise):
    traj = run(bench_scenario.with_(noise=noise))
    stacked, rows = tmp_path / "stacked.csv", tmp_path / "rows.csv"
    export_csv(traj, stacked)
    csv_oracle(traj, rows)
    assert stacked.read_bytes() == rows.read_bytes()


def test_csv_round_trip(tmp_path, bench_scenario):
    traj = run(bench_scenario.with_(horizon=0.2))
    path = tmp_path / "out.csv"
    export_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == csv_header(4, 3, 2)
    assert len(lines) == 1 + 21
    # full-precision round trip
    row = lines[6].split(",")
    k = int(row[0])
    assert k == 5
    got_x = np.array([float(v) for v in row[2:6]])
    assert np.array_equal(got_x, traj.x[k])
    got_f = np.array([float(v) for v in row[-2:]])
    assert np.array_equal(got_f, traj.f[k])


def test_csv_keeps_negative_zero(tmp_path, bench_scenario):
    # -0.0 and 0.0 compare equal but are distinct doubles; the CSV keeps
    # the sign, so a writer that shares the text of equal values must key
    # on the bit pattern
    traj = run(bench_scenario.with_(horizon=0.05))
    assert traj.u[0].tolist() == [0.0, 0.0]      # warm-up sample
    traj.u[0, 1] = -0.0
    path = tmp_path / "zeros.csv"
    export_csv(traj, path)
    header, first = path.read_text().split("\n")[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert (row["u1"], row["u2"]) == ("0.0", "-0.0")
    back = np.array([float(row["u1"]), float(row["u2"])])
    assert back.tobytes() == traj.u[0].tobytes()
    assert np.signbit(back).tolist() == [False, True]
