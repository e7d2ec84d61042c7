import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from qsmc import (AssumptionViolation, ConfigError, ContinuousPlant,
                  build_surface, discretize, input_annihilator)
from qsmc.surface import build_surface_raw

from qsmc.plant import random_surface_map
from qsmc.rng import Xoshiro256StarStar

from conftest import H_BENCH, T_BENCH


ROT_A = np.array([[0.0, np.pi], [-np.pi, 0.0]])
ROT_B = np.array([[1.0], [0.0]])


def rotation_plant():
    return ContinuousPlant(ROT_A, ROT_B, np.eye(2))


# --- annihilator -----------------------------------------------------------

def test_annihilator_kills_input(bench_plant):
    M = input_annihilator(bench_plant.B)
    assert M.shape == (2, 4)
    assert np.linalg.norm(M @ bench_plant.B) <= 1e-12 * np.linalg.norm(bench_plant.B)


def test_annihilator_orthonormal(bench_plant):
    M = input_annihilator(bench_plant.B)
    assert np.allclose(M @ M.T, np.eye(2), atol=1e-12)


def test_annihilator_deterministic(bench_plant):
    a = input_annihilator(bench_plant.B)
    b = input_annihilator(bench_plant.B)
    assert np.array_equal(a, b)


def test_annihilator_rejects_full_row_rank():
    with pytest.raises(ConfigError):
        input_annihilator(np.eye(2))


# --- normal form -----------------------------------------------------------

def test_inverse_blocks(bench_design):
    base = bench_design.base
    stacked = np.hstack([base.from_xi, base.from_s])
    assert np.allclose(base.to_normal @ stacked, np.eye(4), atol=1e-10)
    assert np.allclose(stacked @ base.to_normal, np.eye(4), atol=1e-10)


def test_reduced_range_lies_on_surface(bench_design):
    # columns of from_xi have s = H C x = 0: motion along them never moves s
    hc = bench_design.H @ bench_design.plant.C
    assert np.allclose(hc @ bench_design.base.from_xi, 0.0, atol=1e-12)
    # and the annihilator ignores from_s
    assert np.allclose(bench_design.annihilator @ bench_design.base.from_s, 0.0,
                       atol=1e-12)


def test_block_conjugation(bench_plant, bench_design):
    # [M; HC] A [from_xi from_s] reproduces the reduced blocks
    base = bench_design.base
    big = base.to_normal @ bench_plant.A @ np.hstack([base.from_xi, base.from_s])
    assert np.allclose(big[:2, :2], base.zero_dynamics, atol=1e-10)


def test_two_state_hand_example():
    # s = 0.8 x1 - 1.1 x2 with input on the second state: eliminating x2
    # leaves xi' = (1.3 - 0.7*0.8/1.1) xi + coupling * s
    A = np.array([[1.3, -0.7], [0.2, 0.4]])
    B = np.array([[0.0], [1.0]])
    plant = ContinuousPlant(A, B, np.eye(2))
    H = np.array([[0.8, -1.1]])
    base = build_surface_raw(plant, H)
    assert base.zero_dynamics.shape == (1, 1)
    assert base.zero_dynamics[0, 0] == pytest.approx(1.3 - 0.7 * 0.8 / 1.1,
                                                     abs=1e-12)


def test_zero_dynamics_spectrum_benchmark(bench_design):
    eigs = np.sort(np.linalg.eigvals(bench_design.base.zero_dynamics).real)
    # the transmission zero of the plant is basis-invariant and lands exactly;
    # the other eigenvalue was placed at -2 by a surface printed to 6 digits
    assert eigs[1] == pytest.approx(-0.17955502166299872, abs=1e-10)
    assert eigs[0] == pytest.approx(-2.0, abs=1e-4)


def test_basis_independence(bench_plant, bench_disc, monkeypatch):
    # any other annihilator basis U M gives the same reduced spectrum and
    # identical closed-loop surface blocks
    M = input_annihilator(bench_plant.B)
    rng = np.random.default_rng(11)
    U = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    d1 = build_surface(bench_plant, bench_disc, H_BENCH)
    monkeypatch.setattr("qsmc.surface.input_annihilator", lambda B: U @ M)
    d2 = build_surface(bench_plant, bench_disc, H_BENCH)
    e1 = np.sort_complex(np.linalg.eigvals(d1.base.zero_dynamics))
    e2 = np.sort_complex(np.linalg.eigvals(d2.base.zero_dynamics))
    assert np.allclose(e1, e2, atol=1e-8)
    assert np.allclose(d1.s_gain, d2.s_gain, atol=1e-12)
    assert np.allclose(d1.drift_from_s, d2.drift_from_s, atol=1e-12)
    ex1 = np.sort_complex(np.linalg.eigvals(d1.xi_step))
    ex2 = np.sort_complex(np.linalg.eigvals(d2.xi_step))
    assert np.allclose(ex1, ex2, atol=1e-8)


# --- assumption guards -----------------------------------------------------

def test_rejects_singular_output_coupling(bench_plant):
    # both surface rows drawn from the left null space of C B force
    # H C B = 0 exactly
    v = null_space((bench_plant.C @ bench_plant.B).T).T
    assert v.shape[0] == 1
    H = np.vstack([v, 2 * v])
    with pytest.raises(AssumptionViolation, match="singular"):
        build_surface_raw(bench_plant, H)


def test_rejects_wrong_surface_shape(bench_plant):
    with pytest.raises(ConfigError):
        build_surface_raw(bench_plant, np.ones((1, 3)))
    with pytest.raises(ConfigError):
        build_surface_raw(bench_plant, np.ones((2, 4)))


def test_rotation_plant_coupling_vanishes_at_resonance():
    # at T = 1 the held rotation averages the first input direction to zero
    plant = rotation_plant()
    H = np.array([[1.0, 0.0]])
    with pytest.raises(AssumptionViolation, match="T = 1.0"):
        build_surface(plant, discretize(plant, 1.0), H)
    # away from resonance the design goes through
    design = build_surface(plant, discretize(plant, 0.1), H)
    assert design.s_gain_cond == pytest.approx(1.0, abs=1e-9)


def test_sampled_coupling_near_continuous_limit(bench_design, bench_plant):
    # as T -> 0 the sampled coupling approaches H C B
    hcb = H_BENCH @ bench_plant.C @ bench_plant.B
    design = build_surface(bench_plant, discretize(bench_plant, 1e-4), H_BENCH)
    rel = abs(design.s_gain_cond - np.linalg.cond(hcb)) / np.linalg.cond(hcb)
    assert rel < 0.01
    gap = np.linalg.norm(design.s_gain - hcb) / np.linalg.norm(hcb)
    assert gap < 1e-3


def test_discrete_blocks_identities(bench_plant, bench_disc, bench_design):
    hc = H_BENCH @ bench_plant.C
    assert np.allclose(bench_design.s_gain, hc @ bench_disc.input_rate, atol=0)
    assert np.allclose(bench_design.drift_from_xi,
                       hc @ bench_disc.drift_rate @ bench_design.base.from_xi, atol=0)
    assert np.allclose(
        bench_design.xi_step,
        np.eye(2) + T_BENCH * bench_design.annihilator @ bench_disc.drift_rate
        @ bench_design.base.from_xi, atol=0)
    assert np.allclose(bench_design.s_gain_inv @ bench_design.s_gain, np.eye(2),
                       atol=1e-12)


def test_benchmark_coupling_conditioned_over_periods(bench_plant):
    for T in (0.1, 0.01, 0.001):
        design = build_surface(bench_plant, discretize(bench_plant, T), H_BENCH)
        assert design.s_gain_cond < 50


def test_certify_rotation_plant_mixed():
    # per period: singular at T = 1.0, invertible at 0.5 and 0.1
    plant = rotation_plant()
    H = np.array([[1.0, 0.0]])
    with pytest.raises(AssumptionViolation, match="T = 1.0"):
        build_surface(plant, discretize(plant, 1.0), H)
    for T in (0.5, 0.1):
        design = build_surface(plant, discretize(plant, T), H)
        assert np.isfinite(design.s_gain_cond)
        assert np.allclose(design.s_gain_inv @ design.s_gain, np.eye(1), atol=1e-12)


def _former_checks(plant, H, T):
    """build_surface's outcome as its checks read with np.linalg.norm(., 2),
    np.linalg.cond and a separate smallest singular value: the message of
    its refusal, or s_gain's condition number."""
    norm = lambda mat: np.linalg.norm(mat, 2)
    smallest = lambda mat: float(np.linalg.svd(mat, compute_uv=False)[-1])
    hcb = H @ plant.C @ plant.B
    scale = norm(H) * norm(plant.C) * norm(plant.B)
    if smallest(hcb) <= 1e-12 * max(scale, 1e-300) or np.linalg.cond(hcb) > 1e12:
        return ("H C B is singular: the surface design requires an invertible "
                "output-to-input coupling")
    to_normal = np.vstack([input_annihilator(plant.B), H @ plant.C])
    if np.linalg.cond(to_normal) > 1e12:
        return ("normal-form transformation [M; H C] is singular; H does not "
                "complete the annihilator to a basis")
    disc = discretize(plant, T)
    s_gain = H @ plant.C @ disc.input_rate
    scale = norm(H) * norm(plant.C) * norm(disc.input_rate)
    cond = float(np.linalg.cond(s_gain))
    relative = smallest(s_gain) / max(scale, 1e-300)
    if relative <= 1e-12:
        return (f"sampled surface-to-input coupling is singular at T = {T} "
                f"(smallest singular value {relative:.3e} of |H| |C| |input_rate|)")
    if cond > 1e12:
        return f"sampled surface-to-input coupling is singular at T = {T} (cond = {cond:.3e})"
    return cond


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       defect=st.sampled_from((None, "repeated-row", "near-repeated-row", "zero-H",
                               "tiny-B", "huge-H", "half-turn")))
def test_surface_figures_from_one_svd_match_norm_and_cond(seed, defect):
    # a random plant and surface as the random-plant batch tests draw them,
    # some made singular or nearly so: each figure comes from one SVD per
    # matrix, and the outcome must be the one norm and cond give.  A huge H
    # leaves H C B's relative test alone but makes [M; H C] ill-conditioned;
    # over half a turn of a rotation the held input comes out at right
    # angles to B, so H C = B^T leaves H C B invertible and the sampled
    # coupling singular
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.005, 0.1))
    n = 2 if defect == "half-turn" else int(rng.integers(2, 6))
    m = int(rng.integers(1, n))
    p = n if defect == "half-turn" else int(rng.integers(m, n))
    A = rng.standard_normal((n, n))
    if defect == "half-turn":
        A = np.pi / T * np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = rng.standard_normal((n, m)) * (1e-150 if defect == "tiny-B" else 1.0)
    plant = ContinuousPlant(A, B, rng.standard_normal((p, n)))
    H = random_surface_map(Xoshiro256StarStar(seed), m, p)
    if defect == "half-turn":
        H = B.T @ np.linalg.inv(plant.C)
    elif defect == "zero-H":
        H[:] = 0.0
    elif defect == "huge-H":
        H *= 1e13
    elif defect in ("repeated-row", "near-repeated-row") and m > 1:
        H[-1] = H[0] * (1 + (1e-14 if defect == "near-repeated-row" else 0.0))
    want = _former_checks(plant, H, T)
    try:
        design = build_surface(plant, discretize(plant, T), H)
    except AssumptionViolation as exc:
        assert str(exc) == want
    else:
        assert design.s_gain_cond == want == np.linalg.cond(design.s_gain)
