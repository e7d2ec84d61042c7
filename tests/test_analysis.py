import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmc import (ConfigError, build_aug, build_surface, charpoly,
                  check_memory_spectrum, closed_loop, contraction_alpha,
                  discretize, law_taps, memory_block, stability_over_T)

from conftest import (ALPHA_BENCH, BETA_BENCH, H_BENCH, H_UNSTABLE, T_BENCH,
                      augmented_vs_direct, disturbance_vector, variant_for_kind)


# --- characteristic polynomial ----------------------------------------------

def test_charpoly_hand_2x2():
    coeffs = charpoly(np.array([[2.0, 1.0], [0.0, 3.0]]))
    assert np.allclose(coeffs, [1.0, -5.0, 6.0], atol=1e-13)


def test_charpoly_zero_matrix():
    assert np.allclose(charpoly(np.zeros((3, 3))), [1, 0, 0, 0], atol=0)


def test_charpoly_companion():
    # companion matrix of p(x) = x^3 - 2x^2 + 3x - 4
    comp = np.array([[2.0, -3.0, 4.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(charpoly(comp), [1.0, -2.0, 3.0, -4.0], atol=1e-12)


def test_charpoly_matches_eigenvalue_route():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        A = (A + A.T) / 2  # symmetric: eigenvalues well conditioned
        ours = charpoly(A)
        ref = np.poly(np.linalg.eigvalsh(A))
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(ours - ref)) / scale <= 1e-10


# --- memory block -----------------------------------------------------------

def test_memory_block_hand_case():
    # m = 1, no surface drift, alpha = 0.5: the 2x2 block is explicit and its
    # spectrum is {0.5, 0}
    blk = memory_block(0.5, 0.01, np.zeros((1, 1)), "aug1")
    assert np.allclose(blk, [[1.0, 1.0], [-0.5, -0.5]], atol=0)
    assert np.allclose(charpoly(blk), [1.0, -0.5, 0.0], atol=1e-15)


def test_memory_block_dimensions():
    cpl = np.ones((2, 2))
    assert memory_block(0.9, 0.01, cpl, "aug1").shape == (4, 4)
    assert memory_block(0.9, 0.01, cpl, "aug2").shape == (8, 8)
    with pytest.raises(ConfigError):
        memory_block(0.9, 0.01, cpl, "aug3")


def test_memory_spectrum_deadbeat():
    # alpha = 0: every memory eigenvalue sits at the origin
    rng = np.random.default_rng(7)
    cpl = rng.standard_normal((2, 2))
    for variant in ("aug1", "aug2"):
        rep = check_memory_spectrum(0.0, 0.05, cpl, variant)
        assert rep.ok(1e-10)
        assert np.allclose(rep.expected[1:], 0.0, atol=0)


def test_memory_spectrum_bench_design(bench_design):
    rep1, rep2 = (check_memory_spectrum(ALPHA_BENCH, bench_design.T,
                                        bench_design.drift_from_s, variant)
                  for variant in ("aug1", "aug2"))
    assert rep1.ok(1e-12) and rep2.ok(1e-12)
    assert rep1.variant == "aug1" and rep2.variant == "aug2"
    assert rep1.m == 2 and rep1.alpha == ALPHA_BENCH


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    alpha=st.floats(0.0, 0.999),
    T=st.floats(1e-4, 0.2),
    seed=st.integers(0, 2**31),
)
def test_memory_spectrum_invariant_under_coupling(m, alpha, T, seed):
    # the spectrum {alpha x m, 0 x rest} holds for every coupling, not just
    # the shipped design's
    rng = np.random.default_rng(seed)
    cpl = 2.0 * rng.uniform(-1, 1, size=(m, m))
    for variant in ("aug1", "aug2"):
        rep = check_memory_spectrum(alpha, T, cpl, variant)
        assert rep.ok(1e-8), (variant, rep.max_coeff_error)


# --- augmented assembly -----------------------------------------------------

def test_variant_for_kind():
    assert variant_for_kind("m1") == "aug1"
    assert variant_for_kind("mm1") == "aug1"
    assert variant_for_kind("eq") == "aug1"
    assert variant_for_kind("m2") == "aug2"
    assert variant_for_kind("mm2") == "aug2"


def test_build_aug_dimensions(bench_design):
    a1 = build_aug(bench_design, ALPHA_BENCH, "aug1")
    a2 = build_aug(bench_design, ALPHA_BENCH, "aug2")
    assert a1.shape == (6, 6)
    assert a2.shape == (10, 10)
    # top-left block is the reduced-motion step in both variants
    assert np.array_equal(a1[:2, :2], bench_design.xi_step)
    assert np.array_equal(a2[:2, :2], bench_design.xi_step)
    with pytest.raises(ConfigError):
        build_aug(bench_design, ALPHA_BENCH, "aug9")


def test_disturbance_vector_assembly(bench_design):
    d_xi = np.array([1.0, -2.0])
    d_s = np.array([0.5, 0.25])
    T, a = bench_design.T, ALPHA_BENCH
    cpl = bench_design.drift_from_s
    v1 = disturbance_vector(bench_design, a, "aug1", d_xi, d_s)
    assert v1.shape == (6,)
    tail = -(((2 - a) * np.eye(2) + T * cpl) @ d_s)
    assert np.allclose(v1, np.concatenate([d_xi, d_s, tail]), atol=0)
    v2 = disturbance_vector(bench_design, a, "aug2", d_xi, d_s)
    assert v2.shape == (10,)
    assert np.allclose(v2[4:6], 0.0, atol=0) and np.allclose(v2[8:], 0.0, atol=0)
    tail2 = -(((3 - a) * np.eye(2) + T * cpl) @ d_s)
    assert np.allclose(v2[6:8], tail2, atol=0)


# --- stability over sampling periods ----------------------------------------

def test_stability_benchmark_point(bench_plant):
    # 1 - BETA_BENCH T_BENCH is ALPHA_BENCH to the bit
    rep = stability_over_T(bench_plant, H_BENCH, [T_BENCH], beta=BETA_BENCH)
    row = rep.rows[0]
    assert row.certified
    assert row.rho_aug1 == pytest.approx(0.9982520070918972, abs=1e-10)
    assert row.rho_aug2 == pytest.approx(0.9982058640351513, abs=1e-10)
    assert rep.all_certified
    assert rep.largest_certified == T_BENCH


def test_stability_margin_scales_with_period(bench_plant):
    # with the contraction rate fixed in time, the stability margin 1 - rho
    # closes linearly in T
    T_list = [0.04, 0.02, 0.01, 0.005]
    rep = stability_over_T(bench_plant, H_BENCH, T_list, beta=BETA_BENCH)
    assert rep.all_certified
    margins1 = np.array([1.0 - r.rho_aug1 for r in rep.rows])
    margins2 = np.array([1.0 - r.rho_aug2 for r in rep.rows])
    Ts = np.array([r.T for r in rep.rows])
    slope1 = np.polyfit(np.log(Ts), np.log(margins1), 1)[0]
    slope2 = np.polyfit(np.log(Ts), np.log(margins2), 1)[0]
    assert 0.6 <= slope1 <= 1.4
    assert 0.6 <= slope2 <= 1.4
    # alpha recomputed per T: 1 - alpha = beta T
    for r in rep.rows:
        assert r.alpha == pytest.approx(1.0 - BETA_BENCH * r.T, abs=1e-14)


def test_stability_flags_destabilizing_surface(bench_plant):
    rep = stability_over_T(bench_plant, H_UNSTABLE, [0.02, 0.01, 0.005],
                           beta=BETA_BENCH)
    assert not rep.all_certified
    assert rep.largest_certified is None
    assert all(r.rho_aug1 > 1.0 for r in rep.rows)


def test_stability_needs_rate():
    with pytest.raises(ConfigError, match="need alpha or beta"):
        contraction_alpha(0.01)


def test_eigenvalue_clustering_tightens(bench_plant):
    # conditioned cluster distances shrink superlinearly as T -> 0
    rep = stability_over_T(bench_plant, H_BENCH, [0.02, 0.01, 0.005, 0.0025],
                           beta=BETA_BENCH)
    rows = sorted(rep.rows, key=lambda r: r.T)
    c1 = np.array([r.conditioned_dist_aug1 for r in rows])
    c2 = np.array([r.conditioned_dist_aug2 for r in rows])
    assert np.all(np.diff(c1) > 0) and np.all(np.diff(c2) > 0)
    Ts = np.array([r.T for r in rows])
    slope1 = np.polyfit(np.log(Ts), np.log(c1), 1)[0]
    slope2 = np.polyfit(np.log(Ts), np.log(c2), 1)[0]
    assert slope1 >= 1.7
    assert slope2 >= 1.7


# --- augmented recursion vs direct simulation --------------------------------

@pytest.mark.parametrize("kind,variant", [("mm1", "aug1"), ("m1", "aug1"),
                                          ("mm2", "aug2"), ("m2", "aug2")])
def test_augmented_matches_direct(bench_design, bench_scenario, kind, variant):
    gap = augmented_vs_direct(bench_design, ALPHA_BENCH, variant,
                              bench_scenario.with_(kind=kind, horizon=5.0))
    assert gap <= 1e-8


def test_augmented_vs_direct_guards(bench_design, bench_scenario):
    with pytest.raises(ConfigError):
        augmented_vs_direct(bench_design, ALPHA_BENCH, "aug2",
                            bench_scenario.with_(kind="mm1"))
    from qsmc import NoiseSpec
    noisy = bench_scenario.with_(kind="mm1",
                                 noise=NoiseSpec(kind="uniform", halfwidth=0.005))
    with pytest.raises(ConfigError):
        augmented_vs_direct(bench_design, ALPHA_BENCH, "aug1", noisy)


# --- the simulated closed loop against the augmented recursion ----------------

# lambda powers by which the lifted loop [x, s[k-1], s[k-2], u[k-1], u[k-2]]
# (n + 4m = 12) exceeds the augmented one (n + m resp. n + 3m)
EXTRA_ZEROS = {"m1": 6, "mm1": 6, "m2": 2, "mm2": 2}


@pytest.mark.parametrize("T", [0.02, 0.01, 0.005, 0.0025])
@pytest.mark.parametrize("kind", ["m1", "m2", "mm1", "mm2"])
def test_closed_loop_charpoly_matches_augmented(bench_plant, T, kind):
    # two derivations of one loop: the lifted matrix the simulator runs,
    # assembled from the taps in plant coordinates, and the hand-assembled
    # A_aug in normal coordinates.  Coefficients, not eigenvalues: the zero
    # roots are defective.
    design = build_surface(bench_plant, discretize(bench_plant, T), H_BENCH)
    alpha = contraction_alpha(T, beta=BETA_BENCH)
    A_cl = closed_loop(design, law_taps(design, alpha, kind)).A
    # the deadbeat baselines run at alpha = 0
    aug_alpha = 0.0 if kind in ("m1", "m2") else alpha
    A_aug = build_aug(design, aug_alpha, variant_for_kind(kind))
    extra = A_cl.shape[0] - A_aug.shape[0]
    assert extra == EXTRA_ZEROS[kind]
    got = charpoly(A_cl)
    want = np.concatenate([charpoly(A_aug), np.zeros(extra)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    rho_cl = np.max(np.abs(np.linalg.eigvals(A_cl)))
    rho_aug = np.max(np.abs(np.linalg.eigvals(A_aug)))
    assert abs(rho_cl - rho_aug) <= 1e-13


def _conditioned_dist(A, design, alpha):
    """Largest distance from an eigenvalue of A to its nearest analytic
    reference, eig(xi_step), alpha or 0, over the eigenvalues nearest a
    nonzero one."""
    ref = np.concatenate([np.linalg.eigvals(design.xi_step), [alpha, 0.0]])
    gaps = np.abs(np.linalg.eigvals(A)[:, None] - ref[None, :])
    kept = np.argmin(gaps, axis=1) < len(ref) - 1
    return float(np.max(np.min(gaps, axis=1)[kept], initial=0.0))


def test_stability_reports_closed_loop_radius(bench_plant):
    # the cluster distances read from the mm1/mm2 Loops match those of the
    # augmented recursion; the radii are the charpoly test's
    rep = stability_over_T(bench_plant, H_BENCH, [0.02, 0.01, 0.005, 0.0025],
                           beta=BETA_BENCH)
    for row in rep.rows:
        assert set(row.rho_cl) == {"m1", "m2", "mm1", "mm2"}
        design = build_surface(bench_plant, discretize(bench_plant, row.T), H_BENCH)
        for variant, got in (("aug1", row.conditioned_dist_aug1),
                             ("aug2", row.conditioned_dist_aug2)):
            want = _conditioned_dist(build_aug(design, row.alpha, variant),
                                     design, row.alpha)
            assert abs(got - want) <= 1e-13, (row.T, variant)
        assert all(0.0 < rho < 1.0 for rho in row.rho_cl.values())
    unstable = stability_over_T(bench_plant, H_UNSTABLE, [0.01], beta=BETA_BENCH)
    assert all(rho > 1.0 for rho in unstable.rows[0].rho_cl.values())
