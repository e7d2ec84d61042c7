"""The stacked closed-loop recursion against a per-step oracle.

`loop_oracle` is the simulator's former step loop: one scenario at a time,
one ControllerState.step, p scalar Xoshiro256StarStar.symmetric draws and
one DisturbanceSignal.value call per sample.  `run_batch` runs every law as
its lifted closed-loop matrix for many runs at once, advances them as a
blocked scan, draws noise as one table and fills the measured and logged
columns after the loop; the two must agree to rounding.
"""

import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmc import (WARMUP, AssumptionViolation, ConfigError, ContinuousPlant,
                  ControllerState, DisturbanceRangeError, DisturbanceSampler,
                  DisturbanceSignal, DivergenceError, NoiseSpec, Scenario,
                  Segment, Xoshiro256StarStar, build_aug, build_surface,
                  charpoly, closed_loop, constant_signal, discretize, law_taps,
                  make_gains, run, stability_over_T, variant_for_kind,
                  zero_signal)
from qsmc.plant import CosForm, NoiseStream, SinForm, random_surface_map
from qsmc.simulate import _OVERFLOW, BLOCK, run_batch, run_batches

from conftest import FORMS, H_UNSTABLE, law_form, rk4_states

KINDS = ("eq", "m1", "m2", "mm1", "mm2")
SEEDS = (5, 20260815)


def scalar_noise(spec, rows, p):
    """rows x p noise of spec, one scalar symmetric draw at a time in the
    order the simulator reads it (independent of the lane draw)."""
    if spec.kind == "none" or spec.halfwidth == 0.0:
        return np.zeros((rows, p))
    gen = Xoshiro256StarStar(spec.seed)
    return np.array([[gen.symmetric(spec.halfwidth) for _ in range(p)]
                     for _ in range(rows)])


def loop_oracle(scenario):
    """(x, u, y, s, s_true, f) of one run, stepped sample by sample."""
    plant, T = scenario.plant, scenario.T
    disc = discretize(plant, T)
    design = build_surface(plant, disc, scenario.H)
    gains = make_gains(design, alpha=scenario.alpha, beta=scenario.beta)
    controller = ControllerState(kind=scenario.kind, gains=gains)
    hc = design.H @ plant.C
    sig = scenario.disturbance
    steps = scenario.steps
    sampler = DisturbanceSampler(plant, T, sig)
    dk = sampler.table(0, steps + 1 if scenario.kind == "eq" else steps)
    v = scalar_noise(scenario.noise, steps + 1, plant.p)
    rows = {key: [] for key in ("x", "u", "y", "s", "s_true", "f")}
    x = scenario.x0.copy()
    for k in range(steps + 1):
        y = plant.C @ x + v[k]
        s_meas = design.H @ y
        g_k = None
        if scenario.kind == "eq" and controller.k >= 1:
            g_k = T * design.drift_from_xi @ (design.annihilator @ x) + hc @ dk[k]
        u = controller.step(s_meas, g_k=g_k)
        t = k * T if k * T < sig.t_end else np.nextafter(sig.t_end, 0)
        for key, value in (("x", x), ("u", u), ("y", y), ("s", s_meas),
                           ("s_true", hc @ x), ("f", sig.value(t))):
            rows[key].append(value)
        if k < steps:
            x = disc.state_map @ x + disc.input_map @ u + dk[k]
    return {key: np.array(v) for key, v in rows.items()}


def _noise(seed):
    return NoiseSpec(kind="uniform", halfwidth=0.005, seed=seed)


def test_batch_matches_loop_oracle(bench_scenario):
    # every kind under two noise seeds as one mixed batch, once per form
    scenarios = [bench_scenario.with_(kind=kind, noise=_noise(seed))
                 for kind in KINDS for seed in SEEDS]
    runs = []
    for form in FORMS:
        with law_form(form):
            runs += [(form, sc, traj, loop_oracle(sc))
                     for sc, traj in zip(scenarios, run_batch(scenarios))]
    for form, sc, traj, ref in runs:
        tag = (sc.kind, form, sc.noise.seed)
        assert np.max(np.abs(traj.x - ref["x"])) <= 1e-12, tag
        assert np.max(np.abs(traj.u - ref["u"])) <= 1e-12, tag
        assert np.max(np.abs(traj.s - ref["s"])) <= 1e-12, tag
        assert np.max(np.abs(traj.s_true - ref["s_true"])) <= 1e-12, tag
        # the noise is the same draw; y differs only by the rounding of x
        assert np.max(np.abs(traj.y - ref["y"])) <= 1e-12, tag
        np.testing.assert_array_max_ulp(traj.f, ref["f"], maxulp=2)
        assert not np.any(traj.u[:WARMUP[sc.kind]]), tag


def test_batch_row_matches_lone_run(bench_scenario):
    scenarios = [bench_scenario.with_(kind="m2", noise=_noise(3)),
                 bench_scenario.with_(kind="mm1", alpha=0.95, beta=None),
                 bench_scenario.with_(kind="eq", x0=np.zeros(4))]
    for sc, traj in zip(scenarios, run_batch(scenarios)):
        lone = run(sc)
        assert np.max(np.abs(traj.x - lone.x)) <= 1e-12, sc.kind
        assert np.max(np.abs(traj.u - lone.u)) <= 1e-12, sc.kind
        assert traj.summary["kind"] == sc.kind


def test_identical_batches_bit_equal(bench_scenario):
    scenarios = [bench_scenario.with_(kind=kind, noise=_noise(9))
                 for kind in ("m1", "m2", "mm1", "mm2")]
    a, b = run_batch(scenarios), run_batch(scenarios)
    for ta, tb in zip(a, b):
        for field in ("x", "y", "s", "s_true", "u", "f"):
            assert getattr(ta, field).tobytes() == getattr(tb, field).tobytes()


@pytest.mark.parametrize("spec", [
    NoiseSpec(),
    NoiseSpec(kind="uniform", halfwidth=0.0, seed=4),
    NoiseSpec(kind="uniform", halfwidth=0.005, seed=0),
    NoiseSpec(kind="uniform", halfwidth=0.005, seed=20260815),
    NoiseSpec(kind="uniform", halfwidth=2.5, seed=2 ** 64 - 1),
])
def test_noise_table_matches_successive_samples(spec):
    ref = scalar_noise(spec, 57, 3)
    table = NoiseStream(spec).table(57, 3)
    stream = NoiseStream(spec)
    rows = np.array([stream.sample(3) for _ in range(57)])
    assert table.shape == (57, 3)
    assert table.tobytes() == ref.tobytes()
    assert rows.tobytes() == ref.tobytes()


def test_batch_divergence_names_first_bad_run(bench_scenario):
    unstable = bench_scenario.with_(H=H_UNSTABLE, disturbance=zero_signal(2))
    # the first run starts a thousand times smaller and crosses the guard
    # later; the second is the one that diverges at step 1246
    batch = [unstable.with_(x0=1e-3 * unstable.x0), unstable]
    with pytest.raises(DivergenceError) as err:
        run_batch(batch)
    assert err.value.step == 1246
    assert err.value.run == 1
    assert err.value.norm > 1e12
    assert "in run 1" in str(err.value)


def test_batch_divergence_carries_diverging_runs_radius(bench_scenario):
    unstable = bench_scenario.with_(H=H_UNSTABLE, disturbance=zero_signal(2))
    rho = stability_over_T(unstable.plant, H_UNSTABLE, [unstable.T],
                           alpha=unstable.alpha).rows[0].rho_cl["mm1"]
    # run 0 is an m1 loop, with a radius of its own, started far smaller so
    # that the mm1 run 1 crosses the guard first
    m1 = unstable.with_(kind="m1", x0=1e-6 * unstable.x0)
    with pytest.raises(DivergenceError) as err:
        run_batch([m1, unstable])
    assert err.value.run == 1
    assert err.value.rho_cl == rho
    assert rho > 1.0
    assert run_batch([m1.with_(horizon=1.0)])[0].summary["rho_cl"] != rho


@pytest.mark.parametrize("field, value", [
    ("T", 0.02), ("H", H_UNSTABLE), ("horizon", 10.0),
    ("disturbance", zero_signal(2)),
])
def test_batch_rejects_unshared_fields(bench_scenario, field, value):
    other = bench_scenario.with_(**{field: value})
    with pytest.raises(ConfigError, match=field):
        run_batch([bench_scenario, other])


def test_batch_rejects_empty():
    with pytest.raises(ConfigError):
        run_batch([])


# --- the f column --------------------------------------------------------------

def test_values_match_scalar_value(bench_scenario):
    sig = bench_scenario.disturbance
    t = np.arange(bench_scenario.steps + 1) * bench_scenario.T
    scalar = np.array([sig.value(ti) for ti in t])
    np.testing.assert_array_max_ulp(sig.values(t), scalar, maxulp=2)


def test_values_reject_times_outside(bench_signal):
    short = constant_signal([1.0, 2.0], t_end=2.0)
    with pytest.raises(DisturbanceRangeError):
        short.values(np.array([0.0, 2.0]))
    with pytest.raises(DisturbanceRangeError):
        bench_signal.values(np.array([-1e-9]))
    assert short.values(np.array([0.0, math.nextafter(2.0, 0)])).tolist() == \
        [[1.0, 2.0], [1.0, 2.0]]


# --- block edges of the scan -----------------------------------------------

# moves from the first sample, so d[steps] is not d[steps - 1]
_MOVING = DisturbanceSignal([Segment(0.0, math.inf, (SinForm(0.5, 1.0, 3.0, 0.2),
                                                     CosForm(0.7, 2.0)))])


def _assert_matches_oracle(sc, traj, tol=1e-12):
    ref = loop_oracle(sc)
    tag = (sc.kind, sc.steps)
    for key in ("x", "u", "s", "s_true", "y"):
        assert np.max(np.abs(getattr(traj, key) - ref[key])) <= tol, (key,) + tag
    assert not np.any(traj.u[:WARMUP[sc.kind]]), tag


@pytest.mark.parametrize("samples", [1, 2, 3, BLOCK + 1, BLOCK + 2, BLOCK + 3,
                                     5 * BLOCK + 7])
def test_batch_block_edges(bench_scenario, samples):
    base = bench_scenario.with_(horizon=(samples - 0.5) * bench_scenario.T,
                                disturbance=_MOVING)
    assert base.steps + 1 == samples
    mixed = [base.with_(kind=kind, noise=_noise(seed))
             for kind in KINDS for seed in SEEDS]
    # a batch whose warm-up is one sample long shifts every block by one
    short = [base.with_(kind=kind, noise=_noise(7)) for kind in ("eq", "mm1")]
    for batch in (mixed, short):
        for sc, traj in zip(batch, run_batch(batch)):
            _assert_matches_oracle(sc, traj)


def test_eq_input_reads_last_disturbance_sample(bench_scenario):
    # u[steps] of the eq oracle carries K_g H C d[steps]: a disturbance
    # sample no x row is kept for
    sc = bench_scenario.with_(kind="eq", horizon=(BLOCK + 2.5) * bench_scenario.T,
                              disturbance=_MOVING)
    traj = run(sc)
    _assert_matches_oracle(sc, traj)
    design = build_surface(sc.plant, discretize(sc.plant, sc.T), sc.H)
    taps = law_taps(make_gains(design, alpha=sc.alpha, beta=sc.beta), "eq")
    d_last = DisturbanceSampler(sc.plant, sc.T, _MOVING).table(sc.steps, sc.steps + 1)[0]
    assert np.linalg.norm(taps.K_g @ design.H @ sc.plant.C @ d_last) > 1e-3


def _first_bad(x):
    norms = np.max(np.abs(x), axis=1)
    return int(np.argmax(~(norms <= _OVERFLOW)))


@pytest.mark.parametrize("offset", [1, BLOCK, BLOCK // 2],
                         ids=["first", "last", "inside"])
def test_batch_divergence_on_block_edges(bench_scenario, offset):
    # an mm1 batch steps its one warm-up sample alone, so the scan's blocks
    # hold x[k] for k = 1 + b BLOCK + (1..BLOCK); scale x0 so the first
    # state past the guard is a block's first, last or a middle sample
    unstable = bench_scenario.with_(kind="mm1", H=H_UNSTABLE,
                                    disturbance=zero_signal(2))
    norms = np.max(np.abs(loop_oracle(unstable)["x"]), axis=1)
    record = np.maximum.accumulate(norms)
    k = next(k for k in range(1100, unstable.steps)
             if (k - 1 - WARMUP["mm1"]) % BLOCK == offset - 1
             and norms[k] > 1.01 * record[k - 1])
    # the loop is linear and unforced: norms scale with x0
    scale = _OVERFLOW / math.sqrt(norms[k] * record[k - 1])
    target = unstable.with_(x0=scale * unstable.x0)
    assert _first_bad(loop_oracle(target)["x"]) == k
    with pytest.raises(DivergenceError) as err:
        run_batch([target.with_(x0=1e-3 * target.x0), target])
    assert err.value.step == k
    assert err.value.run == 1


# --- random admissible plants ------------------------------------------------

def _random_loop(seed):
    """(scenario, form, A_cl): a stable closed loop of a random plant with
    m <= p < n and a surface drawn as invariant_zeros draws it, its law's
    taps drawn from FORMS; draws with cond(H C B) > 1e8, a singular sampled
    coupling or rho(A_cl) >= 1 are redrawn."""
    rng = np.random.default_rng(seed)
    gen = Xoshiro256StarStar(seed)
    while True:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        p = int(rng.integers(m, n))
        plant = ContinuousPlant(rng.standard_normal((n, n)),
                                rng.standard_normal((n, m)),
                                rng.standard_normal((p, n)))
        H = random_surface_map(gen, m, p)
        if np.linalg.cond(H @ plant.C @ plant.B) > 1e8:
            continue
        T = float(rng.uniform(0.005, 0.1))
        try:
            design = build_surface(plant, discretize(plant, T), H)
        except AssumptionViolation:
            continue
        kind = str(rng.choice(KINDS))
        form = str(rng.choice(list(FORMS)))
        alpha = float(rng.uniform(0.0, 0.99))
        A_cl = closed_loop(design, FORMS[form](make_gains(design, alpha=alpha), kind)).A
        if np.max(np.abs(np.linalg.eigvals(A_cl))) >= 1.0:
            continue
        samples = int(rng.integers(1, 8 * BLOCK))
        forms = tuple(SinForm(*rng.uniform([-1.0, 0.0, 0.1, 0.0], [1.0, 2.0, 5.0, 6.0]))
                      for _ in range(m))
        sc = Scenario(plant=plant, H=H, kind=kind, T=T, horizon=(samples - 0.5) * T,
                      disturbance=DisturbanceSignal([Segment(0.0, math.inf, forms)]),
                      noise=NoiseSpec(kind="uniform", halfwidth=0.01, seed=seed),
                      alpha=alpha, x0=rng.standard_normal(n))
        return sc, form, A_cl


def _wide_recursion(sc, form):
    """(x, u) of the lifted recursion stepped one sample at a time in long
    double: the scan's reference without its rounding."""
    plant = sc.plant
    design = build_surface(plant, discretize(plant, sc.T), sc.H)
    taps = FORMS[form](make_gains(design, alpha=sc.alpha, beta=sc.beta), sc.kind)
    law, warm = ([M.astype(np.longdouble) for M in (loop.A, loop.B_d, loop.B_v)]
                 for loop in (closed_loop(design, taps), closed_loop(design)))
    dk = DisturbanceSampler(plant, sc.T, sc.disturbance).table(0, sc.steps + 1)
    v = sc.noise.stream().table(sc.steps + 1, plant.p)
    n, m = plant.n, plant.m
    psi = np.zeros(n + 4 * m, dtype=np.longdouble)
    psi[:n] = sc.x0
    xs, us = [], []
    for k in range(sc.steps + 1):
        A, B_d, B_v = warm if k < taps.warmup else law
        xs.append(psi[:n])
        psi = A @ psi + B_d @ dk[k] + B_v @ v[k]
        us.append(psi[n + 2 * m:n + 3 * m])
    return np.array(xs, dtype=float), np.array(us, dtype=float)


def _rounding_unit(A_cl, scale):
    """eps times the largest infinity norm of A_cl^0..A_cl^BLOCK times the
    run's largest magnitude: the rounding of one product with a power."""
    power, largest = np.eye(len(A_cl)), 1.0
    for _ in range(BLOCK):
        power = A_cl @ power
        largest = max(largest, np.linalg.norm(power, np.inf))
    return np.finfo(float).eps * largest * scale


# Over 2,000 draws the scan stayed within 2.1 units of the long-double
# recursion and within 32 of the oracle, whose own rounding reaches 32
# units; with A^L formed by double products the scan reached 116.
_WIDE_UNITS = 10.0
_ORACLE_UNITS = 100.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=1333)  # high-gain, non-normal: a double-formed A^L loses 2 digits
def test_batch_matches_oracle_on_random_plants(seed):
    sc, form, A_cl = _random_loop(seed)
    with law_form(form):
        traj = run_batch([sc])[0]
        ref = loop_oracle(sc)
    unit = _rounding_unit(A_cl, max(1.0, *(np.max(np.abs(ref[key]))
                                           for key in ("x", "u", "s"))))
    for key in ("x", "u", "s", "s_true", "y"):
        assert np.max(np.abs(getattr(traj, key) - ref[key])) <= _ORACLE_UNITS * unit, key
    x, u = _wide_recursion(sc, form)
    assert np.max(np.abs(traj.x - x)) <= _WIDE_UNITS * unit
    assert np.max(np.abs(traj.u - u)) <= _WIDE_UNITS * unit


def _rk4_bound(plant, T, steps, lam, F, X, U):
    """Bound on |exact - rk4_states| at the end of one sample, in infinity
    norms, for a run with state scale X and input scale U, lam >= |A| and
    >= every omega of the disturbance, and F >= |offset| + |amp| of every
    form.

    Truncation: one RK4 step of width dt on x' = A x + g(t) errs by the
    first terms its stages miss, (A dt)^5 x / 120 and dt^5 A^(4-j) g^(j) / c_j
    with c_j >= 120, j = 0..4 (Simpson on the convolution integral and its
    A-weighted companions): at most dt^5 lam^4 (lam X + 5 G) / 120, where
    G = |B| (U + F) bounds |g| and |g^(j)| / lam^j.  Twice that covers the
    higher terms (lam dt <= 0.02).  A sample takes at most N = 2 steps RK4
    steps, two pieces when a segment join cuts it, each no wider than
    dt = T / steps, and errors grow by at most exp(lam T).  Rounding: every
    RK4 step and the exact route round at most ten units of eps on the
    scale X + T G."""
    G = np.linalg.norm(plant.B, np.inf) * (U + F)
    dt = T / steps
    N = 2 * steps
    trunc = 2 * N * dt ** 5 * lam ** 4 * (lam * X + 5 * G) / 120
    rounding = 10 * np.finfo(float).eps * (N + 1) * (X + T * G)
    return math.exp(lam * T) * (trunc + rounding)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       where=st.floats(0.0, 1.0, exclude_max=True), frac=st.floats(0.05, 0.95))
def test_exact_dk_matches_rk4_on_random_plants(seed, where, frac):
    # d[k] is the state one sample after x[k] = 0 with u[k] = 0
    sc, _, _ = _random_loop(seed)
    plant, T = sc.plant, sc.T
    steps = max(sc.steps, 1)
    # a second segment starts strictly inside sample kb, so the sampler
    # splits that sample and the oracle cuts it there
    kb = int(where * steps)
    t_b = (kb + frac) * T
    rng = np.random.default_rng(seed)
    forms = tuple(SinForm(*rng.uniform([-1.0, 0.0, 0.1, 0.0], [1.0, 2.0, 5.0, 6.0]))
                  for _ in range(plant.m))
    first = sc.disturbance.segments[0]
    sig = DisturbanceSignal([Segment(0.0, t_b, first.forms),
                             Segment(t_b, math.inf, forms)])
    dk = DisturbanceSampler(plant, T, sig).table(0, steps)
    every = first.forms + forms
    lam = max(np.linalg.norm(plant.A, np.inf), *(f.omega for f in every))
    F = max(abs(f.offset) + abs(f.amp) for f in every)
    rk_steps = math.ceil(lam * T / 0.02)
    t = np.arange(steps + 1) * T
    ref = rk4_states(plant, sig, np.zeros((steps, plant.n)),
                     np.zeros((steps, plant.m)), t[:-1], T, 1, steps=rk_steps)[:, -1]
    bound = _rk4_bound(plant, T, rk_steps, lam, F, np.max(np.abs(dk)), 0.0)
    assert np.max(np.abs(dk - ref)) <= bound


# --- the lifted loop against the augmented recursion --------------------------

def _charpoly_magnitudes(A):
    """charpoly's recursion run on |A|: entry k bounds the magnitude of every
    term that charpoly(A) sums for its coefficient k."""
    n = len(A)
    absA = np.abs(A)
    mag = np.empty(n + 1)
    mag[0] = 1.0
    M = np.zeros_like(absA)
    for k in range(1, n + 1):
        M = absA @ M + mag[k - 1] * np.eye(n)
        mag[k] = np.trace(absA @ M) / k
    return mag


def _radius_rounding(A):
    """eps |A| kappa: how far a perturbation of size eps |A| moves A's
    largest eigenvalue to first order, kappa = 1 / |y^H x| for its unit
    left and right eigenvectors."""
    w, left, right = scipy.linalg.eig(A, left=True, right=True)
    j = int(np.argmax(np.abs(w)))
    kappa = 1.0 / abs(np.vdot(left[:, j], right[:, j]))
    return np.finfo(float).eps * np.linalg.norm(A, 2) * kappa


# Rounding bounds, N the size of the lifted matrix.  charpoly takes N steps,
# each a trace of N^2 products, so coefficient k may err by N^3 eps times
# _charpoly_magnitudes; an eigensolver's backward error is within N eps |A|,
# which moves the radius by N _radius_rounding.  Over 14,400 draw-law pairs
# (3,600 draws: seeds 0-299 and 3,300 random ones) the worst coefficient gap
# was 0.13 of its bound and the worst radius gap 0.69 of one
# _radius_rounding.  The median coefficient gap, relative to the largest
# coefficient, was 1.9e-15; on loops with |A_cl| ~ 1e4 to 1e5, whose
# coefficients cancel, it reached 8e-3.


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=799860254)  # m2 at |A_cl| ~ 1e5: relative coefficient gap 8e-3
def test_closed_loop_charpoly_matches_augmented_on_random_plants(seed):
    # charpoly(A_cl) = lambda^extra charpoly(A_aug) for every law on the
    # random plant and surface, the deadbeat pair at alpha = 0
    sc, _, _ = _random_loop(seed)
    design = build_surface(sc.plant, discretize(sc.plant, sc.T), sc.H)
    gains = make_gains(design, alpha=sc.alpha)
    m = sc.plant.m
    for kind in ("m1", "m2", "mm1", "mm2"):
        loop = closed_loop(design, law_taps(gains, kind))
        aug_gains = make_gains(design, alpha=0.0) if kind in ("m1", "m2") else gains
        variant = variant_for_kind(kind)
        A_aug = build_aug(design, aug_gains, variant).A_aug
        N = len(loop.A)
        extra = N - len(A_aug)
        assert extra == (3 * m if variant == "aug1" else m)
        got = charpoly(loop.A)
        want = np.concatenate([charpoly(A_aug), np.zeros(extra)])
        mag = np.maximum(_charpoly_magnitudes(loop.A),
                         np.concatenate([_charpoly_magnitudes(A_aug), np.zeros(extra)]))
        assert np.all(np.abs(got - want) <= N ** 3 * np.finfo(float).eps * mag), kind
        rho_aug = np.max(np.abs(np.linalg.eigvals(A_aug)))
        assert abs(loop.rho - rho_aug) <= N * (_radius_rounding(loop.A)
                                               + _radius_rounding(A_aug)), kind


# --- several batches from one run_batches -----------------------------------

FIELDS = ("k", "t", "x", "y", "s", "s_true", "u", "f")


def test_run_batches_equal_lone_batches(bench_scenario):
    shared = _noise(7)
    batches = [
        [bench_scenario.with_(kind=kind, noise=shared) for kind in ("m1", "mm2")],
        [bench_scenario.with_(kind="eq", noise=_noise(1)),
         bench_scenario.with_(kind="mm1", noise=shared,
                              x0=np.array([0.1, -0.2, 0.0, 0.05]))],
        [bench_scenario.with_(kind="m2", alpha=0.9, beta=None, noise=_noise(2)),
         bench_scenario.with_(kind="mm1", noise=NoiseSpec())],
        [bench_scenario.with_(kind="m2", noise=shared)],
    ]
    got = list(run_batches(batches))
    assert len(got) == len(batches)
    for batch, trajs in zip(batches, got):
        lone = run_batch(batch)
        assert len(trajs) == len(lone) == len(batch)
        for sc, a, b in zip(batch, trajs, lone):
            for name in FIELDS:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (
                    sc.kind, name)
            assert a.summary == b.summary


@pytest.mark.parametrize("field, value", [
    ("T", 0.02), ("H", H_UNSTABLE), ("horizon", 10.0),
    ("disturbance", zero_signal(2)),
])
def test_run_batches_check_every_batch_first(bench_scenario, field, value):
    other = bench_scenario.with_(**{field: value})
    gen = run_batches([[bench_scenario], [bench_scenario, bench_scenario],
                       [bench_scenario, other]])
    with pytest.raises(ConfigError, match=field):
        next(gen)


@pytest.mark.parametrize("sizes", [(), (0,), (1, 0)], ids=["none", "empty", "later"])
def test_run_batches_reject_empty(bench_scenario, sizes):
    batches = [[bench_scenario] * size for size in sizes]
    with pytest.raises(ConfigError):
        next(run_batches(batches))


def test_run_batches_keep_one_batch_alive(bench_scenario, monkeypatch):
    import qsmc.simulate as simulate
    real = simulate._run_one
    refs, alive = [], []

    def run_one(shared, batch):
        # batches still alive when the next one starts
        alive.append([ref() is not None for ref in refs])
        trajs = real(shared, batch)
        refs.append(weakref.ref(trajs[0].x.base))
        return trajs

    monkeypatch.setattr(simulate, "_run_one", run_one)
    batches = [[bench_scenario.with_(kind=kind, noise=_noise(seed))
                for kind in ("m1", "mm1")] for seed in (1, 2, 3)]
    gen = run_batches(batches)
    trajs = next(gen)
    del trajs
    assert len(next(gen)) == 2
    assert len(next(gen)) == 2
    assert alive == [[], [False], [False, False]]
    assert [ref() for ref in refs] == [None, None, None]


def test_benchmark_keeps_first_batch_only(monkeypatch):
    import qsmc.experiments as experiments
    real = experiments.run_batches
    refs, alive = [], []

    def note(trajs):
        refs.append(weakref.ref(trajs[0].x.base))
        return trajs

    def spy(batches):
        gen = real(batches)
        for _ in batches:
            # batches the benchmark still holds when it asks for the next
            alive.append(sum(ref() is not None for ref in refs))
            yield note(next(gen))

    monkeypatch.setattr(experiments, "run_batches", spy)
    rep = experiments.aircraft_benchmark(noise=True, seeds=(1, 2, 3, 4))
    assert alive == [0, 1, 1, 1]
    assert [ref() is not None for ref in refs] == [True, False, False, False]
    assert refs[0]() is rep.runs["m1"].trajectory.x.base
