"""Generator vectors are frozen from hand computation of the reference
algorithms (64-bit splitmix seeding, xoshiro256** output scrambler).  They
pin both the lane draw (symmetric_tables) and the scalar route
(conftest.ScalarXoshiro), which is the oracle of the lane draw and of its
jump ladder."""

import functools
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmc.plant import NoiseSpec, NoiseStream, noise_tables
from qsmc.rng import (Xoshiro256StarStar, _jump, _jump_ladder, _splitmix64,
                      symmetric_tables)

from conftest import ScalarXoshiro, rotl


def test_splitmix64_first_output():
    # reference: first output of the 64-bit splitmix sequence from seed 0
    _, out = _splitmix64(0)
    assert out == 0xE220A8397B1DCDAF


def test_splitmix64_stream_distinct():
    state, outs = 0, []
    for _ in range(16):
        state, out = _splitmix64(state)
        outs.append(out)
    assert len(set(outs)) == 16
    assert all(0 <= v < 2**64 for v in outs)


def test_rotl_wraps():
    assert rotl(1, 1) == 2
    assert rotl(1 << 63, 1) == 1
    assert rotl(0x0123456789ABCDEF, 0) == 0x0123456789ABCDEF


def test_starstar_scrambler_from_unit_state():
    # with state (1, 2, 3, 4) the first three outputs follow by hand:
    # rotl(2*5,7)*9 = 11520; after one update s1 becomes 0 -> output 0;
    # third state has s1 = 2^17 + ... giving 1509978240
    gen = ScalarXoshiro.from_state([1, 2, 3, 4])
    assert gen.next_u64() == 11520
    assert gen.next_u64() == 0
    assert gen.next_u64() == 1509978240


def test_lane_draw_from_unit_state():
    # the same three outputs, drawn in lanes at halfwidth 1: each is
    # 2 (u >> 11) 2^-53 - 1, and the stream ends where three steps leave it
    gen = ScalarXoshiro.from_state([1, 2, 3, 4])
    table = symmetric_tables([gen], 3, [1.0])[0]
    assert table.tolist() == [-0.9999999999999989, -1.0, -0.9999999998362878]
    assert table.tolist() == [2 * (u >> 11) * 2.0 ** -53 - 1
                              for u in (11520, 0, 1509978240)]
    scalar = ScalarXoshiro.from_state([1, 2, 3, 4])
    for _ in range(3):
        scalar.next_u64()
    assert gen._s == scalar._s


def test_seeded_state_never_all_zero():
    for seed in (0, 1, 2**64 - 1, 123456789):
        gen = Xoshiro256StarStar(seed)
        assert any(gen._s)


def test_uniform_range_and_resolution():
    gen = ScalarXoshiro(20260815)
    vals = np.array([gen.uniform() for _ in range(20000)])
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)
    # top-53-bit conversion: every value is a multiple of 2^-53
    assert np.all(vals * 2.0**53 == np.round(vals * 2.0**53))
    assert abs(vals.mean() - 0.5) < 0.01
    assert abs(vals.var() - 1.0 / 12.0) < 0.005


def test_symmetric_halfwidth():
    gen = ScalarXoshiro(7)
    vals = np.array([gen.symmetric(0.005) for _ in range(5000)])
    assert np.all(np.abs(vals) <= 0.005)
    assert abs(vals.mean()) < 3e-4
    assert vals.min() < -0.004 and vals.max() > 0.004


def test_determinism_across_instances():
    a = ScalarXoshiro(424242)
    b = ScalarXoshiro(424242)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_seed_sensitivity():
    a = ScalarXoshiro(1)
    b = ScalarXoshiro(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


@pytest.mark.parametrize("seed", [0, 1, 99991])
def test_u64_in_range(seed):
    gen = ScalarXoshiro(seed)
    for _ in range(256):
        v = gen.next_u64()
        assert 0 <= v < 2**64


# --- lane draw against the scalar route ---------------------------------------

SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 700), seed=SEEDS, halfwidth=st.sampled_from([0.005, 2.5]))
@example(n=0, seed=0, halfwidth=0.005)
@example(n=1, seed=2 ** 64 - 1, halfwidth=2.5)
@example(n=63, seed=0, halfwidth=0.005)
@example(n=64, seed=0, halfwidth=0.005)
@example(n=65, seed=2 ** 64 - 1, halfwidth=0.005)
@example(n=127, seed=0, halfwidth=2.5)
@example(n=128, seed=20260815, halfwidth=0.005)
@example(n=129, seed=2 ** 64 - 1, halfwidth=2.5)
def test_lane_draw_matches_scalar_draws(n, seed, halfwidth):
    lanes, scalar = ScalarXoshiro(seed), ScalarXoshiro(seed)
    table = symmetric_tables([lanes], n, [halfwidth])[0]
    ref = np.array([scalar.symmetric(halfwidth) for _ in range(n)])
    assert table.dtype == np.float64 and table.shape == (n,)
    assert table.tobytes() == ref.tobytes()
    # the stream continues where n scalar draws leave it
    assert lanes._s == scalar._s
    assert lanes.next_u64() == scalar.next_u64()


@settings(max_examples=60, deadline=None)
@given(first=st.integers(0, 300), second=st.integers(0, 300), seed=SEEDS)
def test_successive_tables_equal_one_table(first, second, seed):
    split, whole = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    parts = np.concatenate([symmetric_tables([split], first, [0.005])[0],
                            symmetric_tables([split], second, [0.005])[0]])
    assert parts.tobytes() == symmetric_tables([whole], first + second,
                                               [0.005])[0].tobytes()
    assert split._s == whole._s


def test_draw_transient_does_not_grow_with_generators():
    # the jump's gather and the in-place conversion go in slices, so the
    # draw of 300 generators peaks within a quarter above the tables it
    # returns; one gather over all their starts would peak near 2.5 times
    gens = [Xoshiro256StarStar(seed) for seed in range(300)]
    tracemalloc.start()
    try:
        table = symmetric_tables(gens, 6003, [0.005] * len(gens))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


def test_noise_table_frozen_digest():
    # SHA-256 of the table as drawn by the scalar route before the lane draw
    table, = noise_tables([NoiseStream(NoiseSpec("uniform", 0.005, 20260815))], 2001, 3)
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "a38100dd353c05946db6025c759faa1b7bdfb7a85a79b401ca8ca31415f38087")


@pytest.mark.parametrize("n", [1, 2])
def test_lane_draw_raises_no_overflow_warning(n):
    # uint64 products wrap by design; on numpy scalars they would warn
    gen = Xoshiro256StarStar(2 ** 64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        symmetric_tables([gen], n, [0.005])


# --- lockstep draw of several generators ----------------------------------------

LOCKSTEP_N = sorted({0, 1, 63, 64, 65, 6003}
                    | {64 * 2 ** r + d for r in range(8) for d in (-1, 1)})
LOCKSTEP_SEEDS = tuple(range(2026, 2036))
HALFWIDTHS = (0.005, 2.5, 1.0, 1e-3, 0.75, 3.0, 0.125, 0.005, 42.0, 0.5)


@functools.cache
def scalar_prefix(seed, halfwidth):
    """The first max(LOCKSTEP_N) symmetric draws of a seed, one scalar call
    at a time, and the stream state after each n of LOCKSTEP_N."""
    gen = ScalarXoshiro(seed)
    draws, states = [], {0: list(gen._s)}
    for i in range(max(LOCKSTEP_N)):
        draws.append(gen.symmetric(halfwidth))
        if i + 1 in LOCKSTEP_N:
            states[i + 1] = list(gen._s)
    return np.array(draws), states


@pytest.mark.parametrize("G", [1, 2, 10])
@pytest.mark.parametrize("n", LOCKSTEP_N)
def test_lockstep_draw_matches_scalar_streams(G, n):
    seeds, halfwidths = LOCKSTEP_SEEDS[:G], HALFWIDTHS[:G]
    gens = [Xoshiro256StarStar(seed) for seed in seeds]
    tables = symmetric_tables(gens, n, halfwidths)
    assert tables.dtype == np.float64 and tables.shape == (G, n)
    for gen, seed, halfwidth, table in zip(gens, seeds, halfwidths, tables):
        draws, states = scalar_prefix(seed, halfwidth)
        assert table.tobytes() == draws[:n].tobytes()
        assert gen._s == states[n]


def test_single_table_is_the_one_generator_lockstep_draw():
    # a generator's table and end state are the same drawn alone or among
    # others
    a, b = Xoshiro256StarStar(11), Xoshiro256StarStar(11)
    one = symmetric_tables([a], 777, [0.005])[0]
    others = [Xoshiro256StarStar(5), b, Xoshiro256StarStar(2 ** 64 - 1)]
    among = symmetric_tables(others, 777, [2.5, 0.005, 1.0])[1]
    assert one.tobytes() == among.tobytes()
    assert a._s == b._s


STATES = st.lists(st.integers(0, 2 ** 64 - 1), min_size=4, max_size=4).filter(any)


def scalar_steps(state, steps):
    gen = ScalarXoshiro.from_state(state)
    for _ in range(steps):
        gen.next_u64()
    return gen._s


@settings(max_examples=40, deadline=None)
@given(state=STATES)
@example(state=[1, 0, 0, 0])
@example(state=[0, 0, 0, 1 << 63])
def test_ladder_rung_zero_is_64_steps(state):
    jumped = _jump(_jump_ladder(0), np.array([state], dtype=np.uint64))
    assert jumped[0].tolist() == scalar_steps(state, 64)


@settings(max_examples=40, deadline=None)
@given(state=STATES, r=st.integers(1, 7))
@example(state=[2 ** 64 - 1] * 4, r=7)
def test_ladder_rung_r_is_2_to_the_r_jumps(state, r):
    start = np.array([state], dtype=np.uint64)
    stepped = start
    for _ in range(2 ** r):
        stepped = _jump(_jump_ladder(0), stepped)
    assert _jump(_jump_ladder(r), start).tolist() == stepped.tolist()
