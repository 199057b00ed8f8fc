"""The chunked resampling streams reproduce numpy's per-repetition streams bit for bit."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoate.estimators import _CHUNK_DRAWS, _counterfactual_term, _resample_indices
from orthoate.estimators import estimate_higher_order
from orthoate.seeds import _WORDS_BLOCK, pcg64_states, spawn_words

from resample_reference import counterfactual_term, reference_theta

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200]


def numpy_stream(seed, i, u):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, u)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", [(0,), (2,), (1, 7), (2**40,)])
def test_spawn_words_equal_seed_sequence(seed, prefix):
    for lo, hi in [(0, 40), (1000, 1003), (2**32 - 3, 2**32)]:
        want = [
            np.random.SeedSequence(seed, spawn_key=prefix + (u,)).generate_state(4, np.uint64)
            for u in range(lo, hi)
        ]
        got = spawn_words(seed, prefix, lo, hi)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, np.stack(want))


def test_spawn_words_of_an_empty_range():
    assert spawn_words(1, (0,), 5, 5).shape == (0, 4)


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_pcg64_states_equal_numpy_seeding_across_blocks(seed):
    stop = _WORDS_BLOCK + 3
    states = list(pcg64_states(seed, (2,), stop))
    assert len(states) == stop
    for u in (0, 1, _WORDS_BLOCK - 1, _WORDS_BLOCK, stop - 1):
        assert states[u] == numpy_stream(seed, 2, u).bit_generator.state


def lemire_rejects(seed, i, u, n, size) -> bool:
    """Whether numpy's bounded draw rejects one of the first ``size`` 32-bit words."""
    raw = numpy_stream(seed, i, u).bit_generator.random_raw((size + 1) // 2)
    words = raw.astype("<u8").view("<u4")[:size].astype(object)
    threshold = (2**32 - n) % n
    return any(int(x) * n % 2**32 < threshold for x in words)


@pytest.mark.parametrize("n", [1, 2, 3, 400, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 5])
@pytest.mark.parametrize("size", [1, 2, 5, 3000])
def test_indices_equal_generator_integers(n, size):
    # Index arrays only: no pool of n values is allocated.
    R = 9 if size == 3000 else 40
    got = np.concatenate(list(_resample_indices(11, 1, R, n, size)))
    want = np.stack([numpy_stream(11, 1, u).integers(0, n, size=size) for u in range(R)])
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_half_the_words_are_rejected_at_two_to_the_31_plus_one():
    n, R = 2**31 + 1, 64
    rejected = sum(lemire_rejects(5, 0, u, n, 1) for u in range(R))
    assert 16 <= rejected <= 48  # these rows take the Generator.integers path
    got = np.concatenate(list(_resample_indices(5, 0, R, n, 1)))
    want = np.stack([numpy_stream(5, 0, u).integers(0, n, size=1) for u in range(R)])
    np.testing.assert_array_equal(got, want)


def test_chunks_hold_at_most_the_draw_cap_and_at_least_one_repetition():
    for size, R in [(1, 3 * _CHUNK_DRAWS), (1000, 20), (3 * _CHUNK_DRAWS, 3)]:
        chunks = list(_resample_indices(0, 0, R, 7, size))
        assert sum(len(c) for c in chunks) == R
        assert all(len(c) == 1 or c.size <= _CHUNK_DRAWS for c in chunks)


def test_rejected_rows_of_a_real_pool_match_the_reference():
    # 2**32 mod 99,876 is 99,544: a rejection about every 43,000 words.
    n, n_c, R, seed = 99_876, 4_000, 64, 3
    assert any(lemire_rejects(seed, 1, u, n, n_c) for u in range(R))
    rng = np.random.default_rng(0)
    pool, A_c = rng.normal(size=n), rng.normal(size=n_c)
    got = _counterfactual_term(pool, A_c, n + n_c, R, seed, 1)
    assert got.hex() == counterfactual_term(pool, A_c, n + n_c, R, seed, 1).hex()


def fold(N, n0, seed):
    """Estimation-fold arrays (y, d, G, P) with n0 units in arm 0 and the rest in arm 1."""
    rng = np.random.default_rng(seed)
    d = np.ones(N, dtype=np.int64)
    d[:n0] = 0
    rng.shuffle(d)
    p = rng.uniform(0.1, 0.9, size=N)
    return rng.normal(size=N), d, rng.normal(size=(N, 2)), np.column_stack([p, 1.0 - p])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    R=st.integers(1, 150),
    shape=st.integers(2, 2500).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N - 1))),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_higher_order_theta_equals_the_reference(seed, R, shape, data_seed):
    y, d, G, P = fold(*shape, data_seed)
    got = estimate_higher_order(y, d, G, P, r=2, k=2, R=R, seed=seed).theta
    want = reference_theta(y, d, G, P, r=2, k=2, R=R, seed=seed)
    assert [t.hex() for t in got.tolist()] == [t.hex() for t in want.tolist()]


def test_peak_memory_does_not_grow_with_R():
    # Arm 1 has 20,000 counterfactual units: one 20,000-draw repetition per chunk.
    y, d, G, P = fold(30_000, 20_000, 0)
    peaks = {}
    for R in (100, 2_000):
        tracemalloc.start()
        try:
            estimate_higher_order(y, d, G, P, r=2, k=2, R=R, seed=1)
            peaks[R] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2_000] <= 1.02 * peaks[100]
