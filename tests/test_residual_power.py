"""``score.residual_power`` gives the bits of numpy's ``x ** r``.

Every comparison is of the int64 views, so NaN payloads, the sign of
zero and the last bit of every power count.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthoate import score
from orthoate.score import residual_power

POWERS = range(1, 17)
BLOCK = score._POWER_BLOCK_ROWS


def assert_bits_of_numpy_power(x, r):
    with np.errstate(all="ignore"):
        want = np.asarray(x**r)
        got = np.asarray(residual_power(x, r))
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), r


def mixed_signs(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("r", POWERS)
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-20, 1e-60, 3.0])
def test_mixed_signs(r, scale):
    assert_bits_of_numpy_power(mixed_signs(20_000, r) * scale, r)


@settings(max_examples=200, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(0, 300),
        elements=st.one_of(st.floats(width=64), st.floats(-1.0, 1.0)),
    ),
    r=st.integers(1, 16),
)
def test_any_float64_array(x, r):
    assert_bits_of_numpy_power(x, r)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 20_000])
@pytest.mark.parametrize("r", POWERS)
def test_lengths_around_the_block(n, r):
    assert_bits_of_numpy_power(mixed_signs(n, n), r)


@pytest.mark.parametrize("r", POWERS)
def test_zero_d_two_d_strided_and_unaligned(r):
    x = mixed_signs(20_000, 3)
    assert_bits_of_numpy_power(np.array(-0.37), r)
    assert_bits_of_numpy_power(np.float64(-0.37), r)
    two_d = x.reshape(100, 200)
    assert_bits_of_numpy_power(two_d, r)
    assert_bits_of_numpy_power(two_d.T, r)
    assert_bits_of_numpy_power(two_d[::3, 1::2], r)
    assert_bits_of_numpy_power(x[::3], r)
    assert_bits_of_numpy_power(x[::-1], r)
    unaligned = np.zeros(x.nbytes + 1, dtype=np.uint8)[1:].view(np.float64)
    unaligned[:] = x
    assert not unaligned.flags.aligned
    assert_bits_of_numpy_power(unaligned, r)


def test_input_is_left_as_it_was():
    x = mixed_signs(20_000, 4)
    before = x.copy()
    residual_power(x, 4)
    assert x.tobytes() == before.tobytes()


SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan,
    1.0, -1.0, 0.5, -0.5, 2.0**-30, -(2.0**-30),
]


@pytest.mark.parametrize("r", POWERS)
def test_special_values(r):
    x = np.array(SPECIAL)
    assert_bits_of_numpy_power(x, r)
    # Each again among ordinary negative bases, so it meets the settling step.
    assert_bits_of_numpy_power(np.concatenate([-np.abs(mixed_signs(50, r)), x]), r)


def test_warns_where_numpy_warns():
    quiet = np.array([-np.inf, np.inf, np.nan, -np.nan, -0.0, -0.3, 0.7])
    with np.errstate(all="raise"):
        quiet**3
        residual_power(quiet, 3)
    overflows = np.array([-0.5, -1e300])
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            overflows**3
        with pytest.raises(FloatingPointError):
            residual_power(overflows, 3)


def near_midpoint_bases(r: int, seed: int, n: int) -> np.ndarray:
    """Negative bases whose power lies within 0.03 ULP of a rounding midpoint."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.01, 1.0, 50 * n)
    hi, lo = score._power_hi_lo(a, r)
    near = np.abs(lo) >= score._MIDPOINT_BAND * np.spacing(hi)
    return -a[near][:n]


@pytest.mark.parametrize("r", [3, 4, 5, 8, 16])
def test_near_midpoints_are_left_to_numpy(r):
    x = near_midpoint_bases(r, seed=r, n=5000)
    assert x.size == 5000
    left = []

    def settle(*args):
        rows = settle_negative_bases(*args)
        left.append(rows)
        return rows

    settle_negative_bases = score._settle_negative_bases
    with mock.patch.object(score, "_settle_negative_bases", settle):
        assert_bits_of_numpy_power(x, r)
    assert np.concatenate(left).size == x.size
    # Without the recompute, the Dekker powers would differ from numpy's here.
    with np.errstate(all="ignore"):
        hi, _ = score._power_hi_lo(-x, r)
    assert np.any((-hi if r % 2 else hi) != x**r)


def test_working_memory_is_bounded():
    x = mixed_signs(200_000, 5)
    residual_power(x, 4)  # first call's one-off allocations stay out of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = residual_power(x, 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * 2**20
