"""Arguments outside their domain raise InvalidArgument, which is still a ValueError."""

from __future__ import annotations

import numpy as np
import pytest

from orthoate import (
    InvalidArgument,
    SplitPlan,
    estimate_higher_order,
    estimate_moments,
    make_split,
)


def test_overlapping_folds():
    with pytest.raises(InvalidArgument, match="folds must be disjoint"):
        SplitPlan(estimation_idx=np.array([0, 1]), training_idx=np.array([1, 2]))


def test_ratios_not_summing_to_one():
    with pytest.raises(InvalidArgument, match="ratios must be three positive numbers"):
        make_split(100, (0.5, 0.2, 0.2), seed=0)


def test_moment_order_below_one():
    with pytest.raises(InvalidArgument, match="max_order must be >= 1"):
        estimate_moments(np.array([1, 0]), np.array([0.5, 0.5]), treatment=1, max_order=0)


def test_no_resampling_repetitions():
    y, d = np.array([1.0, 2.0]), np.array([0, 1])
    G, P = np.zeros((2, 2)), np.full((2, 2), 0.5)
    with pytest.raises(InvalidArgument, match="R must be >= 1"):
        estimate_higher_order(y, d, G, P, r=2, k=2, R=0)


def test_invalid_argument_is_a_value_error():
    assert issubclass(InvalidArgument, ValueError)
