"""Arguments outside their domain raise InvalidArgument, which is still a ValueError."""

from __future__ import annotations

import numpy as np
import pytest

from orthoate import (
    EstimatorSpec,
    InvalidArgument,
    Moments,
    NuisanceFits,
    SimConfig,
    SplitPlan,
    TreatmentOutcomeModel,
    estimate_higher_order,
    estimate_moments,
    fit_forest_classifier,
    fit_forest_regressor,
    fit_logistic,
    make_split,
    run_estimators,
    run_sweep,
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


def test_moment_above_one_in_magnitude():
    with pytest.raises(InvalidArgument, match="residual moments cannot exceed 1 in magnitude"):
        Moments(np.array([0.2, -1.5]))


def test_bernoulli_propensity_on_the_boundary():
    with pytest.raises(InvalidArgument, match=r"pi must lie strictly inside \(0, 1\)"):
        Moments.from_bernoulli(1.0, max_order=3)


def test_mixture_weights_not_a_probability_vector():
    with pytest.raises(InvalidArgument, match="weights must be a probability vector"):
        Moments.from_bernoulli_mixture([0.5, 0.6], [0.2, 0.7], max_order=3)


def test_mixture_propensity_outside_the_open_interval():
    with pytest.raises(InvalidArgument, match=r"mixture propensities must lie in \(0, 1\)"):
        Moments.from_bernoulli_mixture([0.5, 0.5], [0.0, 0.7], max_order=3)


def test_unknown_moments_source():
    with pytest.raises(InvalidArgument, match="moments_from must be 'estimation' or 'training'"):
        run_estimators([], None, None, None, moments_from="validation")


def test_non_positive_treatment_level():
    with pytest.raises(InvalidArgument, match="d_levels and noise_sd must be positive"):
        TreatmentOutcomeModel(
            beta=np.zeros((2, 1)), outcome_coeffs=np.zeros((2, 1)),
            d_levels=np.array([1.0, 0.0]), noise_sd=np.array([1.0, 1.0]),
        )


def test_propensity_floor_of_one_half():
    with pytest.raises(InvalidArgument, match=r"floor must lie in \[0, 0.5\)"):
        NuisanceFits(floor=0.5)


def test_forest_regressor_without_trees():
    with pytest.raises(InvalidArgument, match="n_trees and min_leaf must be >= 1"):
        fit_forest_regressor(np.zeros((4, 1)), np.zeros(4), n_trees=0)


def test_forest_classifier_with_empty_leaves():
    with pytest.raises(InvalidArgument, match="n_trees and min_leaf must be >= 1"):
        fit_forest_classifier(np.zeros((4, 1)), np.array([0, 1, 0, 1]), min_leaf=0)


def test_negative_logistic_penalty():
    with pytest.raises(InvalidArgument, match="l2 must be >= 0"):
        fit_logistic(np.zeros((4, 1)), np.array([0, 1, 0, 1]), l2=-1e-4)


def test_invalid_argument_is_a_value_error():
    assert issubclass(InvalidArgument, ValueError)


def test_unknown_truth_source():
    cfg = SimConfig(Q=60, M=1)
    with pytest.raises(InvalidArgument, match="truth_from must be 'estimation' or 'full'"):
        run_sweep(cfg, "samplesize", (60,), (EstimatorSpec("dr"),), truth_from="bogus")
