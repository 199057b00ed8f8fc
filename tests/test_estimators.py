import numpy as np
import pytest

from orthoate import (
    Dataset,
    DegenerateMoment,
    EmptyFold,
    EmptyResidualSet,
    EstimatorSpec,
    InvalidArgument,
    MissingClass,
    NonFinite,
    Moments,
    NuisanceFits,
    ShapeMismatch,
    SplitPlan,
    ZeroDenominator,
    compute_coefficients,
    correction_values,
    estimate_dml,
    estimate_dr,
    estimate_higher_order,
    estimate_moments,
    fit_forest_classifier,
    fit_logistic,
    make_split,
    pairwise_from_theta,
    relative_ate_error,
    run_estimators,
    single_resample_pass,
)
from orthoate.simulation import error_summary


def constant_fits(g_values, pi_values, floor=0.0) -> NuisanceFits:
    outcome_fns = [lambda Z, c=c: np.full(len(Z), float(c)) for c in g_values]

    def propensity(Z):
        return np.tile(np.asarray(pi_values, dtype=float), (len(Z), 1))

    return NuisanceFits.from_callables(outcome_fns, propensity, floor=floor)


def fold_arrays(ds, split, fits) -> tuple:
    """(y, d, G, P) of the estimation fold, as the estimators take them."""
    idx = split.estimation_idx
    P, _ = fits.propensity_matrix(ds.Z[idx])
    return ds.y[idx], ds.d[idx], fits.outcome_matrix(ds.Z[idx]), P


@pytest.fixture
def toy() -> tuple:
    # Row 0 is training; rows 1..4 are the estimation fold.
    y = np.array([0.0, 2.0, 3.0, 4.0, 5.0])
    d = np.array([0, 0, 1, 0, 1])
    Z = np.arange(5, dtype=float).reshape(-1, 1)
    ds = Dataset(y=y, d=d, Z=Z, n_treatments=2)
    split = SplitPlan(estimation_idx=np.array([1, 2, 3, 4]), training_idx=np.array([0]))
    return ds, split


class TestSplit:
    def test_sizes(self):
        plan = make_split(10, (0.5, 0.2, 0.3), seed=4)
        assert plan.estimation_idx.size == 3
        assert plan.training_idx.size == 7

    def test_paper_ratio(self):
        plan = make_split(10_000, (0.56, 0.14, 0.30), seed=0)
        assert plan.estimation_idx.size == 3000

    def test_disjoint_cover(self):
        plan = make_split(57, (0.56, 0.14, 0.30), seed=1)
        union = np.concatenate([plan.estimation_idx, plan.training_idx])
        assert np.array_equal(np.sort(union), np.arange(57))

    def test_deterministic(self):
        a = make_split(100, (0.56, 0.14, 0.30), seed=9)
        b = make_split(100, (0.56, 0.14, 0.30), seed=9)
        np.testing.assert_array_equal(a.estimation_idx, b.estimation_idx)

    def test_empty_fold_raises(self):
        with pytest.raises(EmptyFold):
            make_split(2, (0.56, 0.14, 0.30), seed=0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            make_split(100, (0.5, 0.2, 0.2), seed=0)


class TestMomentEstimation:
    def test_balanced_half(self):
        d = np.array([1, 0, 1, 0])
        pi = np.full(4, 0.5)
        m = estimate_moments(d, pi, treatment=1, max_order=2)
        assert m.m(1) == 0.0
        assert m.m(2) == 0.25

    def test_perfect_propensity_degenerates(self):
        d = np.array([1, 0, 1])
        pi = (d == 1).astype(float)
        m = estimate_moments(d, np.clip(pi, 1e-12, 1 - 1e-12), treatment=1, max_order=2)
        assert abs(m.m(2)) < 1e-8
        with pytest.raises(DegenerateMoment):
            compute_coefficients(2, 2, m)

    def test_single_unit_powers(self):
        m = estimate_moments(np.array([1]), np.array([0.3]), treatment=1, max_order=4)
        np.testing.assert_allclose(m.values, [0.7, 0.49, 0.343, 0.2401], rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            estimate_moments(np.array([1, 0]), np.array([0.5]), 1, 2)


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Dataset(y=np.zeros(3), d=np.zeros(2, dtype=int), Z=np.zeros((3, 1)))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(3), d=np.array([0, 1, 5]), Z=np.zeros((3, 1)), n_treatments=2)

    def test_truth_column_count(self):
        with pytest.raises(ShapeMismatch):
            Dataset(
                y=np.zeros(3), d=np.array([0, 1, 0]), Z=np.zeros((3, 1)),
                truth=np.zeros((3, 3)), n_treatments=2,
            )


LABEL_CALLERS = {
    "Dataset": lambda d: Dataset(y=np.zeros(d.size), d=d, Z=np.zeros((d.size, 1))),
    "fit_forest_classifier": lambda d: fit_forest_classifier(np.zeros((d.size, 1)), d, n_trees=1),
    "fit_logistic": lambda d: fit_logistic(np.zeros((d.size, 1)), d),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 2.0**63])
@pytest.mark.parametrize("caller", sorted(LABEL_CALLERS))
def test_unrepresentable_label_is_value_error(caller, bad):
    # A cast before the check would warn on each of these.
    with pytest.raises(ValueError, match="must be non-negative integers"):
        LABEL_CALLERS[caller](np.array([0.0, 1.0, bad]))


CLASSIFIERS = {"fit_forest_classifier": fit_forest_classifier, "fit_logistic": fit_logistic}


@pytest.mark.parametrize("bad", [3_000_000, 10**18])
@pytest.mark.parametrize("caller", sorted(CLASSIFIERS))
def test_label_beyond_the_class_count_is_named(caller, bad):
    # Sizing a class count by the largest label allocated bad + 1 counts.
    d = np.r_[np.arange(40) % 3, bad]
    with pytest.raises(InvalidArgument, match=rf"labels must lie in \[0, 3\), got \[{bad}\]"):
        CLASSIFIERS[caller](np.zeros((d.size, 1)), d, n_classes=3)


@pytest.mark.parametrize("caller", sorted(CLASSIFIERS))
def test_huge_class_count_is_named_briefly(caller):
    # Nothing may be sized by n_classes: a count array here would need 8 EiB.
    d = np.arange(30) % 3
    with pytest.raises(MissingClass, match=r"labels: \[3, 4, 5, 6, 7, 8, 9, 10, 11, 12, \.\.\.\]$"):
        CLASSIFIERS[caller](np.zeros((d.size, 1)), d, n_classes=10**18)


def test_out_of_range_labels_are_listed_briefly():
    d = np.r_[np.arange(40) % 3, np.arange(100, 120)]
    with pytest.raises(InvalidArgument, match=r"got \[100, 101, .*, 109, \.\.\.\]$"):
        fit_logistic(np.zeros((d.size, 1)), d, n_classes=3)


class TestBaselines:
    def test_dr_is_prediction_mean(self, toy):
        ds, split = toy
        fits = constant_fits([1.0, 2.0], [0.5, 0.5])
        rep = estimate_dr(fold_arrays(ds, split, fits)[2])
        np.testing.assert_array_equal(rep.theta, [1.0, 2.0])
        assert rep.estimator == "dr"

    def test_dml_hand_value(self, toy):
        # theta_0 = 1 + ((2-1)/0.5 + (4-1)/0.5)/4 = 3
        # theta_1 = 2 + ((3-2)/0.5 + (5-2)/0.5)/4 = 4
        ds, split = toy
        fits = constant_fits([1.0, 2.0], [0.5, 0.5])
        rep = estimate_dml(*fold_arrays(ds, split, fits))
        np.testing.assert_allclose(rep.theta, [3.0, 4.0], rtol=1e-14)
        assert rep.ate_pairwise[0, 1] == pytest.approx(-1.0)

    def test_dml_equals_dr_under_perfect_outcome_fit(self, toy):
        ds, split = toy
        # Outcome model that reproduces y exactly on the fold for both arms.
        outcome_fns = [lambda Z: ds.y[Z[:, 0].astype(int)], lambda Z: ds.y[Z[:, 0].astype(int)]]
        fits = NuisanceFits.from_callables(
            outcome_fns, lambda Z: np.tile([0.5, 0.5], (len(Z), 1))
        )
        dr = estimate_dr(fold_arrays(ds, split, fits)[2])
        dml = estimate_dml(*fold_arrays(ds, split, fits))
        np.testing.assert_allclose(dml.theta, dr.theta, rtol=1e-14)

    def test_dml_zero_propensity_goes_infinite(self, toy):
        ds, split = toy
        eps = 1e-300

        def propensity(Z):
            # Treatment 1 gets probability ~0 everywhere, and treated units exist.
            return np.tile([1.0 - eps, 0.0], (len(Z), 1))

        fits = NuisanceFits.from_callables(
            [lambda Z: np.zeros(len(Z)), lambda Z: np.zeros(len(Z))], propensity
        )
        rep = estimate_dml(*fold_arrays(ds, split, fits))
        assert rep.diagnostics.infinite
        assert np.isinf(rep.theta[1])

    def test_dml_vanishing_propensity_overflows_to_infinite(self, toy):
        # Residuals of 3 and 5 over a propensity of 1e-308 overflow; the
        # estimate is infinite, as for a zero propensity, with no warning.
        ds, split = toy
        fits = NuisanceFits.from_callables(
            [lambda Z: np.zeros(len(Z)), lambda Z: np.zeros(len(Z))],
            lambda Z: np.tile([1.0, 1e-308], (len(Z), 1)),
        )
        rep = estimate_dml(*fold_arrays(ds, split, fits))
        assert rep.diagnostics.infinite
        assert rep.theta[1] == np.inf and np.isfinite(rep.theta[0])

    def test_antisymmetry(self, toy):
        ds, split = toy
        fits = constant_fits([1.0, 2.0], [0.4, 0.6])
        rep = estimate_dml(*fold_arrays(ds, split, fits))
        np.testing.assert_array_equal(rep.ate_pairwise, -rep.ate_pairwise.T)
        assert rep.ate_pairwise[0, 1] == rep.theta[0] - rep.theta[1]


class TestHigherOrder:
    def test_bitwise_reproducible(self, toy):
        ds, split = toy
        fits = constant_fits([1.0, 2.0], [0.5, 0.5])
        a = estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=25, seed=31)
        b = estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=25, seed=31)
        np.testing.assert_array_equal(a.theta, b.theta)
        c = estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=25, seed=32)
        assert not np.array_equal(a.theta, c.theta)

    def test_r_reps_recorded(self, toy):
        ds, split = toy
        fits = constant_fits([1.0, 2.0], [0.5, 0.5])
        rep = estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=7, seed=0)
        assert rep.r_reps == 7
        assert rep.estimator == "ho(2,2)"
        assert len(rep.moments_used) == 2

    def test_empty_factual_arm_raises(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        d = np.array([1, 0, 0, 0])
        ds = Dataset(y=y, d=d, Z=np.zeros((4, 1)), n_treatments=2)
        split = SplitPlan(estimation_idx=np.array([1, 2, 3]), training_idx=np.array([0]))
        fits = constant_fits([0.0, 0.0], [0.7, 0.3])
        with pytest.raises(EmptyResidualSet):
            estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=1, seed=0)

    def test_decomposition_identity_with_constant_residuals(self):
        # Every factual and every true counterfactual residual is c, so
        # each resampled draw equals the unit's own residual and any R
        # and seed reproduce the direct full-information estimator
        # mean(g_i) + c * sum(A) / N.
        c = 0.75
        rng = np.random.default_rng(17)
        n = 60
        Z = rng.normal(size=(n, 2))
        # Multiples of 1/8, so y - g_i is exactly c.
        g_hat = [lambda Z: np.floor(8 * Z[:, 0]) / 8, lambda Z: 1.0 + np.floor(4 * Z[:, 1]) / 8]
        potential = np.column_stack([g(Z) for g in g_hat]) + c
        d = (rng.uniform(size=n) < 0.5).astype(int)
        ds = Dataset(y=potential[np.arange(n), d], d=d, Z=Z, n_treatments=2)
        split = make_split(n, (0.4, 0.2, 0.4), seed=2)
        fits = NuisanceFits.from_callables(g_hat, lambda Z: np.tile([0.5, 0.5], (len(Z), 1)))

        idx = split.estimation_idx
        N = idx.size
        direct = []
        for i in range(2):
            np.testing.assert_array_equal(potential[idx, i] - g_hat[i](Z[idx]), c)
            mom = estimate_moments(ds.d[idx], np.full(N, 0.5), i, 2)
            coeffs = compute_coefficients(2, 2, mom)
            t = (ds.d[idx] == i).astype(float)
            A = correction_values(t, np.full(N, 0.5), coeffs, mom)
            direct.append(g_hat[i](Z[idx]).mean() + c * A.sum() / N)

        for R, seed in ((1, 0), (7, 3), (40, 12345)):
            rep = estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=R, seed=seed)
            np.testing.assert_allclose(rep.theta, direct, rtol=0, atol=1e-12)

    def test_fold_hygiene(self, toy):
        # Predictions must be requested for estimation rows only.
        ds, split = toy
        seen = []

        def record_outcome(Z):
            seen.extend(Z[:, 0].tolist())
            return np.zeros(len(Z))

        def record_propensity(Z):
            seen.extend(Z[:, 0].tolist())
            return np.tile([0.5, 0.5], (len(Z), 1))

        fits = NuisanceFits.from_callables([record_outcome, record_outcome], record_propensity)
        specs = [EstimatorSpec("dr"), EstimatorSpec("dml"), EstimatorSpec("higher_order", r=2, k=2, R=2)]
        run_estimators(specs, ds, split, fits, seed=0)
        fold_rows = set(ds.Z[split.estimation_idx, 0].tolist())
        assert set(seen) == fold_rows

    def test_run_estimators_predicts_each_fold_once(self, toy):
        ds, split = toy
        calls = []

        def outcome(Z):
            calls.append(("outcome", len(Z)))
            return np.zeros(len(Z))

        def propensity(Z):
            calls.append(("propensity", len(Z)))
            return np.tile([0.5, 0.5], (len(Z), 1))

        fits = NuisanceFits.from_callables([outcome, outcome], propensity)
        specs = [EstimatorSpec("dr"), EstimatorSpec("dml"), EstimatorSpec("higher_order", r=2, k=2, R=1),
                 EstimatorSpec("higher_order", r=4, k=2, R=1)]
        reports = run_estimators(specs, ds, split, fits, seed=0)
        assert [r.estimator for r in reports] == ["dr", "dml", "ho(2,2)", "ho(4,2)"]
        assert calls == [("outcome", 4), ("outcome", 4), ("propensity", 4)]
        calls.clear()
        run_estimators(specs, ds, split, fits, seed=0, moments_from="training")
        assert calls == [("outcome", 4), ("outcome", 4), ("propensity", 4), ("propensity", 1)]
        calls.clear()
        run_estimators(specs[:2], ds, split, fits, seed=0, moments_from="training")
        assert calls == [("outcome", 4), ("outcome", 4), ("propensity", 4)]

    def test_moments_from_training_switch(self, toy):
        ds, split = toy

        def skewed_propensity(Z):
            # Different regions give different residual spreads.
            p1 = np.where(Z[:, 0] < 1, 0.1, 0.5)
            return np.column_stack([1 - p1, p1])

        fits = NuisanceFits.from_callables(
            [lambda Z: np.zeros(len(Z)), lambda Z: np.zeros(len(Z))], skewed_propensity
        )
        specs = [EstimatorSpec("higher_order", r=2, k=2, R=1)]
        rep_est = run_estimators(specs, ds, split, fits, seed=0)[0]
        rep_tr = run_estimators(specs, ds, split, fits, seed=0, moments_from="training")[0]
        assert rep_est.moments_used[1].m(2) != rep_tr.moments_used[1].m(2)

    def test_exact_moment_override(self, toy):
        ds, split = toy
        fits = constant_fits([1.0, 2.0], [0.5, 0.5])
        exact = (Moments.from_bernoulli(0.5, 2), Moments.from_bernoulli(0.5, 2))
        rep = estimate_higher_order(*fold_arrays(ds, split, fits), r=2, k=2, R=1, seed=0, moments=exact)
        assert rep.moments_used[0].m(2) == 0.25


class TestResamplePass:
    def test_constant_pool_closed_form(self):
        pool = np.array([3.0])
        corrections = np.array([0.5, 1.5, -2.0])
        rng = np.random.default_rng(0)
        val = single_resample_pass(pool, corrections, n_fold=6, rng=rng)
        assert val == pytest.approx(3.0 * corrections.sum() / 6.0, rel=1e-15)

    def test_draws_come_from_pool(self):
        pool = np.array([1.0, 2.0, 4.0])
        rng = np.random.default_rng(1)
        val = single_resample_pass(pool, np.ones(1000), n_fold=1000, rng=rng)
        assert 1.0 <= val <= 4.0


class TestErrorMetric:
    def test_exact_match_is_zero(self):
        truth = pairwise_from_theta(np.array([1.0, 2.0]))
        assert relative_ate_error(truth, truth) == 0.0

    def test_single_pair_example(self):
        # theta_hat = 1.1 vs theta = 1.0 over an ordered pair and its
        # mirror: (0.1 + 0.1) / (1 + 1) = 0.1.
        hat = pairwise_from_theta(np.array([1.1, 0.0]))
        true = pairwise_from_theta(np.array([1.0, 0.0]))
        assert relative_ate_error(hat, true) == pytest.approx(0.1, rel=1e-12)

    def test_mean_over_datasets(self):
        # epsilon_ATE is the reports' mean of per-dataset errors.
        base = pairwise_from_theta(np.array([1.0, 0.0]))
        hats = [pairwise_from_theta(np.array([1.1, 0.0])), pairwise_from_theta(np.array([1.3, 0.0]))]
        errors = [("learner", "dml", unit, relative_ate_error(hat, base)) for unit, hat in enumerate(hats)]
        n_kept, n_excluded, mean, median = error_summary(errors, filter_infinite=False)["learner", "dml"]
        assert (n_kept, n_excluded) == (2, 0)
        assert mean == pytest.approx(0.2, rel=1e-12)
        assert median == mean

    def test_ratio_overflow_raises_nonfinite(self):
        # Finite estimates against subnormal true effects: the ratio
        # overflows, which is an error, not an infinite estimate.
        hat = pairwise_from_theta(np.array([1.0, 0.0]))
        tiny = pairwise_from_theta(np.array([5e-324, 0.0]))
        with pytest.raises(NonFinite, match="overflows"):
            relative_ate_error(hat, tiny)
        infinite = pairwise_from_theta(np.array([np.inf, 0.0]))
        assert relative_ate_error(infinite, tiny) == np.inf

    def test_zero_denominator(self):
        zero = pairwise_from_theta(np.array([0.0, 0.0]))
        with pytest.raises(ZeroDenominator):
            relative_ate_error(zero, zero)
