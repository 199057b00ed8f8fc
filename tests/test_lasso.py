import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoate import InvalidArgument, NonFinite, fit_lasso, fit_lasso_cv
from orthoate.learners import Standardizer
from orthoate.learners.lasso import kkt_residual

from lasso_reference import reference_fit_lasso_cv


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(300, 6))
    beta = np.array([2.0, -1.0, 0.0, 0.0, 0.5, 0.0])
    y = 1.5 + X @ beta + 0.3 * rng.normal(size=300)
    return X, y, beta


def test_lambda_zero_is_ols(regression_data):
    X, y, _ = regression_data
    fit = fit_lasso(X, y, lam=0.0, max_iter=5000, tol=1e-12)
    design = np.column_stack([np.ones(len(y)), X])
    ols = np.linalg.lstsq(design, y, rcond=None)[0]
    assert fit.intercept == pytest.approx(ols[0], abs=1e-6)
    np.testing.assert_allclose(fit.coef, ols[1:], atol=1e-6)


def test_large_lambda_zeroes_everything(regression_data):
    X, y, _ = regression_data
    # lambda beyond max_j |x_j . (y - ybar)| / n kills every coefficient.
    Xs = (X - X.mean(axis=0)) / X.std(axis=0)
    lam_max = np.max(np.abs(Xs.T @ (y - y.mean()))) / len(y)
    fit = fit_lasso(X, y, lam=1.01 * lam_max)
    assert np.all(fit.coef == 0.0)
    assert fit.intercept == pytest.approx(y.mean(), rel=1e-12)


def test_signal_recovery(regression_data):
    X, y, beta = regression_data
    fit = fit_lasso(X, y, lam=0.01)
    assert 1.9 <= fit.coef[0] <= 2.1
    assert -1.1 <= fit.coef[1] <= -0.9


def test_kkt_residual_small(regression_data):
    X, y, _ = regression_data
    for lam in (0.01, 0.1, 0.5):
        fit = fit_lasso(X, y, lam=lam, max_iter=10_000, tol=1e-10)
        assert kkt_residual(fit, X, y) <= 1e-6


def test_predict_matches_affine_form(regression_data):
    X, y, _ = regression_data
    fit = fit_lasso(X, y, lam=0.05)
    np.testing.assert_allclose(fit.predict(X), fit.intercept + X @ fit.coef, rtol=1e-12)


def test_rejects_non_finite():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(NonFinite):
        fit_lasso(X, np.array([1.0, 2.0]), lam=0.1)


def test_cv_selects_from_grid(regression_data):
    X, y, _ = regression_data
    fit = fit_lasso_cv(X, y, grid=(1e-3, 1e-2, 1e-1), n_folds=5, seed=0)
    assert fit.lam in (1e-3, 1e-2, 1e-1)
    assert 1.8 <= fit.coef[0] <= 2.2


def test_cv_single_grid_point_short_circuits(regression_data):
    X, y, _ = regression_data
    direct = fit_lasso(X, y, lam=0.02)
    via_cv = fit_lasso_cv(X, y, grid=(0.02,))
    np.testing.assert_allclose(via_cv.coef, direct.coef, rtol=1e-12)


def test_cv_deterministic(regression_data):
    X, y, _ = regression_data
    a = fit_lasso_cv(X, y, seed=7)
    b = fit_lasso_cv(X, y, seed=7)
    assert a.lam == b.lam
    np.testing.assert_array_equal(a.coef, b.coef)


def test_cv_overflow_raises_nonfinite():
    # Squared held-out errors of targets near 1e200 overflow float64.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 2))
    y = 1e200 * (1 + rng.normal(size=200))
    with pytest.raises(NonFinite, match="overflow"):
        fit_lasso_cv(X, y)


@pytest.mark.parametrize("column", [0, 1])
def test_covariates_whose_variance_overflows_raise_nonfinite(column):
    # At the parent the square overflowed with a RuntimeWarning, the scale
    # became inf and the column standardised to all zeros.
    X = np.random.default_rng(0).normal(size=(50, 2))
    X[:, column] *= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="overflows"):
            Standardizer.fit(X)


def test_rows_that_overflow_when_standardised_raise_nonfinite():
    # Training rows spread near 1e-25 give a tiny scale; a prediction
    # row at 1e300 then overflowed with a RuntimeWarning.
    std = Standardizer.fit(np.array([[2.2e-9], [2.2e-9 + 4e-25], [2.2e-9]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="standardised covariates overflow"):
            std.transform(np.array([[1e300]]))


def test_coefficients_that_overflow_on_the_original_scale_raise_nonfinite():
    # A covariate spread near 1e-150 against an outcome near 1e300: the
    # standardised coefficient is finite, its unscaled value is not.
    X = 1e-150 * np.array([[0.0], [1.0], [0.0], [1.0], [2.0], [0.0]])
    y = 1e300 * np.array([0.0, 1.0, 0.0, 1.0, 2.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="coefficients overflow"):
            fit_lasso(X, y, 1e-3)


def assert_same_fit(got, want):
    assert got.lam == want.lam and got.n_iter == want.n_iter
    assert got.intercept.hex() == want.intercept.hex()
    assert got.coef.tobytes() == want.coef.tobytes()
    assert got.coef_std.tobytes() == want.coef_std.tobytes()


_grid = st.lists(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 1.0]), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 150),
    p=st.integers(1, 6),
    grid=_grid,
    n_folds=st.integers(2, 6),
    seed=st.integers(0, 2**40),
    data_seed=st.integers(0, 2**32 - 1),
    constant_column=st.booleans(),
)
def test_cv_equals_the_reference(n, p, grid, n_folds, seed, data_seed, constant_column):
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, p))
    if constant_column:
        X[:, 0] = 1.5  # a zero-variance column: col_ss is 0 and the coordinate is skipped
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    got = fit_lasso_cv(X, y, grid=grid, n_folds=n_folds, seed=seed, max_iter=200)
    want = reference_fit_lasso_cv(X, y, grid=grid, n_folds=n_folds, seed=seed, max_iter=200)
    assert_same_fit(got, want)


def raised(fn, *args, **kwargs):
    with pytest.raises(Exception) as exc:
        fn(*args, **kwargs)
    return exc.value


@pytest.mark.parametrize(
    "case", ["nan_y_and_negative_lam", "negative_second_lam", "y_2d", "empty_grid"]
)
def test_cv_errors_keep_their_order_and_messages(regression_data, case):
    X, y, _ = regression_data
    grid = (1e-3, 1e-2)
    if case == "nan_y_and_negative_lam":
        # Non-finite y raises NonFinite before any lambda is checked.  The
        # NaN sits in the last fold, so the first fold's fit sees it.
        y, grid = y.copy(), (-1.0, 1e-2)
        y[np.random.default_rng(np.random.SeedSequence(0)).permutation(y.size)[-1]] = np.nan
    elif case == "negative_second_lam":
        grid = (1e-2, -1.0)
    elif case == "y_2d":
        y = y[:, None]
    else:
        grid = ()
    got = raised(fit_lasso_cv, X, y, grid=grid)
    want = raised(reference_fit_lasso_cv, X, y, grid=grid)
    assert isinstance(got, type(want)) and str(got) == str(want)
    if isinstance(want, ValueError):
        assert isinstance(got, InvalidArgument)


def test_negative_lam_is_invalid_argument():
    with pytest.raises(InvalidArgument, match="lam must be >= 0"):
        fit_lasso(np.eye(3), np.ones(3), lam=-0.1)


def test_empty_grid_is_invalid_argument():
    with pytest.raises(InvalidArgument, match="lam grid must be non-empty"):
        fit_lasso_cv(np.eye(3), np.ones(3), grid=())


@pytest.mark.parametrize("n_folds", [0, 1, -2, 2.5, "5", None])
def test_cv_fold_count_must_be_an_integer_of_at_least_two(regression_data, n_folds):
    X, y, _ = regression_data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="n_folds must be an integer >= 2"):
            fit_lasso_cv(X[:50], y[:50], n_folds=n_folds)


@pytest.mark.parametrize("n_folds", [2, np.int64(3)])
def test_cv_accepts_integer_fold_counts(regression_data, n_folds):
    X, y, _ = regression_data
    got = fit_lasso_cv(X[:50], y[:50], n_folds=n_folds)
    assert_same_fit(got, reference_fit_lasso_cv(X[:50], y[:50], n_folds=int(n_folds)))


@pytest.mark.parametrize("rows", [8, 50])
def test_cv_checks_every_lambda_on_the_short_path_too(regression_data, rows):
    # 8 rows are fewer than 2 * n_folds, which skips the cross-validation.
    X, y, _ = regression_data
    with pytest.raises(InvalidArgument, match="lam must be >= 0"):
        fit_lasso_cv(X[:rows], y[:rows], grid=(0.1, -1.0))
