import numpy as np
import pytest

from orthoate import NonFinite, fit_lasso, fit_lasso_cv
from orthoate.learners.lasso import kkt_residual


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
