"""L1-penalised linear regression via cyclic coordinate descent.

Minimises (1/2n) ||y - b0 - X w||^2 + lam * ||w||_1 on standardised
features with an unpenalised intercept.  Because standardised columns
have exactly zero mean, the intercept decouples and stays at mean(y)
throughout; each coordinate update is a closed-form soft threshold on
the partial residual.

Cross-validation standardises each training fold once and runs the
descent for every lambda of the grid on that one standardisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidArgument, NonFinite, ShapeMismatch
from ..seeds import stream
from .base import Standardizer, validate_features


def _soft_threshold(v: float, lam: float) -> float:
    if v > lam:
        return v - lam
    if v < -lam:
        return v + lam
    return 0.0


@dataclass
class LassoFit:
    intercept: float
    coef: np.ndarray
    lam: float
    n_iter: int
    std: Standardizer
    coef_std: np.ndarray

    def predict(self, X) -> np.ndarray:
        X = validate_features(X, p=self.coef.size)
        return self.intercept + X @ self.coef


def _checked(X, y) -> tuple:
    X = validate_features(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("y must be 1-d and match X rows")
    if not np.all(np.isfinite(y)):
        raise NonFinite("y contains non-finite values")
    return X, y


def _check_lam(lam) -> None:
    if lam < 0:
        raise InvalidArgument("lam must be >= 0")


@dataclass
class _Problem:
    """One training set, standardised once for any number of lambdas."""

    std: Standardizer
    y: np.ndarray
    y_mean: float
    # (j, column j of the standardised X, its mean square) for every column
    # of non-zero variance.  The columns are views into the row-major
    # matrix, so each dot with the residual stays a strided BLAS dot.
    coords: list

    @classmethod
    def of(cls, X, y) -> "_Problem":
        std = Standardizer.fit(X)
        Xs = std.transform(X)
        col_ss = (Xs * Xs).sum(axis=0) / X.shape[0]
        coords = [(j, Xs[:, j], float(ss)) for j, ss in enumerate(col_ss) if ss != 0.0]
        return cls(std, y, y.mean(), coords)


def _descend(prob: _Problem, lam: float, max_iter: int, tol: float) -> LassoFit:
    """Cyclic coordinate descent until no coefficient moves by more than tol."""
    n = prob.y.size
    w = [0.0] * prob.std.mean.size
    resid = prob.y - prob.y_mean
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        max_delta = 0.0
        for j, col, ss in prob.coords:
            old = w[j]
            rho = col @ resid / n + ss * old
            new = _soft_threshold(rho, lam) / ss
            if new != old:
                resid -= col * (new - old)
                w[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta <= tol:
            break
    coef_std = np.array(w, dtype=float)
    with np.errstate(over="ignore"):
        coef = coef_std / prob.std.scale
    if not np.all(np.isfinite(coef)):
        raise NonFinite("lasso coefficients overflow; rescale the outcome or the covariates")
    intercept = prob.y_mean - float(coef @ prob.std.mean)
    return LassoFit(
        intercept=intercept, coef=coef, lam=lam, n_iter=n_iter, std=prob.std, coef_std=coef_std
    )


def _held_out_errors(X, y, fold, grid, max_iter: int, tol: float) -> list:
    """Held-out sums of squared errors, one per lambda, of fits on all rows but ``fold``.

    The fold's arrays are freed on return, before the next fold's are
    built, so at most one fold's standardisation is alive at a time.
    """
    mask = np.ones(y.size, dtype=bool)
    mask[fold] = False
    prob = _Problem.of(X[mask], y[mask])
    X_out, y_out = X[fold], y[fold]
    sums = []
    for lam in grid:
        fit = _descend(prob, lam, max_iter, tol)
        pred = fit.intercept + X_out @ fit.coef
        with np.errstate(over="ignore"):
            sums.append(float(((y_out - pred) ** 2).sum()))
    return sums


def fit_lasso(X, y, lam: float, max_iter: int = 1000, tol: float = 1e-7) -> LassoFit:
    """Fit by cyclic coordinate descent until no coefficient moves by more than tol."""
    X, y = _checked(X, y)
    _check_lam(lam)
    return _descend(_Problem.of(X, y), lam, max_iter, tol)


def kkt_residual(fit: LassoFit, X, y) -> float:
    """Largest violation of the stationarity conditions on the standardised problem.

    At an exact optimum, |g_j| <= lam for inactive coordinates and
    g_j = lam * sign(w_j) for active ones, where g_j is the negative
    partial gradient X_j' r / n.  Returns the max absolute slack.
    """
    X = validate_features(X, p=fit.coef.size)
    y = np.asarray(y, dtype=float)
    Xs = fit.std.transform(X)
    n = X.shape[0]
    resid = y - fit.intercept - X @ fit.coef
    g = Xs.T @ resid / n
    worst = 0.0
    for j in range(fit.coef_std.size):
        if fit.coef_std[j] != 0.0:
            worst = max(worst, abs(g[j] - fit.lam * np.sign(fit.coef_std[j])))
        else:
            worst = max(worst, max(0.0, abs(g[j]) - fit.lam))
    return worst


def fit_lasso_cv(
    X,
    y,
    grid=(1e-3, 1e-2, 1e-1),
    n_folds: int = 5,
    seed: int = 0,
    max_iter: int = 1000,
    tol: float = 1e-7,
) -> LassoFit:
    """Pick lam from ``grid`` by K-fold cross-validated MSE, then refit on all rows.

    Each training fold is standardised once and shared by every lambda;
    the held-out fold is predicted as ``intercept + X @ coef``, as
    ``LassoFit.predict`` does.  ``n_folds`` and every lambda of the grid
    are checked before anything is fitted, also when a single-lambda
    grid or fewer than ``2 * n_folds`` rows skip the cross-validation.
    """
    X = validate_features(X)
    n = X.shape[0]
    grid = tuple(grid)
    if not grid:
        raise InvalidArgument("lam grid must be non-empty")
    if not (isinstance(n_folds, (int, np.integer)) and n_folds >= 2):
        raise InvalidArgument(f"n_folds must be an integer >= 2, got {n_folds!r}")
    X, y = _checked(X, y)
    for lam in grid:
        _check_lam(lam)
    if len(grid) == 1 or n < 2 * n_folds:
        return fit_lasso(X, y, grid[0], max_iter=max_iter, tol=tol)
    perm = stream(seed).permutation(n)
    folds = np.array_split(perm, n_folds)
    errs = np.zeros(len(grid))
    for fold in folds:
        errs += _held_out_errors(X, y, fold, grid, max_iter, tol)
    if not np.all(np.isfinite(errs)):
        raise NonFinite("lasso cross-validation errors overflow; rescale the outcome")
    best = grid[int(np.argmin(errs))]
    return fit_lasso(X, y, best, max_iter=max_iter, tol=tol)
