"""L1-penalised linear regression via cyclic coordinate descent.

Minimises (1/2n) ||y - b0 - X w||^2 + lam * ||w||_1 on standardised
features with an unpenalised intercept.  Because standardised columns
have exactly zero mean, the intercept decouples and stays at mean(y)
throughout; each coordinate update is a closed-form soft threshold on
the partial residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import NonFinite, ShapeMismatch
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


def fit_lasso(X, y, lam: float, max_iter: int = 1000, tol: float = 1e-7) -> LassoFit:
    """Fit by cyclic coordinate descent until no coefficient moves by more than tol."""
    X = validate_features(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("y must be 1-d and match X rows")
    if not np.all(np.isfinite(y)):
        raise NonFinite("y contains non-finite values")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    n, p = X.shape
    std = Standardizer.fit(X)
    Xs = std.transform(X)
    y_mean = y.mean()
    w = np.zeros(p)
    resid = y - y_mean
    col_ss = (Xs * Xs).sum(axis=0) / n
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(p):
            if col_ss[j] == 0.0:
                continue
            old = w[j]
            rho = Xs[:, j] @ resid / n + col_ss[j] * old
            new = _soft_threshold(rho, lam) / col_ss[j]
            if new != old:
                resid -= Xs[:, j] * (new - old)
                w[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta <= tol:
            break
    coef = w / std.scale
    intercept = y_mean - float(coef @ std.mean)
    return LassoFit(
        intercept=intercept, coef=coef, lam=lam, n_iter=n_iter, std=std, coef_std=w.copy()
    )


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
    """Pick lam from ``grid`` by K-fold cross-validated MSE, then refit on all rows."""
    X = validate_features(X)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    grid = tuple(grid)
    if not grid:
        raise ValueError("lam grid must be non-empty")
    if len(grid) == 1 or n < 2 * n_folds:
        return fit_lasso(X, y, grid[0], max_iter=max_iter, tol=tol)
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    folds = np.array_split(perm, n_folds)
    errs = np.zeros(len(grid))
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        for i, lam in enumerate(grid):
            fit = fit_lasso(X[mask], y[mask], lam, max_iter=max_iter, tol=tol)
            pred = fit.predict(X[fold])
            with np.errstate(over="ignore"):
                errs[i] += float(((y[fold] - pred) ** 2).sum())
    if not np.all(np.isfinite(errs)):
        raise NonFinite("lasso cross-validation errors overflow; rescale the outcome")
    best = grid[int(np.argmin(errs))]
    return fit_lasso(X, y, best, max_iter=max_iter, tol=tol)
