"""Reference lasso cross-validation that the lasso tests compare against.

This is ``fit_lasso_cv`` as the package ran it before each fold's
standardisation was shared across the lambda grid: one full
``fit_lasso`` call (validation, standardisation, coordinate descent)
per fold and lambda, then one refit on all rows.  It is kept only as
the oracle: ``fit_lasso_cv`` must reproduce its fits bit for bit.
"""

from __future__ import annotations

import numpy as np

from orthoate.exceptions import NonFinite, ShapeMismatch
from orthoate.learners.base import Standardizer, validate_features
from orthoate.learners.lasso import LassoFit, _soft_threshold


def reference_fit_lasso(X, y, lam: float, max_iter: int = 1000, tol: float = 1e-7) -> LassoFit:
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


def reference_fit_lasso_cv(
    X, y, grid=(1e-3, 1e-2, 1e-1), n_folds: int = 5, seed: int = 0,
    max_iter: int = 1000, tol: float = 1e-7,
) -> LassoFit:
    X = validate_features(X)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    grid = tuple(grid)
    if not grid:
        raise ValueError("lam grid must be non-empty")
    if len(grid) == 1 or n < 2 * n_folds:
        return reference_fit_lasso(X, y, grid[0], max_iter=max_iter, tol=tol)
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    folds = np.array_split(perm, n_folds)
    errs = np.zeros(len(grid))
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        for i, lam in enumerate(grid):
            fit = reference_fit_lasso(X[mask], y[mask], lam, max_iter=max_iter, tol=tol)
            pred = fit.predict(X[fold])
            with np.errstate(over="ignore"):
                errs[i] += float(((y[fold] - pred) ** 2).sum())
    if not np.all(np.isfinite(errs)):
        raise NonFinite("lasso cross-validation errors overflow; rescale the outcome")
    best = grid[int(np.argmin(errs))]
    return reference_fit_lasso(X, y, best, max_iter=max_iter, tol=tol)
