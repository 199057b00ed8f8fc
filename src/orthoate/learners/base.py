"""Shared pieces of the nuisance learners: standardisation and fit bundles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import NonFinite, ShapeMismatch


def validate_features(X, p: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch(f"feature matrix must be 2-d, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise NonFinite("feature matrix contains non-finite values")
    if p is not None and X.shape[1] != p:
        raise ShapeMismatch(f"expected {p} features, got {X.shape[1]}")
    return X


@dataclass(frozen=True)
class Standardizer:
    """Column-wise zero-mean unit-variance transform, fit on training rows only."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        # Divides in place: one full-size temporary, not two.
        Xs = X - self.mean
        Xs /= self.scale
        return Xs


class _FunctionRegressor:
    def __init__(self, fn):
        self._fn = fn

    def predict(self, X):
        return np.asarray(self._fn(np.asarray(X, dtype=float)), dtype=float)


class _FunctionClassifier:
    def __init__(self, fn):
        self._fn = fn

    def predict_proba(self, X):
        return np.asarray(self._fn(np.asarray(X, dtype=float)), dtype=float)


@dataclass
class NuisanceFits:
    """Per-treatment outcome regressors plus one propensity model.

    The estimators only touch this interface, never the learners, so
    oracle nuisances (plain callables) slot in through
    :meth:`from_callables`.  ``floor`` optionally clips predicted
    propensities into [floor, 1 - floor]; 0 disables clipping.
    """

    outcome: list = field(default_factory=list)
    propensity: object = None
    floor: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.floor < 0.5):
            raise ValueError("floor must lie in [0, 0.5)")

    @property
    def n_treatments(self) -> int:
        return len(self.outcome)

    def outcome_matrix(self, X: np.ndarray) -> np.ndarray:
        cols = [np.asarray(m.predict(X), dtype=float) for m in self.outcome]
        return np.column_stack(cols)

    def propensity_matrix(self, X: np.ndarray):
        """Return (probabilities, number of entries clipped by the floor)."""
        P = np.asarray(self.propensity.predict_proba(X), dtype=float)
        if P.ndim != 2 or P.shape[0] != np.asarray(X).shape[0]:
            raise ShapeMismatch("propensity model returned a misshaped matrix")
        if self.floor > 0.0:
            clipped = np.clip(P, self.floor, 1.0 - self.floor)
            n_floored = int(np.sum(clipped != P))
            return clipped, n_floored
        return P, 0

    @classmethod
    def from_callables(cls, outcome_fns, propensity_fn, floor: float = 0.0) -> "NuisanceFits":
        return cls(
            outcome=[_FunctionRegressor(f) for f in outcome_fns],
            propensity=_FunctionClassifier(propensity_fn),
            floor=floor,
        )
