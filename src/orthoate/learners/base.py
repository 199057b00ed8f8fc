"""Shared pieces of the nuisance learners: standardisation and fit bundles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidArgument, MissingClass, NonFinite, ShapeMismatch

# Labels named in an error message.
_SHOWN_LABELS = 10


def validate_features(X, p: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch(f"feature matrix must be 2-d, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise NonFinite("feature matrix contains non-finite values")
    if p is not None and X.shape[1] != p:
        raise ShapeMismatch(f"expected {p} features, got {X.shape[1]}")
    return X


# The largest int64 label: as a float, 2**63 - 512 rounds (to even) up
# to 2**63, outside the range integer_labels accepts.
_INT64_LABEL_MAX = 2**63 - 513


def integer_labels(d, what: str = "labels") -> np.ndarray:
    """``d`` as int64 labels, or InvalidArgument unless each is an integer in [0, 2**63).

    Values are checked before the cast, so NaN, infinities, fractions and
    out-of-range values fail without a cast warning.  The range is read
    on the float value of each label, so int64 labels above
    ``_INT64_LABEL_MAX`` fail too; int64 input is returned uncopied.
    """
    d = np.asarray(d)
    if d.dtype == np.int64:
        if d.size and not (d.min() >= 0 and d.max() <= _INT64_LABEL_MAX):
            raise InvalidArgument(f"{what} must be non-negative integers")
        return d
    f = d.astype(float)
    if not np.all((f >= 0) & (f < 2.0**63) & (f == np.floor(f))):
        raise InvalidArgument(f"{what} must be non-negative integers")
    return d.astype(np.int64)


def _listing(values: np.ndarray, count: int) -> str:
    """The first _SHOWN_LABELS of ``values`` as a list, ending in "..." if ``count`` is larger."""
    shown = [str(v) for v in values[:_SHOWN_LABELS].tolist()]
    if count > len(shown):
        shown.append("...")
    return f"[{', '.join(shown)}]"


def check_label_range(labels: np.ndarray, k: int, what: str = "labels") -> None:
    """InvalidArgument naming the first non-negative ``labels`` that are >= ``k``."""
    if labels.size and labels.max() >= k:
        outside = np.unique(labels[labels >= k])
        raise InvalidArgument(f"{what} must lie in [0, {k}), got {_listing(outside, outside.size)}")


def missing_classes(labels: np.ndarray, k: int, what: str = "labels") -> tuple[int, str]:
    """How many classes in [0, k) no label takes, and a listing of the first of them.

    Labels >= ``k`` raise InvalidArgument.  Costs one ``np.unique`` of
    ``labels``, however large ``k`` is: nothing is sized by ``k``.
    """
    present = np.unique(labels)
    check_label_range(present, k, what)
    n_missing = k - present.size
    if not n_missing:
        return 0, ""
    # At most present.size of the classes below present.size + _SHOWN_LABELS
    # are present, so the first missing ones are among them.
    first = np.arange(min(k, present.size + _SHOWN_LABELS))
    return n_missing, _listing(first[~np.isin(first, present)], n_missing)


def class_count(labels: np.ndarray, n_classes: int | None) -> int:
    """The class count, or InvalidArgument/MissingClass if the labels do not fill it."""
    k = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    n_missing, shown = missing_classes(labels, k)
    if n_missing:
        raise MissingClass(f"classes absent from the training labels: {shown}")
    return k


@dataclass(frozen=True)
class Standardizer:
    """Column-wise zero-mean unit-variance transform, fit on training rows only."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        with np.errstate(over="ignore"):
            mean, scale = X.mean(axis=0), X.std(axis=0)
        if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
            raise NonFinite("feature mean or variance overflows; rescale the covariates")
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        # Divides in place: one full-size temporary, not two.
        with np.errstate(over="ignore"):
            Xs = X - self.mean
            Xs /= self.scale
        if not np.isfinite(Xs).all():
            raise NonFinite("standardised covariates overflow; rescale the covariates")
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
            raise InvalidArgument("floor must lie in [0, 0.5)")

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
