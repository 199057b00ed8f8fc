"""Nuisance learners: outcome regressors and propensity classifiers.

Everything here is fit on training-fold rows only; the shared
:class:`NuisanceFits` bundle is the single interface the estimators
consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigError, MissingClass
from ..seeds import seed_int
from .base import NuisanceFits, Standardizer, integer_labels, missing_classes, validate_features
from .forest import ForestClassifierFit, ForestRegressorFit, fit_forest_classifier, fit_forest_regressor
from .lasso import LassoFit, fit_lasso, fit_lasso_cv, kkt_residual
from .logistic import LogisticFit, fit_logistic, softmax

REGRESSORS = ("lasso", "forest")
PROPENSITY_MODELS = ("logistic", "forest")


@dataclass(frozen=True)
class LearnerSpec:
    """Which learners to use for the nuisances, with their hyperparameters."""

    regressor: str = "lasso"
    propensity: str = "logistic"
    lasso_grid: tuple = (1e-3, 1e-2, 1e-1)
    logistic_l2: float = 1e-4
    n_trees: int = 100
    max_depth: int | None = 10
    min_leaf: int = 5

    def __post_init__(self) -> None:
        if self.regressor not in REGRESSORS:
            raise ConfigError(f"unknown regressor '{self.regressor}' (choices: {REGRESSORS})")
        if self.propensity not in PROPENSITY_MODELS:
            raise ConfigError(
                f"unknown propensity model '{self.propensity}' (choices: {PROPENSITY_MODELS})"
            )

    @property
    def label(self) -> str:
        return f"{self.regressor}+{self.propensity}"


def fit_nuisances(
    X, y, d, n_treatments: int, spec: LearnerSpec, seed: int = 0, floor: float = 0.0
) -> NuisanceFits:
    """Fit per-treatment outcome regressors and the propensity model.

    Callers pass training-fold rows only; nothing here sees the
    estimation fold.  Each outcome regressor is trained on the rows
    actually assigned its treatment, so an arm without training rows
    raises :class:`MissingClass`, and a label outside [0, n_treatments)
    :class:`InvalidArgument`, before anything is fit.  Seeds for
    sub-fits derive from ``seed`` by fixed spawn keys, so refits are
    reproducible.
    """
    X = validate_features(X)
    y = np.asarray(y, dtype=float)
    d = integer_labels(d, "treatment labels")
    n_missing, shown = missing_classes(d, n_treatments, "treatment labels")
    if n_missing:
        raise MissingClass(
            f"treatment arm(s) {shown} have no training rows ({n_missing} of {n_treatments} arms)"
        )
    outcome = []
    for i in range(n_treatments):
        rows = d == i
        if spec.regressor == "lasso":
            fit = fit_lasso_cv(X[rows], y[rows], grid=spec.lasso_grid, seed=seed_int(seed, 1, i))
        else:
            fit = fit_forest_regressor(
                X[rows],
                y[rows],
                n_trees=spec.n_trees,
                max_depth=spec.max_depth,
                min_leaf=spec.min_leaf,
                seed=seed_int(seed, 1, i),
            )
        outcome.append(fit)
    prop_seed = seed_int(seed, 2)
    if spec.propensity == "logistic":
        propensity = fit_logistic(X, d, n_classes=n_treatments, l2=spec.logistic_l2)
    else:
        propensity = fit_forest_classifier(
            X,
            d,
            n_classes=n_treatments,
            n_trees=spec.n_trees,
            max_depth=spec.max_depth,
            min_leaf=spec.min_leaf,
            seed=prop_seed,
        )
    return NuisanceFits(outcome=outcome, propensity=propensity, floor=floor)


__all__ = [
    "ForestClassifierFit",
    "ForestRegressorFit",
    "LassoFit",
    "LearnerSpec",
    "LogisticFit",
    "NuisanceFits",
    "PROPENSITY_MODELS",
    "REGRESSORS",
    "Standardizer",
    "fit_forest_classifier",
    "fit_forest_regressor",
    "fit_lasso",
    "fit_lasso_cv",
    "fit_logistic",
    "fit_nuisances",
    "kkt_residual",
    "softmax",
    "validate_features",
]
