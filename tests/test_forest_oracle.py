"""The package's forests reproduce the reference grower's trees bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoate import fit_forest_classifier, fit_forest_regressor
from orthoate.learners.forest import _GROUP_TREES

from forest_reference import reference_trees


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        for name in ("feature", "left", "right"):
            np.testing.assert_array_equal(
                np.asarray(getattr(g, name), dtype=np.int64),
                np.asarray(getattr(w, name), dtype=np.int64),
                err_msg=f"tree {t}: {name}",
            )
        for name in ("threshold", "value"):
            a = np.asarray(getattr(g, name), dtype=np.float64)
            b = np.asarray(getattr(w, name), dtype=np.float64)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"tree {t}: {name}"


# Few distinct feature values, so ties are common; targets mix tied
# values with arbitrary floats, so leaf means exercise numpy's pairwise
# summation.
_feature_value = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.5])
_target_value = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def forest_problems(draw):
    n = draw(st.integers(2, 160))
    p = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(_feature_value, min_size=n * p, max_size=n * p))).reshape(n, p)
    n_classes = draw(st.one_of(st.none(), st.integers(2, 4)))
    if n_classes is None:
        target = np.array(draw(st.lists(_target_value, min_size=n, max_size=n)))
    else:
        n = max(n, n_classes)
        X = np.resize(X, (n, p))
        labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
        # Every class must occur, or the classifier raises MissingClass.
        labels[:n_classes] = range(n_classes)
        target = np.array(labels)
    params = dict(
        n_trees=draw(st.integers(1, 8)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        min_leaf=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        bootstrap=draw(st.booleans()),
    )
    return X, target, n_classes, params


@settings(max_examples=150, deadline=None)
@given(forest_problems())
def test_trees_equal_reference(problem):
    X, target, n_classes, params = problem
    if n_classes is None:
        fit = fit_forest_regressor(X, target, **params)
        want = reference_trees(X, target, **params)
    else:
        fit = fit_forest_classifier(X, target, n_classes=n_classes, **params)
        want = reference_trees(X, target.astype(float), n_classes=n_classes, **params)
    assert_same_trees(fit.trees, want)


def test_many_classes_equal_reference():
    # From 8 classes on, numpy sums a boundary's per-class terms
    # pairwise; deep trees on continuous features meet boundaries where
    # that order decides the split.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(800, 2))
    d = np.r_[np.arange(9), rng.integers(0, 9, size=791)]
    params = dict(n_trees=2, max_depth=None, min_leaf=1, seed=0, bootstrap=True)
    fit = fit_forest_classifier(X, d, n_classes=9, **params)
    assert_same_trees(fit.trees, reference_trees(X, d.astype(float), n_classes=9, **params))


def test_forest_larger_than_one_lockstep_group():
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(60, 2)), 1)
    y = X[:, 0] + rng.normal(size=60)
    params = dict(n_trees=_GROUP_TREES + 3, max_depth=None, min_leaf=2, seed=3, bootstrap=True)
    assert_same_trees(fit_forest_regressor(X, y, **params).trees, reference_trees(X, y, **params))


@pytest.mark.parametrize("max_depth", [1, 2])
def test_large_leaves_equal_reference(max_depth):
    # Leaves of several hundred rows take numpy's recursive pairwise
    # summation path, which short leaves never reach.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(1500, 3))
    y = rng.normal(size=1500) * 1e3
    params = dict(n_trees=3, max_depth=max_depth, min_leaf=5, seed=4, bootstrap=True)
    assert_same_trees(fit_forest_regressor(X, y, **params).trees, reference_trees(X, y, **params))
