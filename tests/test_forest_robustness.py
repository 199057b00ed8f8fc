import tracemalloc

import numpy as np
import pytest

from orthoate import NonFinite, fit_forest_classifier, fit_forest_regressor


def test_overflowing_split_scores_raise_nonfinite():
    # Squared partial sums of targets near 1e200 overflow float64.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 2))
    y = 1e200 * (1 + rng.normal(size=200))
    with pytest.raises(NonFinite):
        fit_forest_regressor(X, y, n_trees=3)


def _adjacent_doubles():
    # Two feature values one ulp apart: their midpoint rounds onto the upper one.
    low = np.nextafter(1.0, 2.0)
    X = np.repeat([low, np.nextafter(low, 2.0)], 5).reshape(-1, 1)
    return X, np.repeat([0, 1], 5)


def test_regressor_splits_between_adjacent_doubles():
    X, groups = _adjacent_doubles()
    y = groups * 3.0
    fit = fit_forest_regressor(X, y, n_trees=2, min_leaf=1, bootstrap=False)
    assert all(tree.feature.size == 3 for tree in fit.trees)
    np.testing.assert_array_equal(fit.predict(X), y)


def test_classifier_splits_between_adjacent_doubles():
    X, d = _adjacent_doubles()
    fit = fit_forest_classifier(X, d, n_classes=2, n_trees=2, min_leaf=1, bootstrap=False)
    assert all(tree.feature.size == 3 for tree in fit.trees)
    np.testing.assert_array_equal(fit.predict_proba(X), np.eye(2)[d])


def _fit_bytes(fit) -> int:
    """Bytes of the arrays the fitted trees hold, each buffer counted once."""
    buffers = {}
    for tree in fit.trees:
        for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
            base = a if a.base is None else a.base
            buffers[id(base)] = base.nbytes
    return sum(buffers.values())


def test_fit_working_memory_is_bounded():
    # Memory a fit needs besides the trees it returns.  The node-by-node
    # grower of tests/forest_reference.py needs about 0.6 MiB here, and
    # lock-step growth about 0.8 MiB; scoring the nodes of all trees at
    # once, with no cap on the rows per batch, needs about 8 MiB.
    rng = np.random.default_rng(101)
    n = 2240
    X = rng.normal(size=(n, 2))
    logits = np.column_stack([np.zeros(n), X[:, 0], -X[:, 1]])
    prob = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    d = (rng.uniform(size=(n, 1)) > prob.cumsum(axis=1)).sum(axis=1)
    tracemalloc.start()
    try:
        fit = fit_forest_classifier(X, d, n_classes=3, n_trees=30, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - _fit_bytes(fit) < 2 * 2**20
