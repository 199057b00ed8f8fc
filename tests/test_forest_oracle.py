"""The package's forests reproduce the reference grower's trees bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoate import fit_forest_classifier, fit_forest_regressor
from orthoate.learners.forest import _DRAW_BLOCK, _GROUP_TREES, _STACK_HEIGHT, _WALK_PAIRS

from forest_reference import reference_predict, reference_trees


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


@st.composite
def repeated_row_problems(draw):
    # Classification on bootstrap samples of at least 64 rows, where rows
    # repeat (the grower keeps them once, weighted by their count), with
    # features of two or three values, so nearly every value is tied.
    n = draw(st.integers(64, 200))
    p = draw(st.integers(1, 3))
    values = draw(st.sampled_from([[0.0, 1.0], [-1.0, 0.0, 2.5]]))
    X = np.array(draw(st.lists(st.sampled_from(values), min_size=n * p,
                               max_size=n * p))).reshape(n, p)
    n_classes = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    labels[:n_classes] = range(n_classes)
    params = dict(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        min_leaf=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        bootstrap=True,
    )
    return X, np.array(labels), n_classes, params


@settings(max_examples=200, deadline=None)
@given(st.one_of(forest_problems(), repeated_row_problems()))
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


@pytest.mark.parametrize("p", [1, 2, 3, 10, 17])
@pytest.mark.parametrize("k", [1, _DRAW_BLOCK, 3 * _DRAW_BLOCK + 1])
def test_block_of_draws_equals_successive_shuffles(p, k):
    # The grower takes a tree's candidate features k draws at a time
    # with one call to permuted; the reference shuffles once per node.
    # Both must give the same permutations and leave the generator in
    # the same state.
    block_rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(p,)))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(p,)))
    block = block_rng.permuted(np.tile(np.arange(p), (k, 1)), axis=1)
    for row in block:
        perm = np.arange(p)
        shuffle_rng.shuffle(perm)
        np.testing.assert_array_equal(row, perm)
    assert block_rng.bit_generator.state == shuffle_rng.bit_generator.state


def _depth(tree):
    depth = np.zeros(tree.feature.size, dtype=int)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return int(depth.max())


def test_trees_that_pop_more_nodes_than_one_draw_block():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 3))
    y = X[:, 0] + rng.normal(size=300)
    params = dict(n_trees=4, max_depth=None, min_leaf=1, seed=2, bootstrap=True)
    fit = fit_forest_regressor(X, y, **params)
    assert min(np.count_nonzero(t.feature >= 0) for t in fit.trees) > 2 * _DRAW_BLOCK
    assert_same_trees(fit.trees, reference_trees(X, y, **params))


def test_tree_deeper_than_the_initial_stack():
    # Sorted rows in pairs of geometrically shrinking targets: each
    # split cuts off the first pair, which stays on the stack while the
    # rest is split again, so the stack grows by one node per level.
    n = 80
    X = np.arange(n, dtype=float).reshape(-1, 1)
    y = -(8.0 ** (n // 2 - np.arange(n) // 2)) * np.where(np.arange(n) % 2, 1.5, 1.0)
    params = dict(n_trees=2, max_depth=None, min_leaf=1, seed=0, bootstrap=False)
    fit = fit_forest_regressor(X, y, **params)
    assert _depth(fit.trees[0]) > 2 * _STACK_HEIGHT
    assert_same_trees(fit.trees, reference_trees(X, y, **params))


def test_single_feature_forest():
    # p = 1: mtry is 1 and every candidate draw is [0].
    rng = np.random.default_rng(4)
    X = np.round(rng.normal(size=(200, 1)), 2)
    d = (X[:, 0] + rng.normal(size=200) > 0).astype(int)
    params = dict(n_trees=5, max_depth=None, min_leaf=2, seed=9, bootstrap=True)
    fit = fit_forest_classifier(X, d, n_classes=2, **params)
    assert_same_trees(fit.trees, reference_trees(X, d.astype(float), n_classes=2, **params))


@pytest.fixture(scope="module")
def deep_forests():
    # Unbounded depth and single-row leaves: walks of very unequal length.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(400, 3))
    y = X[:, 0] * X[:, 1] + rng.normal(size=400)
    d = (X[:, 2] + rng.normal(size=400) > 0).astype(int) + (X[:, 0] > 0.5)
    params = dict(n_trees=7, max_depth=None, min_leaf=1, seed=5)
    return {
        "regression": fit_forest_regressor(X, y, **params),
        "classification": fit_forest_classifier(X, d, n_classes=3, **params),
    }


def assert_same_prediction(fit, X):
    got = fit.predict_proba(X) if hasattr(fit, "predict_proba") else fit.predict(X)
    want = reference_predict(fit.trees, X)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("rows", [0, 1, 400, _WALK_PAIRS // 3, _WALK_PAIRS + 7])
def test_packed_walk_equals_per_tree_walk(deep_forests, kind, rows):
    # 1 and 400 rows walk every tree in one chunk; a third of a chunk
    # walks the 7 trees in chunks of 3, 3 and 1; more rows than a chunk
    # walk one tree at a time over two row chunks.
    X = np.random.default_rng(rows).normal(size=(rows, 3)) * 1.5
    assert_same_prediction(deep_forests[kind], X)


def test_packed_walk_of_a_forest_of_several_groups():
    rng = np.random.default_rng(8)
    X = np.round(rng.normal(size=(80, 2)), 1)
    d = (X[:, 0] + rng.normal(size=80) > 0).astype(int)
    fit = fit_forest_classifier(X, d, n_classes=2, n_trees=_GROUP_TREES + 3, min_leaf=1, seed=4)
    assert_same_prediction(fit, np.round(rng.normal(size=(200, 2)), 1))
