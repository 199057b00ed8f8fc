"""Reference CART grower and tree walk that the forest tests compare against.

The grower is the node-by-node grower the package used before trees
were grown in lock step: one tree at a time, one node at a time, depth
first with the right child popped first, on every row of the bootstrap
sample, and a stable ``argsort`` per node and candidate feature.  The
walk is the one the package used before forests were predicted in one
packed walk: one tree at a time, each node read through its ``left``
and ``right`` links.  Both are slow and kept only as oracles: the
package's forests must reproduce their trees and predictions bit for
bit.
"""

from __future__ import annotations

import numpy as np

from orthoate.learners.forest import _Tree, _default_mtry


def _grow_tree(X, target, rng, max_depth, min_leaf, mtry, leaf_value, is_pure, split_score):
    n, p = X.shape
    feature, threshold, left, right, values = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        values.append(None)
        return len(feature) - 1

    root = new_node()
    stack = [(np.arange(n), 0, root)]
    while stack:
        idx, depth, slot = stack.pop()
        node_target = target[idx]
        if (
            (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or is_pure(node_target)
        ):
            values[slot] = leaf_value(node_target)
            continue
        best = None
        for f in rng.permutation(p)[:mtry]:
            xv = X[idx, f]
            order = np.argsort(xv, kind="stable")
            xs = xv[order]
            scores = split_score(node_target[order])
            # A boundary i splits [0, i) from [i, n); both sides must
            # hold min_leaf rows and the feature value must change.
            lo, hi = min_leaf, idx.size - min_leaf
            if lo >= hi + 1:
                continue
            cand = np.arange(lo, hi + 1)
            cand = cand[xs[cand - 1] < xs[cand]]
            if cand.size == 0:
                continue
            s = scores[cand - 1]
            j = int(np.argmax(s))
            if best is None or s[j] > best[0]:
                i = int(cand[j])
                thr = 0.5 * (xs[i - 1] + xs[i])
                best = (float(s[j]), f, thr if thr < xs[i] else xs[i - 1])
        if best is None:
            values[slot] = leaf_value(node_target)
            continue
        _, f, thr = best
        go_left = X[idx, f] <= thr
        ls, rs = new_node(), new_node()
        feature[slot] = int(f)
        threshold[slot] = thr
        left[slot] = ls
        right[slot] = rs
        stack.append((idx[go_left], depth + 1, ls))
        stack.append((idx[~go_left], depth + 1, rs))

    # Internal slots never feed predictions; fill them with zeros of the
    # leaf-value shape so the array is rectangular.
    proto = np.zeros_like(np.asarray(next(v for v in values if v is not None), dtype=float))
    value_arr = np.asarray([v if v is not None else proto for v in values], dtype=float)
    return _Tree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        value_arr,
    )


def _regression_kit():
    def leaf_value(y):
        return float(y.mean())

    def is_pure(y):
        return y.max() == y.min()

    def split_score(y_sorted):
        # sum_L^2/n_L + sum_R^2/n_R at every boundary; maximising it
        # maximises the variance reduction of the split.
        n = y_sorted.size
        csum = np.cumsum(y_sorted)
        total = csum[-1]
        nl = np.arange(1, n)
        sl = csum[:-1]
        return sl * sl / nl + (total - sl) ** 2 / (n - nl)

    return leaf_value, is_pure, split_score


def _classification_kit(n_classes):
    def leaf_value(y):
        return np.bincount(y.astype(int), minlength=n_classes) / y.size

    def is_pure(y):
        return y.max() == y.min()

    def split_score(y_sorted):
        # sum_c count^2/n on each side; maximising it minimises the
        # weighted Gini impurity of the children.
        n = y_sorted.size
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y_sorted.astype(int)] = 1.0
        ccum = np.cumsum(onehot, axis=0)
        total = ccum[-1]
        nl = np.arange(1, n)[:, None]
        cl = ccum[:-1]
        cr = total - cl
        return (cl * cl / nl).sum(axis=1) + (cr * cr / (n - nl)).sum(axis=1)

    return leaf_value, is_pure, split_score


def _bootstrap_trees(X, target, n_trees, seed, grow, bootstrap):
    trees = []
    n = X.shape[0]
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        bidx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(grow(X[bidx], target[bidx], rng))
    return trees


def reference_trees(X, target, n_classes=None, n_trees=100, max_depth=10, min_leaf=5,
                    seed=0, bootstrap=True):
    """Trees of a regression forest (``n_classes`` None) or a classification forest.

    ``X`` and ``target`` must already be validated float arrays, as the
    package's fit functions pass them to the grower; class labels are
    given as floats.
    """
    kit = _regression_kit() if n_classes is None else _classification_kit(n_classes)
    leaf_value, is_pure, split_score = kit
    mtry = _default_mtry(X.shape[1])

    def grow(Xb, yb, rng):
        return _grow_tree(Xb, yb, rng, max_depth, min_leaf, mtry, leaf_value, is_pure, split_score)

    return _bootstrap_trees(X, target, n_trees, seed, grow, bootstrap)


def tree_predict(tree, X):
    """Leaf values of one tree for every row of ``X``."""
    node = np.zeros(X.shape[0], dtype=np.intp)
    while True:
        feat = tree.feature[node]
        rows = np.nonzero(feat >= 0)[0]
        if rows.size == 0:
            break
        cur = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def reference_predict(trees, X):
    """The forest's mean prediction: each tree's leaf values added in tree order."""
    out = np.zeros((X.shape[0], *trees[0].value.shape[1:]))
    for tree in trees:
        out += tree_predict(tree, X)
    return out / len(trees)
