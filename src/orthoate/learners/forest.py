"""Random forests over hand-built CART trees.

Each tree is grown on a bootstrap resample with a fresh random subset
of round(sqrt(p)) candidate features per split.  Regression trees
maximise the variance reduction of a split, classification trees the
Gini impurity reduction; leaves store the training mean or the raw
class frequencies (which can be exactly zero, no smoothing).  Trees are
seeded individually from the forest seed, so refitting with the same
seed reproduces predictions bit for bit.

Trees are grown in lock step.  Every tree keeps its own depth-first
stack (the right child is popped first) and its own random generator.
A round pops the next node of every tree of a group and scores all of
those nodes together on flat, segmented numpy arrays.  Each tree still
visits its nodes in depth-first order, so it draws the same candidate
features, and gets the same node numbers, splits and leaf values, as a
tree grown alone, node by node.  Batching by depth instead could not be
exact: the candidate features of a node are the k-th draw of its
tree's generator, and k depends on the sizes of the subtrees grown
before it.  A node that is a leaf by depth, size or purity draws
nothing, so it is recorded when its parent splits and never enters a
round.

Scores use the same floating-point operations, in the same order, as a
per-node computation:

- a node's rows are kept in ascending bootstrap position; for a
  candidate feature they are ordered by (value, position), the order a
  stable argsort of the node's values gives, by sorting one int64 key
  per row packed from (node, dense rank of the value, position);
- a regression score needs each node's prefix sums accumulated from
  zero.  A prefix sum over all nodes at once minus each node's offset
  differs in the last bits, so nodes are padded into the rows of 2-d
  blocks (nodes within a factor two of each other in size share one)
  and summed along the rows.  Class counts are integers, so one prefix
  sum over all nodes minus each node's offset is exact;
- a regression leaf is the mean of its targets in position order, which
  numpy sums pairwise; leaves of one size are averaged as the rows of a
  2-d array, which sums each row the same way;
- the first best boundary of a feature wins, and a later candidate
  feature replaces an earlier one only with a strictly larger score.

Scores or leaf means that overflow raise :class:`NonFinite`, so the
comparisons never see NaN.  A round holds about ``_BATCH_ROWS`` node
rows at most, and ``_GROUP_TREES`` trees share one row buffer, which
bounds the memory a fit needs besides its trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import MissingClass, NonFinite, ShapeMismatch
from .base import validate_features

_OVERFLOW = "forest split scores overflow: the target is too large in magnitude"

# Node rows gathered into one batch of scoring work, and trees grown
# together in lock step.
_BATCH_ROWS = 4096
_GROUP_TREES = 100


class _Tree:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    def predict(self, X: np.ndarray) -> np.ndarray:
        # Node links are stored as int32; gathers run faster on indices
        # of the platform type, so widen them once per call.
        feature, left, right = (a.astype(np.intp) for a in (self.feature, self.left, self.right))
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = feature[node]
            rows = np.nonzero(feat >= 0)[0]
            if rows.size == 0:
                break
            cur = node[rows]
            go_left = X[rows, feat[rows]] <= self.threshold[cur]
            node[rows] = np.where(go_left, left[cur], right[cur])
        return self.value[node]


def _segments(starts, sizes):
    """Flat indices of the ranges [start, start + size), in order, and each range's offset."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(starts - offsets, sizes), offsets


def _dense_ranks(X):
    """Rank of each value within its feature (ties share a rank), feature-major."""
    n, p = X.shape
    ranks = np.empty(p * n, dtype=np.int32)
    n_ranks = 1
    for f in range(p):
        _, inverse = np.unique(X[:, f], return_inverse=True)
        ranks[f * n:(f + 1) * n] = inverse
        n_ranks = max(n_ranks, int(inverse.max()) + 1)
    return ranks, n_ranks


def _prefix_sums_by_node(y, offsets, sizes):
    """Prefix sums of y restarting from zero at each node, accumulated sequentially.

    Each node is padded into a row of width 2**e, the smallest power of
    two not below its size; the rows of one width form a 2-d block whose
    cumsum runs along the rows.
    """
    width = 1 << np.frexp(sizes - 1)[1]
    by_width = np.argsort(width, kind="stable")
    row_start = np.empty_like(width)
    row_start[by_width] = np.cumsum(width[by_width]) - width[by_width]
    pad = np.zeros(int(width.sum()))
    dest = np.arange(y.size) + np.repeat(row_start - offsets, sizes)
    pad[dest] = y
    w = width[by_width]
    edges = np.r_[0, np.flatnonzero(np.diff(w)) + 1, w.size]
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        first = row_start[by_width[lo]]
        block = pad[first:first + (hi - lo) * w[lo]].reshape(hi - lo, w[lo])
        np.cumsum(block, axis=1, out=block)
    return pad[dest]


def _regression_scores(y, offsets, sizes, nl, n_rows):
    # sum_L^2/n_L + sum_R^2/n_R at every boundary; maximising it
    # maximises the variance reduction of the split.
    sl = _prefix_sums_by_node(y, offsets, sizes)
    total = np.repeat(sl[offsets + sizes - 1], sizes)
    score = sl * sl / nl + (total - sl) ** 2 / (n_rows - nl)
    # The last row of a node ends no boundary and scores 0/0; every
    # other score is finite unless the sums overflowed.
    if np.count_nonzero(np.isfinite(score)) != score.size - sizes.size:
        raise NonFinite(_OVERFLOW)
    return score


def _classification_scores(labels, offsets, sizes, nl, n_rows, n_classes):
    # sum_c count^2/n on each side; maximising it minimises the
    # weighted Gini impurity of the children.  Counts are kept
    # class-major, one row per class.
    cl = (labels == np.arange(n_classes)[:, None]).cumsum(axis=1, dtype=np.float64)
    before = np.zeros((n_classes, sizes.size))
    before[:, 1:] = cl[:, offsets[1:] - 1]
    cl -= before.repeat(sizes, axis=1)
    cr = cl[:, offsets + sizes - 1].repeat(sizes, axis=1)
    cr -= cl
    cl *= cl
    cl /= nl
    cr *= cr
    cr /= n_rows - nl
    # A boundary's per-class terms are summed as one row of n_classes
    # numbers.  numpy adds fewer than 8 numbers in order, which adding
    # the class rows in order reproduces; longer rows it sums pairwise,
    # so those are summed as rows.
    if n_classes < 8:
        return cl.sum(axis=0) + cr.sum(axis=0)
    return np.ascontiguousarray(cl.T).sum(axis=1) + np.ascontiguousarray(cr.T).sum(axis=1)


def _interleave(a, b):
    """[a0, b0, a1, b1, ...]: each split's left child, then its right child."""
    out = np.empty(2 * a.size, dtype=np.result_type(a, b))
    out[0::2] = a
    out[1::2] = b
    return out


class _Group:
    """Trees grown together in lock step, sharing one flat row buffer.

    Tree i owns entries [i*n, (i+1)*n) of ``order``, which start as its
    bootstrap sample in position order.  A node is a range of ``order``
    holding its rows in ascending bootstrap position; a split rearranges
    the range stably into its left rows, then its right rows.  Only
    nodes that need a split search are pushed on a tree's stack: a node
    that is a leaf by depth, size or purity is recorded when it is
    created, which draws nothing from the generator, exactly as popping
    it and closing it would.
    """

    def __init__(self, X, target, ranks, n_ranks, trees, seed, bootstrap,
                 max_depth, min_leaf, n_classes):
        n = X.shape[0]
        self.X, self.target, self.ranks, self.n_ranks = X, target, ranks, n_ranks
        self.max_depth, self.min_leaf, self.n_classes = max_depth, min_leaf, n_classes
        self.mtry = _default_mtry(X.shape[1])
        self.rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
                     for t in trees]
        g = len(self.rngs)
        self.order = np.empty(g * n, dtype=np.int32)
        pure = np.empty(g, dtype=bool)
        for i, rng in enumerate(self.rngs):
            rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
            self.order[i * n:(i + 1) * n] = rows
            pure[i] = target[rows].max() == target[rows].min()
        # Per tree: a stack of (start, size, depth, node id), and the
        # number of node ids handed out.
        self.stacks = [[] for _ in range(g)]
        self.n_nodes = np.ones(g, dtype=np.int32)
        self.splits = []
        self.leaves = []
        tree = np.arange(g, dtype=np.int32)
        self._place(tree, np.zeros_like(tree), tree * n, np.full_like(tree, n),
                    np.zeros_like(tree), pure)

    def grow(self):
        while True:
            live = [i for i, stack in enumerate(self.stacks) if stack]
            if not live:
                return self._trees()
            batch, rows = [], 0
            for i in live:
                node = self.stacks[i].pop()
                batch.append((i, *node))
                rows += node[1]
                if rows >= _BATCH_ROWS:
                    self._round(batch)
                    batch, rows = [], 0
            if batch:
                self._round(batch)

    def _place(self, tree, node, start, size, depth, pure):
        """Record the new nodes that are leaves; push the others on their trees' stacks."""
        leaf = pure | (size < 2 * self.min_leaf)
        if self.max_depth is not None:
            leaf |= depth >= self.max_depth
        self.leaves.append(np.stack([tree[leaf], node[leaf], start[leaf], size[leaf]]))
        pending = ~leaf
        for t, a, s, d, v in zip(tree[pending].tolist(), start[pending].tolist(),
                                 size[pending].tolist(), depth[pending].tolist(),
                                 node[pending].tolist()):
            self.stacks[t].append((a, s, d, v))

    def _round(self, batch):
        """Split one node of each tree in ``batch``, or close it as a leaf."""
        tree, start, size, depth, node = np.array(list(zip(*batch)), dtype=np.int32)
        # Each node's candidate features: rng.permutation(p)[:mtry],
        # which shuffles arange(p) in place.
        perms = np.tile(np.arange(self.X.shape[1]), (tree.size, 1))
        for t, perm in zip(tree.tolist(), perms):
            self.rngs[t].shuffle(perm)
        found, feat, thr = self._best_splits(start, size, perms[:, :self.mtry])
        closed = ~found
        self.leaves.append(np.stack([tree[closed], node[closed], start[closed], size[closed]]))
        if feat.size:
            self._split(tree[found], start[found], size[found], depth[found], node[found], feat, thr)

    def _best_splits(self, start, size, feats):
        """Whether each node has a valid boundary, and its best feature and threshold."""
        mtry = feats.shape[1]
        n_entries = self.order.size
        # Items are (node, candidate feature) pairs, node-major with the
        # features in draw order.  A node's rows sit in position order in
        # ``order``, so an entry's index there breaks ties of value.
        item_feat = feats.ravel()
        item_size = size.repeat(mtry)
        idx, offsets = _segments(start.repeat(mtry), item_size)
        rank = self.ranks[(item_feat * self.X.shape[0]).repeat(item_size) + self.order[idx]]
        item_key = (np.arange(item_size.size) * (self.n_ranks * n_entries)).repeat(item_size)
        key = rank * np.int64(n_entries)
        key += idx
        key += item_key
        key.sort()
        key -= item_key
        rank, idx = np.divmod(key, n_entries)
        rows = self.order[idx]
        y = self.target[rows]

        pos = np.arange(y.size)
        nl = pos - offsets.repeat(item_size) + 1
        n_rows = item_size.repeat(item_size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.n_classes is None:
                score = _regression_scores(y, offsets, item_size, nl, n_rows)
            else:
                score = _classification_scores(y, offsets, item_size, nl, n_rows, self.n_classes)
        # The boundary after row nl needs min_leaf rows on each side and
        # a change of feature value across it.
        valid = (nl >= self.min_leaf) & (nl <= n_rows - self.min_leaf)
        valid[:-1] &= rank[:-1] < rank[1:]
        score[~valid] = -np.inf
        best = np.maximum.reduceat(score, offsets)
        at = np.minimum.reduceat(np.where(score == best.repeat(item_size), pos, y.size), offsets)
        # The first feature in draw order with the best score wins.
        pick = np.argmax(best.reshape(-1, mtry), axis=1)
        item = np.arange(pick.size) * mtry + pick
        found = best[item] > -np.inf
        item = item[found]
        at, feat = at[item], item_feat[item]
        lo, hi = self.X[rows[at], feat], self.X[rows[at + 1], feat]
        # Between adjacent doubles the midpoint rounds onto the upper
        # value, which would send every row left; split at the lower one.
        thr = 0.5 * (lo + hi)
        return found, feat, np.where(thr < hi, thr, lo)

    def _split(self, tree, start, size, depth, node, feat, thr):
        idx, offsets = _segments(start, size)
        rows = self.order[idx]
        go_left = self.X[rows, feat.repeat(size)] <= thr.repeat(size)
        # Small sort keys: numpy sorts 16-bit integers stably by radix.
        side = (np.arange(size.size, dtype=np.int16) * 2).repeat(size) + ~go_left
        rows = rows[np.argsort(side, kind="stable")]
        self.order[idx] = rows
        n_left = np.add.reduceat(go_left, offsets, dtype=np.int32)
        left = self.n_nodes[tree]
        self.n_nodes[tree] += 2
        self.splits.append((np.stack([tree, node, feat.astype(np.int32), left]), thr))
        # The children's purity, from their targets; a child without
        # rows is a leaf by size, so its reduction is never read.
        y = self.target[rows]
        child_offsets = np.minimum(_interleave(offsets, offsets + n_left), y.size - 1)
        pure = np.maximum.reduceat(y, child_offsets) == np.minimum.reduceat(y, child_offsets)
        self._place(tree.repeat(2), _interleave(left, left + 1), _interleave(start, start + n_left),
                    _interleave(n_left, size - n_left), (depth + 1).repeat(2), pure)

    def _leaf_values(self, start, size):
        """Mean target (regression) or class frequencies of each leaf.

        Leaves of one size are reduced together as the rows of a 2-d
        array, which numpy sums exactly as it sums a single leaf.
        """
        k = self.n_classes
        values = np.empty(size.size if k is None else (size.size, k))
        by_size = np.argsort(size, kind="stable")
        edges = np.flatnonzero(np.diff(size[by_size])) + 1
        for group in np.split(by_size, edges):
            s = int(size[group[0]])
            step = max(1, _BATCH_ROWS // max(s, 1))
            for i in range(0, group.size, step):
                sel = group[i:i + step]
                y = self.target[self.order[(start[sel, None] + np.arange(s)).ravel()]]
                y = y.reshape(sel.size, s)
                if k is None:
                    values[sel] = y.mean(axis=1)
                else:
                    cell = np.arange(sel.size)[:, None] * k + y.astype(np.intp)
                    values[sel] = np.bincount(cell.ravel(), minlength=sel.size * k).reshape(-1, k) / s
        if k is None and not np.all(np.isfinite(values)):
            raise NonFinite(_OVERFLOW)
        return values

    def _trees(self):
        counts = self.n_nodes.astype(np.int64)
        base = np.cumsum(counts) - counts
        total = int(counts.sum())
        tree, node, start, size = np.concatenate(self.leaves, axis=1)
        leaf_at = base[tree] + node
        leaf_values = self._leaf_values(start, size)
        # The growth buffers are done with; release them before the
        # trees' own arrays are allocated.
        self.order = self.leaves = None
        feature = np.full(total, -1, dtype=np.int32)
        threshold = np.zeros(total)
        left = np.full(total, -1, dtype=np.int32)
        right = np.full(total, -1, dtype=np.int32)
        value = np.zeros(total if self.n_classes is None else (total, self.n_classes))
        value[leaf_at] = leaf_values
        if self.splits:
            tree, node, feat, child = np.concatenate([rec for rec, _ in self.splits], axis=1)
            at = base[tree] + node
            feature[at] = feat
            threshold[at] = np.concatenate([thr for _, thr in self.splits])
            left[at] = child
            right[at] = child + 1
        return [
            _Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b])
            for a, b in zip(base.tolist(), (base + counts).tolist())
        ]


def _grow_forest(X, target, n_trees, seed, bootstrap, max_depth, min_leaf, n_classes=None):
    n, p = X.shape
    mtry = _default_mtry(p)
    ranks, n_ranks = _dense_ranks(X)
    # A group of g trees keeps g * n row entries, indexed by int32, and
    # packs (item, rank, entry) sort keys for at most g * mtry items
    # into an int64.
    group = _GROUP_TREES
    while group > 1 and (group * n >= 2**31 or group * mtry * n_ranks * group * n >= 2**63):
        group //= 2
    trees = []
    for first in range(0, n_trees, group):
        members = range(first, min(first + group, n_trees))
        trees.extend(_Group(X, target, ranks, n_ranks, members, seed, bootstrap,
                            max_depth, min_leaf, n_classes).grow())
    return trees


def _default_mtry(p: int) -> int:
    return max(1, int(round(np.sqrt(p))))


@dataclass
class ForestRegressorFit:
    trees: list
    p: int

    def predict(self, X) -> np.ndarray:
        X = validate_features(X, p=self.p)
        if not self.trees:
            raise ShapeMismatch("forest has no trees")
        out = np.zeros(X.shape[0])
        for tree in self.trees:
            out += tree.predict(X)
        return out / len(self.trees)


@dataclass
class ForestClassifierFit:
    trees: list
    p: int
    n_classes: int

    def predict_proba(self, X) -> np.ndarray:
        X = validate_features(X, p=self.p)
        if not self.trees:
            raise ShapeMismatch("forest has no trees")
        out = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            out += tree.predict(X)
        return out / len(self.trees)


def fit_forest_regressor(
    X,
    y,
    n_trees: int = 100,
    max_depth: int | None = 10,
    min_leaf: int = 5,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestRegressorFit:
    X = validate_features(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("y must be 1-d and match X rows")
    if not np.all(np.isfinite(y)):
        raise NonFinite("y contains non-finite values")
    if n_trees < 1 or min_leaf < 1:
        raise ValueError("n_trees and min_leaf must be >= 1")
    trees = _grow_forest(X, y, n_trees, seed, bootstrap, max_depth, min_leaf)
    return ForestRegressorFit(trees=trees, p=X.shape[1])


def fit_forest_classifier(
    X,
    d,
    n_classes: int | None = None,
    n_trees: int = 100,
    max_depth: int | None = 10,
    min_leaf: int = 5,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestClassifierFit:
    X = validate_features(X)
    d = np.asarray(d)
    if d.shape != (X.shape[0],):
        raise ShapeMismatch("labels must match X rows")
    labels = d.astype(int)
    if np.any(labels != d) or labels.min() < 0:
        raise ValueError("labels must be non-negative integers")
    k = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    present = np.bincount(labels, minlength=k) > 0
    if labels.max() >= k or not present.all():
        missing = [i for i in range(k) if i >= present.size or not present[i]]
        raise MissingClass(f"classes absent from the training labels: {missing}")
    if n_trees < 1 or min_leaf < 1:
        raise ValueError("n_trees and min_leaf must be >= 1")
    trees = _grow_forest(X, labels.astype(float), n_trees, seed, bootstrap, max_depth,
                         min_leaf, n_classes=k)
    return ForestClassifierFit(trees=trees, p=X.shape[1], n_classes=k)
