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
those nodes together on flat, segmented numpy arrays, so a round holds
at most one node per tree.  Each tree still visits its nodes in
depth-first order, so it draws the same candidate features, and gets
the same node numbers, splits and leaf values, as a tree grown alone,
node by node.  Batching by depth instead could not be exact: the
candidate features of a node are the k-th draw of its tree's
generator, and k depends on the sizes of the subtrees grown before it.
A node that is a leaf by depth, size or purity draws nothing, so it is
recorded when its parent splits and never enters a round.

After its bootstrap sample a tree's generator is used only for those
draws, one ``rng.permutation(p)`` per popped node, so the sequence of
draws does not depend on the data.  It is taken ``_DRAW_BLOCK`` draws
at a time with one ``rng.permuted`` call, which gives the same
permutations as successive shuffles, and only the first ``mtry``
entries of each are kept.  The stacks of a group are one int32 array
of shape (trees, height, 6), each entry a node record (tree, node id,
first entry, entries, size, depth), and a height per tree; the array
doubles in height when a tree outgrows it.

A classification tree keeps each distinct row of its bootstrap sample
once, as one entry with the row's multiplicity as an int32 weight; a
bootstrap sample of n rows holds about 1 - (1 - 1/n)**n, or 63%, of
them.  A node's size (the rows the leaf-by-size rule and the scores
count) is then the sum of its entries' weights, and the left size at a
boundary is the sum of its weighted class counts.  This is exact:
class counts are integers, so weighted counts are the same floats as
counts of repeated rows, and a boundary between two copies of one row,
or between any two rows of equal value, is never valid, so the order
of rows inside a tie changes no valid boundary's score.  Regression
keeps every drawn row as its own entry, in bootstrap position order:
its prefix sums and leaf means are sequential float sums whose bits
depend on the number and order of the additions.

Scores use the same floating-point operations, in the same order, as a
per-node computation:

- a node's entries are kept in ascending bootstrap position (distinct
  rows of a classification tree in ascending row order); for a
  candidate feature they are ordered by (value, position), the order a
  stable argsort of the node's values gives, by sorting one int64 key
  per entry packed as bit fields (node, dense rank of the value,
  position);
- a regression score needs each node's prefix sums accumulated from
  zero.  A prefix sum over all nodes at once minus each node's offset
  differs in the last bits, so nodes are padded into the rows of 2-d
  blocks (nodes within a factor two of each other in size share one)
  and summed along the rows.  Class counts are integers, so one prefix
  sum over all nodes, restarted at each node by taking away the total of
  the node before it, is exact;
- a regression leaf is the mean of its targets in position order, which
  numpy sums pairwise; leaves of one size are averaged as the rows of a
  2-d array, which sums each row the same way;
- the first best boundary of a feature wins, and a later candidate
  feature replaces an earlier one only with a strictly larger score.

Scores or leaf means that overflow raise :class:`NonFinite`, so the
comparisons never see NaN.  The memory a fit needs besides its trees is
bounded by three constants: a round takes trees in order until their
nodes hold ``_BATCH_ROWS`` entries, so per candidate feature its
scoring arrays hold fewer entries than that plus those of its last
node; ``_GROUP_TREES`` trees share one entry buffer; and each tree of a
group keeps ``_DRAW_BLOCK`` draws of ``mtry`` features.  How trees are
cut into rounds does not change any tree.

The trees of a group are stored end to end in one array per field
(``_Pack``), and each tree is a view into them.  Prediction walks the
(tree, row) pairs of several trees at once through those arrays, at
most ``_WALK_PAIRS`` pairs at a time, so its memory does not grow with
the query.  It then adds each tree's leaf values into the output one
tree after another, so every output element is the same sequential
float sum, tree 0 first, as adding one tree's predictions at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidArgument, NonFinite, ShapeMismatch
from ..seeds import stream
from .base import class_count, integer_labels, validate_features

_OVERFLOW = "forest split scores overflow: the target is too large in magnitude"

# Node entries gathered into one batch of scoring work, and trees grown
# together in lock step.
_BATCH_ROWS = 8192
_GROUP_TREES = 100
# Candidate-feature draws taken from a tree's generator at once, and the
# initial height of a tree's node stack.
_DRAW_BLOCK = 64
_STACK_HEIGHT = 16
# (tree, row) pairs walked together when predicting.
_WALK_PAIRS = 16384


class _Tree:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value


class _Pack:
    """The trees of one lock-step group, stored end to end.

    Tree t holds nodes ``base[t]`` to ``base[t + 1] - 1`` of each array;
    its ``left`` and ``right`` links count from its own first node, and a
    split's right child is always the node after its left child.
    """

    __slots__ = ("feature", "threshold", "left", "value", "base", "trees")

    def __init__(self, feature, threshold, left, right, value, base):
        self.feature, self.threshold, self.left, self.value = feature, threshold, left, value
        self.base = base
        bounds = base.tolist()
        self.trees = [
            _Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

    def leaves(self, flat, at, t0, t1):
        """Leaf node of each (tree, row) pair of trees t0 to t1 - 1, tree-major.

        ``flat`` is the C-ordered query matrix, raveled, and ``at`` the
        offset of each queried row's first value in it.  Pairs that reach
        a leaf leave the walk.
        """
        m = at.size
        off = np.repeat(self.base[t0:t1], m)
        node = off.copy()
        at = np.tile(at, t1 - t0)
        leaf = np.empty_like(node)
        pending = np.arange(node.size)
        while True:
            feat = self.feature[node]
            done = feat < 0
            if done.any():
                leaf[pending[done]] = node[done]
                keep = np.flatnonzero(~done)
                if not keep.size:
                    return leaf
                # One at a time, so each old array is freed before the next copy.
                pending = pending[keep]
                node = node[keep]
                off = off[keep]
                at = at[keep]
                feat = feat[keep]
            # Values at or below the threshold go left; the right child
            # is the node after the left one.
            node = off + self.left[node] + (flat[at + feat] > self.threshold[node])


def _predict_sum(packs, X, out):
    """Add each tree's prediction for every row of X into ``out``, one tree after another."""
    m, p = X.shape
    flat = np.ascontiguousarray(X).ravel()
    step = max(1, min(m, _WALK_PAIRS))
    for r0 in range(0, m, step):
        at = np.arange(r0, min(r0 + step, m)) * p
        per = _WALK_PAIRS // at.size
        for pack in packs:
            n_trees = len(pack.trees)
            for t0 in range(0, n_trees, per):
                t1 = min(t0 + per, n_trees)
                leaf = pack.leaves(flat, at, t0, t1)
                for lo in range(0, leaf.size, at.size):
                    out[r0:r0 + at.size] += pack.value[leaf[lo:lo + at.size]]


def _dense_ranks(X):
    """Rank of each value within its feature (ties share a rank), feature-major."""
    n, p = X.shape
    ranks = np.empty(p * n, dtype=np.int64)
    n_ranks = 1
    for f in range(p):
        _, inverse = np.unique(X[:, f], return_inverse=True)
        ranks[f * n:(f + 1) * n] = inverse
        n_ranks = max(n_ranks, int(inverse.max()) + 1)
    return ranks, n_ranks


def _bits(count):
    """Bits that hold every value in [0, count)."""
    return max(1, int(count - 1).bit_length())


def _prefix_sums_by_node(y, offsets, sizes, pos):
    """Prefix sums of y restarting from zero at each node, accumulated sequentially.

    Each node is padded into a row of width 2**e, the smallest power of
    two not below its size; the rows of one width form a 2-d block whose
    cumsum runs along the rows.  ``pos`` is ``arange(y.size)``.
    """
    width = 1 << np.frexp(sizes - 1)[1]
    by_width = np.argsort(width, kind="stable")
    w = width[by_width]
    first = np.cumsum(w) - w
    row_start = np.empty_like(width)
    row_start[by_width] = first
    pad = np.zeros(int(first[-1] + w[-1]))
    dest = pos + (row_start - offsets).repeat(sizes)
    pad[dest] = y
    edges = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), w.size]
    w, first = w.tolist(), first.tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = pad[first[lo]:first[lo] + (hi - lo) * w[lo]].reshape(hi - lo, w[lo])
        np.cumsum(block, axis=1, out=block)
    return pad[dest]


def _regression_scores(y, offsets, sizes, nl, n_rows, pos):
    # sum_L^2/n_L + sum_R^2/n_R at every boundary; maximising it
    # maximises the variance reduction of the split.
    sl = _prefix_sums_by_node(y, offsets, sizes, pos)
    total = sl[offsets + sizes - 1].repeat(sizes)
    score = sl * sl / nl + (total - sl) ** 2 / (n_rows - nl)
    # The last row of a node ends no boundary and scores 0/0; every
    # other score is finite unless the sums overflowed.
    if np.count_nonzero(np.isfinite(score)) != score.size - sizes.size:
        raise NonFinite(_OVERFLOW)
    return score


def _classification_scores(labels, weight, offsets, counts, n_rows, n_classes):
    """Score of the boundary after every entry, and the rows left of it."""
    # sum_c count^2/n on each side; maximising it minimises the
    # weighted Gini impurity of the children.  Counts are kept
    # class-major, one row per class, and are integers.
    cl = np.empty((n_classes, labels.size))
    np.multiply(labels == np.arange(n_classes)[:, None], weight, out=cl)
    total = np.add.reduceat(cl, offsets, axis=1)
    # Each node's running counts restart from zero: its first entry also
    # takes away the counts of the node before it.
    cl[:, offsets[1:]] -= total[:, :-1]
    np.cumsum(cl, axis=1, out=cl)
    nl = cl.sum(axis=0)
    cr = total.repeat(counts, axis=1)
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
        return cl.sum(axis=0) + cr.sum(axis=0), nl
    return np.ascontiguousarray(cl.T).sum(axis=1) + np.ascontiguousarray(cr.T).sum(axis=1), nl


# The rows of a node record: its tree, node id, first entry in ``order``,
# entries, rows (entries weighted by multiplicity) and depth.
_TREE, _NODE, _START, _COUNT, _SIZE, _DEPTH = range(6)


class _Group:
    """Trees grown together in lock step, sharing one flat entry buffer.

    Tree i owns entries from i*n of ``order``, which start as its
    bootstrap sample in position order (a classification tree's distinct
    rows in row order, with their multiplicities in ``weight``).  A node
    is a range of ``order`` holding its entries in that order; a split
    rearranges the range stably into its left entries, then its right
    entries.  Nodes travel as int32 records, one column per node (see
    ``_TREE``).  Only nodes that need a split search are pushed on a
    tree's stack: a node that is a leaf by depth, size or purity is
    recorded when it is created, which draws nothing from the generator,
    exactly as popping it and closing it would.
    """

    def __init__(self, X, target, rank_keys, entry_bits, item_shift, trees, seed, bootstrap,
                 max_depth, min_leaf, n_classes):
        n = X.shape[0]
        self.X, self.target = X, target
        # Sort keys are (item, rank, entry) bit fields of one int64; the
        # rank field of every row and feature is stored ready shifted.
        self.rank_keys, self.entry_bits, self.item_shift = rank_keys, entry_bits, item_shift
        self.max_depth, self.min_leaf, self.n_classes = max_depth, min_leaf, n_classes
        self.mtry = _default_mtry(X.shape[1])
        self.rngs = [stream(seed, t) for t in trees]
        g = len(self.rngs)
        self.order = np.empty(g * n, dtype=np.int32)
        self.weight = None if n_classes is None else np.empty(g * n, dtype=np.int32)
        roots = np.zeros((6, g), dtype=np.int32)
        roots[_TREE] = np.arange(g)
        roots[_START] = roots[_TREE] * n
        roots[_COUNT] = roots[_SIZE] = n
        pure = np.empty(g, dtype=bool)
        for i, rng in enumerate(self.rngs):
            rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
            if self.weight is not None:
                times = np.bincount(rows, minlength=n)
                rows = np.flatnonzero(times)
                roots[_COUNT, i] = rows.size
                self.weight[i * n:i * n + rows.size] = times[rows]
            self.order[i * n:i * n + rows.size] = rows
            pure[i] = target[rows].max() == target[rows].min()
        # Per tree: a stack of node records and its height, and the number
        # of node ids handed out.
        self.stack = np.empty((g, _STACK_HEIGHT, 6), dtype=np.int32)
        self.height = np.zeros(g, dtype=np.intp)
        self.n_nodes = np.ones(g, dtype=np.int32)
        # Per tree: the first mtry candidates of its next _DRAW_BLOCK
        # draws, and how many of them are used.
        self.draws = np.empty((g, _DRAW_BLOCK, self.mtry), dtype=np.intp)
        self.used = np.full(g, _DRAW_BLOCK)
        self.splits = []
        self.leaves = []
        self._place(roots, pure)

    def grow(self):
        while True:
            live = np.flatnonzero(self.height)
            if not live.size:
                return self._pack()
            self.height[live] -= 1
            nodes = self.stack[live, self.height[live]].T
            # A round takes the next trees in order up to and including
            # the one whose node brings its entries to _BATCH_ROWS.
            held = np.cumsum(nodes[_COUNT])
            lo = 0
            while lo < live.size:
                hi = int(np.searchsorted(held, (held[lo - 1] if lo else 0) + _BATCH_ROWS)) + 1
                self._round(nodes[:, lo:hi])
                lo = hi

    def _place(self, nodes, pure):
        """Record the new nodes that are leaves; push the others on their trees' stacks."""
        leaf = pure | (nodes[_SIZE] < 2 * self.min_leaf)
        if self.max_depth is not None:
            leaf |= nodes[_DEPTH] >= self.max_depth
        self.leaves.append(nodes[:_SIZE, leaf])
        nodes = nodes[:, ~leaf]
        tree = nodes[_TREE]
        # A tree gets at most two new nodes at once, its left child then
        # its right child, which lands on top and is popped first.
        slot = self.height[tree]
        slot[1:] += tree[1:] == tree[:-1]
        if slot.size and slot.max() >= self.stack.shape[1]:
            self.stack = np.concatenate([self.stack, np.empty_like(self.stack)], axis=1)
        self.stack[tree, slot] = nodes.T
        self.height += np.bincount(tree, minlength=self.height.size)

    def _round(self, nodes):
        """Split one node of each tree in the round, or close it as a leaf."""
        # Each node's candidate features: rng.permutation(p)[:mtry], the
        # next draw of its tree's generator.  A tree's draws do not
        # depend on its data, so they are taken _DRAW_BLOCK at a time.
        tree = nodes[_TREE]
        spent = tree[self.used[tree] == _DRAW_BLOCK]
        for t in spent.tolist():
            block = np.tile(np.arange(self.X.shape[1]), (_DRAW_BLOCK, 1))
            self.draws[t] = self.rngs[t].permuted(block, axis=1)[:, :self.mtry]
        self.used[spent] = 0
        feats = self.draws[tree, self.used[tree]]
        self.used[tree] += 1
        found, feat, thr = self._best_splits(nodes[_START], nodes[_COUNT], nodes[_SIZE], feats)
        self.leaves.append(nodes[:_SIZE, ~found])
        if feat.size:
            self._split(nodes[:, found], feat, thr)

    def _best_splits(self, start, count, size, feats):
        """Whether each node has a valid boundary, and its best feature and threshold."""
        mtry = feats.shape[1]
        # Items are (node, candidate feature) pairs, node-major with the
        # features in draw order.  A node's entries sit in position order
        # in ``order``, so an entry's index there breaks ties of value.
        item_feat = feats.ravel()
        item_count = count.repeat(mtry)
        offsets = np.cumsum(item_count) - item_count
        pos = np.arange(int(offsets[-1] + item_count[-1]))
        within = pos - offsets.repeat(item_count)
        idx = within + start.repeat(mtry).repeat(item_count)
        key = self.rank_keys[(item_feat * self.X.shape[0]).repeat(item_count) + self.order[idx]]
        key |= idx
        key |= (np.arange(item_count.size, dtype=np.int64) << self.item_shift).repeat(item_count)
        # Sorting keeps each item's entries in its own range, ordered by
        # (value, position).
        key.sort()
        idx = key & ((1 << self.entry_bits) - 1)
        # What is left, (item, rank), changes where the feature value does.
        key >>= self.entry_bits
        rows = self.order[idx]
        y = self.target[rows]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Left sizes are whole numbers, held as floats for the scores.
            if self.weight is None:
                nl = within + 1.0
                n_rows = item_count.repeat(item_count)
                score = _regression_scores(y, offsets, item_count, nl, n_rows, pos)
            else:
                n_rows = size.repeat(mtry).repeat(item_count)
                score, nl = _classification_scores(y, self.weight[idx], offsets, item_count,
                                                   n_rows, self.n_classes)
        # The boundary after entry nl needs min_leaf rows on each side and
        # a change of feature value across it.
        invalid = (nl < self.min_leaf) | (nl > n_rows - self.min_leaf)
        invalid[:-1] |= key[:-1] == key[1:]
        score[invalid] = -np.inf
        best = np.maximum.reduceat(score, offsets)
        # The first boundary with its item's best score.
        hits = np.flatnonzero(score == best.repeat(item_count))
        at = hits[np.searchsorted(hits, offsets)]
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

    def _split(self, nodes, feat, thr):
        count = nodes[_COUNT]
        offsets = np.cumsum(count) - count
        idx = np.arange(int(offsets[-1] + count[-1])) + (nodes[_START] - offsets).repeat(count)
        rows = self.order[idx]
        at = rows * np.intp(self.X.shape[1])
        at += feat.repeat(count)
        go_left = self.X.take(at) <= thr.repeat(count)
        # Small sort keys: numpy sorts 16-bit integers stably by radix.
        side = (np.arange(count.size, dtype=np.int16) * 2).repeat(count) + ~go_left
        moved = np.argsort(side, kind="stable")
        rows = rows[moved]
        self.order[idx] = rows
        n_left = np.add.reduceat(go_left, offsets, dtype=np.int32)
        size_left = n_left
        if self.weight is not None:
            weight = self.weight[idx]
            size_left = np.add.reduceat(weight * go_left, offsets, dtype=np.int32)
            self.weight[idx] = weight[moved]
        tree = nodes[_TREE]
        left = self.n_nodes[tree]
        self.n_nodes[tree] += 2
        self.splits.append((np.array([tree, nodes[_NODE], feat, left], dtype=np.int32), thr))
        # Each split's left child, then its right child.
        kids = nodes.repeat(2, axis=1)
        kids[_NODE, 0::2] = left
        kids[_NODE, 1::2] = left + 1
        kids[_START, 1::2] += n_left
        kids[_COUNT, 0::2] = n_left
        kids[_COUNT, 1::2] -= n_left
        kids[_SIZE, 0::2] = size_left
        kids[_SIZE, 1::2] -= size_left
        kids[_DEPTH] += 1
        # The children's purity, from their targets; a child without
        # rows is a leaf by size, so its reduction is never read.
        y = self.target[rows]
        child_offsets = offsets.repeat(2)
        child_offsets[1::2] += n_left
        np.minimum(child_offsets, y.size - 1, out=child_offsets)
        pure = np.maximum.reduceat(y, child_offsets) == np.minimum.reduceat(y, child_offsets)
        self._place(kids, pure)

    def _leaf_values(self, start, count):
        """Mean target (regression) or class frequencies of each leaf.

        Leaves of one entry count are reduced together as the rows of a
        2-d array, which numpy sums exactly as it sums a single leaf.
        Class counts are sums of integer weights, so they and their
        total, the leaf's size, are exact.
        """
        k = self.n_classes
        values = np.empty(count.size if k is None else (count.size, k))
        by_count = np.argsort(count, kind="stable")
        edges = np.flatnonzero(np.diff(count[by_count])) + 1
        for group in np.split(by_count, edges):
            s = int(count[group[0]])
            step = max(1, _BATCH_ROWS // max(s, 1))
            for i in range(0, group.size, step):
                sel = group[i:i + step]
                entries = (start[sel, None] + np.arange(s)).ravel()
                y = self.target[self.order[entries]].reshape(sel.size, s)
                if k is None:
                    values[sel] = y.mean(axis=1)
                else:
                    cell = np.arange(sel.size)[:, None] * k + y.astype(np.intp)
                    counts = np.bincount(cell.ravel(), weights=self.weight[entries],
                                         minlength=sel.size * k).reshape(-1, k)
                    values[sel] = counts / counts.sum(axis=1, keepdims=True)
        if k is None and not np.all(np.isfinite(values)):
            raise NonFinite(_OVERFLOW)
        return values

    def _pack(self):
        counts = self.n_nodes.astype(np.int64)
        base = np.r_[0, np.cumsum(counts)]
        total = int(base[-1])
        tree, node, start, count = np.concatenate(self.leaves, axis=1)
        leaf_at = base[tree] + node
        leaf_values = self._leaf_values(start, count)
        # The growth buffers are done with; release them before the
        # trees' own arrays are allocated.
        self.order = self.weight = self.leaves = None
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
        return _Pack(feature, threshold, left, right, value, base)


def _grow_forest(X, target, n_trees, seed, bootstrap, max_depth, min_leaf, n_classes=None):
    n, p = X.shape
    X = np.ascontiguousarray(X)
    mtry = _default_mtry(p)
    ranks, n_ranks = _dense_ranks(X)
    # A group of g trees keeps g * n entries, indexed by int32, and packs
    # (item, rank, entry) sort keys for at most g * mtry items into the
    # bit fields of an int64.
    group = _GROUP_TREES
    while group > 1 and (group * n >= 2**31
                         or _bits(group * mtry) + _bits(n_ranks) + _bits(group * n) > 63):
        group //= 2
    entry_bits = _bits(group * n)
    ranks <<= entry_bits
    return [
        _Group(X, target, ranks, entry_bits, entry_bits + _bits(n_ranks),
               range(first, min(first + group, n_trees)), seed, bootstrap, max_depth, min_leaf,
               n_classes).grow()
        for first in range(0, n_trees, group)
    ]


def _default_mtry(p: int) -> int:
    return max(1, int(round(np.sqrt(p))))


@dataclass
class _ForestFit:
    packs: list
    p: int

    @property
    def trees(self) -> list:
        return [tree for pack in self.packs for tree in pack.trees]

    def _mean(self, X, shape) -> np.ndarray:
        X = validate_features(X, p=self.p)
        if not self.packs:
            raise ShapeMismatch("forest has no trees")
        out = np.zeros((X.shape[0], *shape))
        _predict_sum(self.packs, X, out)
        out /= sum(len(pack.trees) for pack in self.packs)
        return out


@dataclass
class ForestRegressorFit(_ForestFit):
    def predict(self, X) -> np.ndarray:
        return self._mean(X, ())


@dataclass
class ForestClassifierFit(_ForestFit):
    n_classes: int

    def predict_proba(self, X) -> np.ndarray:
        return self._mean(X, (self.n_classes,))


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
        raise InvalidArgument("n_trees and min_leaf must be >= 1")
    packs = _grow_forest(X, y, n_trees, seed, bootstrap, max_depth, min_leaf)
    return ForestRegressorFit(packs=packs, p=X.shape[1])


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
    labels = integer_labels(d)
    k = class_count(labels, n_classes)
    if n_trees < 1 or min_leaf < 1:
        raise InvalidArgument("n_trees and min_leaf must be >= 1")
    packs = _grow_forest(X, labels.astype(float), n_trees, seed, bootstrap, max_depth,
                         min_leaf, n_classes=k)
    return ForestClassifierFit(packs=packs, p=X.shape[1], n_classes=k)
