"""Bagged binary decision trees with a fully specified deterministic RNG.

Every stochastic choice (bootstrap resampling, fold shuffling) flows
through :class:`Xorshift64Star`, so training and cross-validation are
bit-reproducible across runs and platforms. Split selection compares
exact integer scores, never floats, so ties are unambiguous.

Trees grow level by level over presorted columns, as in SLIQ's
breadth-first growth (Mehta, Agrawal & Rissanen, EDBT 1996) and XGBoost's
exact greedy search (Chen & Guestrin, KDD 2016). Every feature is sorted
once per fit. Each open node holds one row of sample indices per feature,
sorted by that feature, and the open nodes of a group of trees at one depth
sit side by side in one index matrix. One pass scores every boundary of
every feature of every such node, picks each node's best split by segmented
first maxima, and partitions the matrix into the children's rows, which
stay sorted, so no node sorts again. A node's split depends only on the
multiset of samples at it, not on their order, because every split falls
between distinct values. The trees of a fit grow in groups of a bounded
number of positions, which bounds the pass's memory; nodes are renumbered
into preorder at the end, so the model file is the one a recursive grower
writes.

The bootstrap draws come from one batch call: xorshift64* is linear over
GF(2), so the generator jumps ahead to the start of each lane of 256 draws
and then steps every lane at once in numpy.

Prediction routes many rows through all trees at once: every node of every
tree is in one flat table, built when the forest's trees are set, and each
pass moves every row one level down in every tree. A single row, as
``analyze`` classifies, takes the same path. Trees are frozen, so the table
cannot go stale."""

import struct
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .base import ParamsMixin, map_tasks
from .config import DEFAULTS, check
from .errors import (
    EmptyTrainingSetError,
    FoldTooSmallError,
    InputError,
    LengthMismatchError,
    ModelFormatError,
    ModelVersionError,
    SingleClassError,
)
from .features import FEATURE_NAMES

MODEL_MAGIC = b"LCTM"
MODEL_VERSION = 1
# The LCTM records, in file order: the header (magic, version, n_trees, seed, min_leaf, max_depth,
# n_samples, names length), the feature names, then per tree its node count and each node.
_HEADER = struct.Struct("<4sIIqIIIH")
_COUNT = struct.Struct("<I")
_KIND = struct.Struct("<b")      # 0 split, 1 leaf
_SPLIT = struct.Struct("<Bdii")  # feature, threshold, left, right
_LEAF = struct.Struct("<II")     # the class counts n0, n1
# A model file names the features its rows hold, and they must be the pipeline's.
_MODEL_NAMES = ",".join(FEATURE_NAMES).encode("ascii")

CV_FOLDS = 15  # cross_validate's default k and the CLI's --cv-folds

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* generator: shifts (12, 25, 27), multiplier 2685821657736338717.

    The zero state is remapped to a fixed odd constant so every seed is
    usable. ``below(n)`` reduces by modulo; the tiny bias is irrelevant
    here and keeps the algorithm trivially portable.
    """

    _MULT = 2685821657736338717
    _ZERO_STATE = 0x9E3779B97F4A7C15
    _LANE = 256  # steps per lane of a jump-ahead batch of draws
    _jump_bytes = None  # the state after _LANE steps, as a GF(2)-linear map: see _jump

    def __init__(self, seed):
        self.state = (int(seed) & _MASK64) or self._ZERO_STATE

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * self._MULT) & _MASK64

    def below(self, n):
        return self.next_u64() % n

    @staticmethod
    def _lanes(x, steps):
        """Step every state of the uint64 array ``x`` ``steps`` times, in
        place; return the states passed, one row per element of ``x``."""
        out = np.empty((len(x), steps), dtype=np.uint64)
        for step in range(steps):
            x ^= x >> np.uint64(12)
            x ^= x << np.uint64(25)
            x ^= x >> np.uint64(27)
            out[:, step] = x
        return out

    @classmethod
    def _jump(cls, x):
        """The state ``_LANE`` steps after state ``x``.

        Each step XORs shifted copies of the state into it, so it is linear
        over GF(2), and so is any number of steps: the state after _LANE
        steps is the XOR of the images of the bits set in ``x``. The images
        are tabulated per byte of ``x``: every combination of a byte's bits.
        """
        if cls._jump_bytes is None:
            units = np.uint64(1) << np.arange(64, dtype=np.uint64)
            images = cls._lanes(units, cls._LANE)[:, -1].tolist()
            tables = []
            for byte in range(8):
                table = [0] * 256
                for v in range(1, 256):
                    low = v & -v
                    table[v] = table[v ^ low] ^ images[8 * byte + low.bit_length() - 1]
                tables.append(table)
            cls._jump_bytes = tables
        out = 0
        for table in cls._jump_bytes:
            out ^= table[x & 0xFF]
            x >>= 8
        return out

    def below_many(self, n, count):
        """``count`` successive ``below(n)`` draws as one int64 array.

        The draws, and the state left behind, are those of ``count`` calls
        to ``below(n)``. The run is cut into lanes of ``_LANE`` steps, the
        last one kept only up to ``count``: the lane starts are found by
        jumping ahead, then every lane steps at once. Up to ``_LANE`` draws
        are one lane and need no jump.
        """
        starts = [self.state]
        for _ in range(-(-count // self._LANE) - 1):
            starts.append(self._jump(starts[-1]))
        states = self._lanes(np.array(starts, dtype=np.uint64), self._LANE).ravel()[:count]
        if count:
            self.state = int(states[-1])
        # uint64 products wrap, which is the generator's multiply mod 2**64.
        states *= np.uint64(self._MULT)
        states %= np.uint64(n)
        return states.view(np.int64)

    def uniform(self):
        return self.next_u64() / 2.0**64

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass(frozen=True)
class DecisionTree:
    """Flattened binary tree: node i is internal if feature[i] >= 0.

    Internal nodes route ``x[feature] <= threshold`` left; leaves carry
    the class counts of the training samples that reached them, and an
    internal node's counts are None. The columns are stored as tuples and
    the tree is frozen, so a tree is never changed once built.
    """

    feature: tuple
    threshold: tuple
    left: tuple
    right: tuple
    counts: tuple

    def __post_init__(self):
        for column in fields(self):
            object.__setattr__(self, column.name, tuple(getattr(self, column.name)))

    def leaf_vote(self, node):
        n0, n1 = self.counts[node]
        return 1 if n1 > n0 else 0  # tie votes 0

    def predict_one(self, x):
        """The vote for one feature vector, walking the tree node by node."""
        node = 0
        while self.feature[node] >= 0:
            node = self.left[node] if x[self.feature[node]] <= self.threshold[node] else self.right[node]
        return self.leaf_vote(node)

    def predict(self, X):
        return _Routes((self,)).votes(X)

    @property
    def n_nodes(self):
        return len(self.feature)


class _Routes:
    """The nodes of every tree of a forest in flat arrays, for routing many
    rows through all trees at once.

    Node i of the table sits at 2i and 2i + 1 of ``child``: the index of
    its right child, then of its left, both doubled, so ``child[j + (x <=
    threshold)]`` takes a row one level down. A leaf is its own child on
    both sides, so a row that reaches a leaf stays there, and ``depth``
    passes bring every row to its leaf in every tree.
    """

    def __init__(self, trees):
        sizes = [tree.n_nodes for tree in trees]
        total = sum(sizes)

        def column(name, dtype):
            return np.fromiter(chain.from_iterable(getattr(t, name) for t in trees), dtype, total)

        feature = column("feature", np.intp)
        leaf = feature < 0
        node = np.arange(total)
        shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
        left = np.where(leaf, node, column("left", np.intp) + shift)
        right = np.where(leaf, node, column("right", np.intp) + shift)
        self.feature = np.repeat(np.where(leaf, 0, feature), 2)
        self.threshold = np.repeat(column("threshold", np.float64), 2)
        self.child = 2 * np.column_stack([right, left]).ravel()
        counts = chain.from_iterable(t.counts for t in trees)
        self.vote = np.repeat(np.fromiter((c is not None and c[1] > c[0] for c in counts),
                                          np.int64, total), 2)
        self.roots = 2 * (np.cumsum(sizes) - sizes)
        self.depth, frontier = 0, self.roots // 2
        while not leaf[frontier].all():
            frontier = frontier[~leaf[frontier]]
            frontier = np.concatenate([left[frontier], right[frontier]])
            self.depth += 1

    def votes(self, X):
        """How many trees vote 1 on each row of the 2-D float64 array ``X``."""
        rows = np.arange(len(X))[:, None]
        j = np.broadcast_to(self.roots, (len(X), len(self.roots)))
        for _ in range(self.depth):
            j = self.child[j + (X[rows, self.feature[j]] <= self.threshold[j])]
        return self.vote[j].sum(axis=1)


# Bootstrap positions (trees x samples) that one pass of the grower holds:
# 6 trees of a 2800-row fold, 5 of a 3000-row fit. A pass keeps a few int64
# and float64 copies of its index matrix alive, so this bounds the memory a
# fit takes on top of its data; larger groups cut few passes (the speed is
# flat from about 4 to 10 trees per pass) and raise the peak resident size.
_POSITIONS_PER_PASS = 16_800


def _grow(X, y, counts, min_leaf, max_depth):
    """One tree per row of ``counts``, which says how often each sample of
    ``X`` and ``y`` is in that tree's training set (a bootstrap repeats some
    and leaves others out).

    Every feature is sorted once; the trees then grow in groups of at most
    ``_POSITIONS_PER_PASS`` positions.
    """
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    n_trees, n = counts.shape
    groups = np.array_split(counts, -(-n_trees * n // max(_POSITIONS_PER_PASS, n)))
    return [tree for group in groups for tree in _grow_group(XT, y, order, group, min_leaf, max_depth)]


def _splittable(m, n1, depth, min_leaf, max_depth):
    return (depth < max_depth) & (m >= 2 * min_leaf) & (n1 > 0) & (n1 < m)


def _grow_group(XT, y, order, counts, min_leaf, max_depth):
    """Grow one tree per row of ``counts`` level by level.

    Sample i of tree t is index t*n + i into the group's tiled data, so one
    index names a sample in one tree. Every open node of every tree at one
    depth is a run of columns of the index matrix ``S``, whose row f lists
    the node's samples sorted by feature f, a sample as often as it was
    drawn. One pass finds every open node's best split and partitions the
    columns into the open children: all left children, then all right
    children. Children inherit sorted rows, so nothing sorts again. Nodes
    are numbered as they are made, then renumbered into preorder, the order
    ``save_model`` writes.
    """
    g, n = counts.shape
    F = len(XT)
    X, y = np.tile(XT, g), np.tile(y.astype(np.int32), g)
    S = np.empty((F, g * n), dtype=np.intp)
    for t in range(g):
        S[:, t * n : (t + 1) * n] = np.repeat(order + t * n, counts[t, order].ravel()).reshape(F, n)
    # Per node, in the order made: its tree, samples and positives.
    tree_of, m_of, n1_of = [np.arange(g)], [counts.sum(axis=1)], [counts @ y[:n]]
    splits = []  # per depth: (node, feature, threshold, left child, right child)
    side = np.zeros(g * n, dtype=np.int8)  # per index: 1 to an open left child, 2 right
    # The open nodes at this depth, in the order of their columns.
    nodes, trees, m, n1 = tree_of[0], tree_of[0], m_of[0], n1_of[0]
    made, depth = g, 0
    ok = _splittable(m, n1, depth, min_leaf, max_depth)
    S = np.compress(np.repeat(ok, m), S, axis=1)
    nodes, trees, m, n1 = nodes[ok], trees[ok], m[ok], n1[ok]
    while len(nodes):
        f, cut, n1_cut, best = _best_splits(X, y, S, m, n1, min_leaf)
        split = np.flatnonzero(best > 0)
        if not len(split):
            break
        ks, fs, cs = len(split), f[split], cut[split]
        nls, n1ls = cs + 1 - (np.cumsum(m) - m)[split], n1_cut[split]
        threshold = (X[fs, S[fs, cs]] + X[fs, S[fs, cs + 1]]) / 2.0
        children = made + np.arange(2 * ks)
        splits.append((nodes[split], fs, threshold, children[:ks], children[ks:]))
        made += 2 * ks
        tree_of.append(np.tile(trees[split], 2))
        m_of.append(np.concatenate([nls, m[split] - nls]))
        n1_of.append(np.concatenate([n1ls, n1[split] - n1ls]))
        depth += 1
        open_ = _splittable(m_of[-1], n1_of[-1], depth, min_leaf, max_depth)
        if not open_.any():
            break
        # Each split node's samples sorted by its split feature: those up to
        # the cut go left. Copies of a sample share its values, so they all
        # fall on one side.
        code = np.zeros((len(nodes), 2), dtype=np.int8)
        code[split] = np.column_stack([open_[:ks], 2 * open_[ks:]])
        pos = np.arange(S.shape[1])
        node = np.repeat(np.arange(len(nodes)), m)
        side[S.ravel()[f[node] * len(pos) + pos]] = code.ravel()[2 * node + (pos > cut[node])]
        S = _partition(S, side[S])
        nodes, trees = children[open_], tree_of[-1][open_]
        m, n1 = m_of[-1][open_], n1_of[-1][open_]
    return _assemble(g, np.concatenate(tree_of), np.concatenate(m_of), np.concatenate(n1_of), splits)


def _partition(S, D):
    """The columns of ``S`` whose ``D`` is 1, then those whose ``D`` is 2, row by row."""
    n_left = np.count_nonzero(D[0] == 1)
    out = np.empty((len(S), n_left + np.count_nonzero(D[0] == 2)), dtype=S.dtype)
    for r in range(len(S)):
        np.compress(D[r] == 1, S[r], out=out[r, :n_left])
        np.compress(D[r] == 2, S[r], out=out[r, n_left:])
    return out


def _best_splits(X, y, S, m, n1, min_leaf):
    """Each node's best split: ``(feature, cut, positives up to the cut,
    score)``, four arrays with one entry per node.

    The nodes are runs of ``m`` columns of ``S``, with ``n1`` positives.
    Splitting feature f after column ``cut`` sends the samples of row f up
    to ``cut`` left. The score is 0 if no split is allowed.
    """
    F, N = S.shape
    starts = np.cumsum(m) - m
    pos = np.arange(N)
    nl, mm, p = pos + 1 - np.repeat(starts, m), np.repeat(m, m), np.repeat(n1, m)
    # Positives at or before each position within its node: every row of a
    # node holds the same samples, so taking the previous node's positives
    # off at each node start restarts the running sum.
    a = y[S]
    a[:, starts[1:]] -= n1[:-1]
    np.cumsum(a, axis=1, out=a)
    # Splitting after position nl - 1 sends nl samples, a of them positive,
    # left. Minimizing the weighted Gini is maximizing
    #   nr*(c0l^2 + c1l^2) + nl*(c0r^2 + c1r^2)
    #   = nl*nr*(m - 2p) + 2*nl*p^2 + 2a*(m*a - 2p*nl),
    # with p the node's positives: exact in integers and positive, so ties
    # are unambiguous.
    score = 2 * mm * a
    score -= 4 * p * nl
    score *= a
    score += nl * (mm - nl) * (mm - 2 * p) + 2 * nl * p * p
    # Allowed: at least min_leaf samples on each side, between distinct values.
    allowed = np.zeros((F, N), dtype=bool)
    for r in range(F):
        v = X[r].take(S[r])
        np.not_equal(v[:-1], v[1:], out=allowed[r, :-1])
    allowed &= (nl >= min_leaf) & (nl <= mm - min_leaf)
    score *= allowed
    # First maxima: the lowest feature, then the lowest threshold.
    top = np.maximum.reduceat(score, starts, axis=1)
    f = top.argmax(axis=0)
    best = top[f, np.arange(len(m))]
    at = np.repeat(f, m) * N + pos  # each column in its node's best feature's row
    cut = np.minimum.reduceat(np.where(score.ravel()[at] == np.repeat(best, m), pos, N), starts)
    return f, cut, a[f, cut], best


def _assemble(g, tree, m, n1, splits):
    """The ``g`` trees of nodes numbered as made: roots first, every child
    after its parent. Node i is in ``tree[i]`` with ``m[i]`` samples,
    ``n1[i]`` of them positive; ``splits`` holds the internal nodes."""
    total = len(tree)
    feature, threshold = np.full(total, -1), np.zeros(total)
    left, right = np.full(total, -1), np.full(total, -1)
    for node, f, t, lo, hi in splits:
        feature[node], threshold[node], left[node], right[node] = f, t, lo, hi
    size = np.ones(total, dtype=np.intp)
    for node, _, _, lo, hi in reversed(splits):
        size[node] += size[lo] + size[hi]
    pre = np.zeros(total, dtype=np.intp)  # preorder number within the tree
    for node, _, _, lo, hi in splits:
        pre[lo] = pre[node] + 1
        pre[hi] = pre[lo] + size[lo]
    internal = feature >= 0
    left, right = np.where(internal, pre[left], -1), np.where(internal, pre[right], -1)
    order = np.lexsort((pre, tree))
    columns = [c[order].tolist() for c in (feature, threshold, left, right, m - n1, n1)]
    out, lo = [], 0
    for hi in np.cumsum(size[:g]).tolist():
        f, t, l, r, c0, c1 = (c[lo:hi] for c in columns)
        counts = [None if fi >= 0 else (a, b) for fi, a, b in zip(f, c0, c1)]
        out.append(DecisionTree(f, t, l, r, counts))
        lo = hi
    return out


def _feature_rows(X, width):
    """``X`` as a 2-D float64 array of rows of ``width`` features; ValueError otherwise."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"expected rows of {width} features, got an array of shape {X.shape}")
    return X


def _check_binary(name, values):
    """``values`` as int64 if every one equals 0 or 1; otherwise InputError
    naming the first that does not, before a fraction can be truncated."""
    bad = np.flatnonzero((values != 0) & (values != 1))
    if bad.size:
        raise InputError(f"{name} {values[bad[:1]].tolist()[0]!r} at index {bad[0]} is not 0 or 1")
    return values.astype(np.int64)


def _training_data(X, y, forest, n_trees=DEFAULTS.n_trees, min_leaf=DEFAULTS.min_leaf,
                   max_depth=DEFAULTS.max_depth):
    """Check the tree settings, then return ``X`` and ``y`` as float64 rows
    and int64 labels to train on: a 2-D array with a column per feature (the
    three features for a ``forest``), one label per row, at least one row,
    every label 0 or 1 and, for a forest, both classes. Every entry point
    that trains checks its input here, in the calling process, so a fault
    raises the same exception wherever it is found."""
    for name, value in (("n_trees", n_trees), ("min_leaf", min_leaf), ("max_depth", max_depth)):
        check(name, value)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"X must be a 2-D array of feature rows, got an array of shape {X.shape}")
    if forest:
        X = _feature_rows(X, len(FEATURE_NAMES))
    if y.ndim != 1 or len(y) != len(X):
        labels = f"{len(y)} labels" if y.ndim == 1 else f"labels of shape {y.shape}"
        raise LengthMismatchError(f"X has {len(X)} rows but there are {labels}")
    if len(y) == 0:
        raise EmptyTrainingSetError("cannot train on zero samples")
    y = _check_binary("label", y)
    if forest and len(np.unique(y)) < 2:
        raise SingleClassError("training data must contain both classes")
    return X, y


def train_tree(X, y, min_leaf=DEFAULTS.min_leaf, max_depth=DEFAULTS.max_depth) -> DecisionTree:
    """Grow one tree by greedy Gini splits with deterministic tie-breaking."""
    X, y = _training_data(X, y, False, min_leaf=min_leaf, max_depth=max_depth)
    return _grow(X, y, np.ones((1, len(y)), dtype=np.int64), min_leaf, max_depth)[0]


class BaggedTreesClassifier(ParamsMixin):
    """Bootstrap-aggregated decision trees over the three region features.

    Bagging is on samples only (all features available to every split).
    The predicted label is the majority vote, ties conservatively going
    to 0; the confidence is the fraction of trees voting 1.
    """

    def __init__(self, n_trees=DEFAULTS.n_trees, seed=DEFAULTS.seed, min_leaf=DEFAULTS.min_leaf,
                 max_depth=DEFAULTS.max_depth):
        self.n_trees = n_trees
        self.seed = seed
        self.min_leaf = min_leaf
        self.max_depth = max_depth

    @property
    def trees_(self):
        return self._trees

    @trees_.setter
    def trees_(self, trees):
        self._trees = tuple(trees)
        self._routes = _Routes(self._trees)

    def fit(self, X, y):
        X, y = _training_data(X, y, True, self.n_trees, self.min_leaf, self.max_depth)
        n = len(y)
        # All bootstrap draws happen up front, in a fixed order: tree t
        # draws the t-th n of them.
        draws = Xorshift64Star(self.seed).below_many(n, self.n_trees * n).reshape(self.n_trees, n)
        draws += (np.arange(self.n_trees) * n)[:, None]
        counts = np.bincount(draws.ravel(), minlength=self.n_trees * n).reshape(self.n_trees, n)
        del draws  # not needed while the trees grow
        self.trees_ = _grow(X, y, counts, self.min_leaf, self.max_depth)
        self.n_samples_ = n
        return self

    def _votes(self, X):
        return self._routes.votes(_feature_rows(X, len(FEATURE_NAMES)))

    def predict(self, X):
        votes = self._votes(X)
        return (votes * 2 > len(self.trees_)).astype(np.int64)  # tie -> 0

    def predict_confidence(self, X):
        return self._votes(X) / float(len(self.trees_))

    def predict_one(self, features):
        """(label, confidence) for a single feature vector or RegionFeatures."""
        vec = features.as_vector() if hasattr(features, "as_vector") else features
        votes = int(self._votes(np.asarray(vec, dtype=np.float64).reshape(1, -1))[0])
        return int(votes * 2 > len(self.trees_)), votes / len(self.trees_)


def _fit_task(task):
    """Fit one model of a training run. A fold returns the model's accuracy
    on its held-out rows; the final fit, which holds none out, returns the model."""
    X_train, y_train, X_test, y_test, seed, model_params = task
    model = BaggedTreesClassifier(seed=seed, **model_params).fit(X_train, y_train)
    if X_test is None:
        return model
    return float(np.mean(model.predict(X_test) == y_test))


def _fold_tasks(X, y, k, seed, groups, model_params):
    """Check the input, then return ``X`` and ``y`` as arrays and the k
    cross-validation folds as :func:`_fit_task` tasks, fold i fitting with
    ``seed + i + 1``. A row's unit is its group id's place among the sorted
    distinct ids, or the row itself without groups; the shuffled units are
    dealt to the folds in runs. A fold training on one class is named."""
    X, y = _training_data(X, y, True, **model_params)
    if groups is None:
        unit = np.arange(len(y))
    else:
        if len(groups) != len(y):
            raise LengthMismatchError("groups and labels differ in length")
        # Object ids keep 1 and "1" apart and raise TypeError if they cannot be ordered.
        unit = np.unique(np.fromiter(groups, dtype=object, count=len(y)), return_inverse=True)[1]
    n_units = int(unit.max()) + 1
    if k < 2:
        raise FoldTooSmallError(f"need at least 2 folds, got {k}")
    if k > n_units:
        raise FoldTooSmallError(f"k={k} folds need at least k units, got {n_units}")

    base, extra = divmod(n_units, k)
    fold_of_unit = np.empty(n_units, dtype=np.int64)
    fold_of_unit[Xorshift64Star(seed).shuffle(list(range(n_units)))] = np.repeat(
        np.arange(k), base + (np.arange(k) < extra))
    fold = fold_of_unit[unit]
    tasks = []
    for i in range(k):
        held = fold == i
        y_train = y[~held]
        if y_train.min() == y_train.max():
            raise SingleClassError(f"fold {i + 1} of {k} trains on class {y_train[0]} only: "
                                   "training data must contain both classes")
        tasks.append((X[~held], y_train, X[held], y[held], seed + i + 1, model_params))
    return X, y, tasks


def _cv_result(accuracies):
    return {"fold_accuracies": accuracies, "mean_accuracy": float(np.mean(accuracies))}


def cross_validate(X, y, k=CV_FOLDS, seed=DEFAULTS.seed, groups=None, workers=DEFAULTS.threads,
                   **model_params):
    """Deterministic k-fold cross-validation.

    Whole groups (e.g. patient ids, to keep one patient's slices out of
    both sides of a fold; each sample is its own group by default) are
    shuffled by the seeded generator and dealt into k near-equal folds.
    Each fold's model has a seed of its own, so with ``workers > 1`` the
    folds fit in a process pool and give the same result.
    Returns ``{"fold_accuracies": [...], "mean_accuracy": float}``.
    """
    _, _, tasks = _fold_tasks(X, y, k, seed, groups, model_params)
    return _cv_result(map_tasks(_fit_task, tasks, workers))


def fit_and_cross_validate(X, y, k=CV_FOLDS, seed=DEFAULTS.seed, groups=None,
                           workers=DEFAULTS.threads, **model_params):
    """The model fitted on all of ``X`` and ``y`` with ``seed``, and
    :func:`cross_validate`'s result for the same arguments, as ``(model, cv)``.

    The final fit and the k folds are one job of k + 1 fits, so with
    ``workers > 1`` they share one process pool; the final fit, the largest,
    goes first. Model and result are those of the two calls made apart.
    """
    X, y, folds = _fold_tasks(X, y, k, seed, groups, model_params)
    model, *accuracies = map_tasks(_fit_task, [(X, y, None, None, seed, model_params), *folds],
                                   workers)
    return model, _cv_result(accuracies)


def evaluate(predictions, labels):
    """Confusion counts and the standard ratios for binary predictions.

    Every prediction and label must be 0 or 1 (``InputError`` otherwise), so
    the four confusion cells add up to the number of rows.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1 or len(predictions) == 0:
        raise LengthMismatchError(
            f"predictions ({predictions.shape}) and labels ({labels.shape}) must be "
            "equal-length non-empty vectors"
        )
    predictions = _check_binary("prediction", predictions)
    labels = _check_binary("label", labels)
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    n = len(labels)
    return {
        "confusion": (tp, fn, fp, tn),
        "accuracy": (tp + tn) / n,
        "sensitivity": tp / (tp + fn) if tp + fn else 0.0,
        "specificity": tn / (tn + fp) if tn + fp else 0.0,
    }


# --- persistence ------------------------------------------------------------------

def save_model(model: BaggedTreesClassifier, path):
    """Write the fitted model in the versioned LCTM binary format.

    The bytes are a pure function of the fitted model parameters (no
    timestamps), so identical training runs produce identical files.
    """
    if not hasattr(model, "trees_"):
        raise ValueError("model must be fitted before saving")
    # Checked here, not in fit: cross-validation's folds fit with seed + 1 on.
    check("seed", model.seed)
    out = bytearray(_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, model.n_trees, int(model.seed),
                                 model.min_leaf, model.max_depth, model.n_samples_,
                                 len(_MODEL_NAMES)))
    out += _MODEL_NAMES
    for tree in model.trees_:
        out += _COUNT.pack(tree.n_nodes)
        for i in range(tree.n_nodes):
            if tree.feature[i] >= 0:
                out += _KIND.pack(0) + _SPLIT.pack(tree.feature[i], tree.threshold[i],
                                                   tree.left[i], tree.right[i])
            else:
                out += _KIND.pack(1) + _LEAF.pack(*tree.counts[i])
    Path(path).write_bytes(bytes(out))


def load_model(path) -> BaggedTreesClassifier:
    """Read a model written by :func:`save_model`.

    Beyond the layout, the file must name ``FEATURE_NAMES`` in order, and
    every tree must be one a prediction can walk: a split node names one of
    them and both its children come after it in the same tree, and every node
    but the first is the child of exactly one split node (``save_model``
    writes nodes in preorder).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    pos = 0

    def take(record):
        nonlocal pos
        try:
            values = record.unpack_from(data, pos)
        except struct.error:
            raise ModelFormatError("model file is truncated") from None
        pos += record.size
        return values

    if not data.startswith(MODEL_MAGIC):
        raise ModelFormatError("not a model file (bad magic)")
    _, version, n_trees, seed, min_leaf, max_depth, n_samples, names_len = take(_HEADER)
    if version != MODEL_VERSION:
        raise ModelVersionError(f"model format version {version} is not supported")
    if n_trees == 0:
        raise ModelFormatError("model has zero trees")
    (names,) = take(struct.Struct(f"{names_len}s"))
    if names != _MODEL_NAMES:
        raise ModelFormatError(f"model features {names.decode('ascii', 'replace')} are not "
                               f"{_MODEL_NAMES.decode('ascii')}")
    model = BaggedTreesClassifier(n_trees=n_trees, seed=seed, min_leaf=min_leaf, max_depth=max_depth)
    trees = []
    for _ in range(n_trees):
        (n_nodes,) = take(_COUNT)
        if n_nodes == 0:
            raise ModelFormatError("tree with zero nodes")
        nodes, children = [], []  # nodes: (feature, threshold, left, right, counts)
        for node in range(n_nodes):
            (kind,) = take(_KIND)
            if kind == 0:
                f, threshold, left, right = take(_SPLIT)
                if f >= len(FEATURE_NAMES) or not (node < left < n_nodes and node < right < n_nodes):
                    raise ModelFormatError(f"split node {node} has a bad feature or child index")
                nodes.append((f, threshold, left, right, None))
                children += (left, right)
            elif kind == 1:
                nodes.append((-1, 0.0, -1, -1, take(_LEAF)))
            else:
                raise ModelFormatError(f"unknown node kind {kind}")
        if sorted(children) != list(range(1, n_nodes)):
            raise ModelFormatError("each node but the root must have exactly one parent")
        trees.append(DecisionTree(*zip(*nodes)))
    if pos != len(data):
        raise ModelFormatError("trailing bytes after the last tree")
    model.trees_ = trees
    model.n_samples_ = n_samples
    return model
