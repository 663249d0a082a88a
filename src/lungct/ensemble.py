"""Bagged binary decision trees with a fully specified deterministic RNG.

Every stochastic choice (bootstrap resampling, fold shuffling) flows
through :class:`Xorshift64Star`, so training and cross-validation are
bit-reproducible across runs and platforms. Split selection compares
exact integer scores, never floats, so ties are unambiguous.

Split search works on presorted columns, as SLIQ and SPRINT do (Mehta et
al. 1996; Shafer et al. 1996): every feature is sorted once per fit, and
each node holds one row of sample indices per feature, sorted by that
feature. A node scores every boundary of every feature in one vectorised
pass, and its children inherit their sorted rows by a stable partition, so
no node sorts again. A node's split depends only on the multiset of samples
at it, not on their order, because every split falls between distinct
values."""

import multiprocessing
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .base import ParamsMixin
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

    def __init__(self, seed):
        self.state = (int(seed) & _MASK64) or self._ZERO_STATE

    def next_u64(self):
        x = self.state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27)
        self.state = x
        return (x * self._MULT) & _MASK64

    def below(self, n):
        return self.next_u64() % n

    def below_many(self, n, count):
        """``count`` successive ``below(n)`` draws as one int64 array.

        The recurrence runs on a local variable rather than through
        ``next_u64``; the draws, and the state left behind, are those of
        ``count`` calls to ``below(n)``.
        """
        x, mask = self.state, _MASK64
        states = [0] * count
        for i in range(count):
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            states[i] = x
        self.state = x
        # uint64 products wrap, which is the generator's multiply mod 2**64.
        out = np.array(states, dtype=np.uint64) * np.uint64(self._MULT)
        return (out % np.uint64(n)).astype(np.int64)

    def uniform(self):
        return self.next_u64() / 2.0**64

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass
class DecisionTree:
    """Flattened binary tree: node i is internal if feature[i] >= 0.

    Internal nodes route ``x[feature] <= threshold`` left; leaves carry
    the class counts of the training samples that reached them.
    """

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    counts: list = field(default_factory=list)

    def add_node(self, feature=-1, threshold=0.0, left=-1, right=-1, counts=None):
        """Append a node (a leaf unless ``feature >= 0``) and return its index."""
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(left)
        self.right.append(right)
        self.counts.append(counts)
        return len(self.feature) - 1

    def leaf_vote(self, node):
        n0, n1 = self.counts[node]
        return 1 if n1 > n0 else 0  # tie votes 0

    def predict_one(self, x):
        node = 0
        while self.feature[node] >= 0:
            node = self.left[node] if x[self.feature[node]] <= self.threshold[node] else self.right[node]
        return self.leaf_vote(node)

    def predict(self, X):
        return np.array([self.predict_one(row) for row in np.atleast_2d(X)], dtype=np.int64)

    @property
    def n_nodes(self):
        return len(self.feature)


def _best_boundary(XT, y, S, n1, min_leaf):
    """Best ``(feature, boundary, left positives)`` at a node, or None if none is allowed.

    ``S`` holds the node's m sample indices once per feature, row f sorted
    by feature f, and ``n1`` of its samples are positive. Candidates are the
    boundaries between consecutive distinct values with at least
    ``min_leaf`` samples on each side; the split after position b sends
    ``S[f, :b + 1]`` left. Minimizing the weighted Gini is equivalent to
    maximizing the exact integer score ``nr*(c0l^2 + c1l^2) +
    nl*(c0r^2 + c1r^2)``, which is positive for every candidate, so ties
    are unambiguous: they go to the lowest feature index, then the lowest
    threshold.
    """
    m = S.shape[1]
    lo, hi = min_leaf - 1, m - min_leaf  # boundaries b in [lo, hi) obey min_leaf
    rows = np.arange(len(S))
    V = XT[rows[:, None], S]
    c1l = np.cumsum(y[S], axis=1)[:, lo:hi]
    nl = np.arange(lo + 1, hi + 1)
    nr = m - nl
    c0l = nl - c1l
    c1r = n1 - c1l
    c0r = (m - n1) - c0l
    score = nr * (c0l * c0l + c1l * c1l) + nl * (c0r * c0r + c1r * c1r)
    score[V[:, lo:hi] == V[:, lo + 1 : hi + 1]] = -1
    best = np.argmax(score, axis=1)  # first max = lowest threshold
    f = int(np.argmax(score[rows, best]))  # first max = lowest feature
    b = int(best[f])
    if score[f, b] < 0:
        return None
    return f, lo + b, int(c1l[f, b])


def _grow_tree(XT, y, S, min_leaf, max_depth) -> DecisionTree:
    """Grow one tree on features ``XT`` (one row per feature) and labels ``y``.

    Row f of ``S`` lists the training samples' indices sorted by feature f.
    An index may repeat, as a bootstrap repeats it: copies share their
    values, so they always fall on the same side of a split.
    """
    tree = DecisionTree()
    goes_left = np.zeros(len(y), dtype=bool)

    def grow(S, n1, depth):
        m = S.shape[1]
        split = None
        if depth < max_depth and m >= 2 * min_leaf and 0 < n1 < m:
            split = _best_boundary(XT, y, S, n1, min_leaf)
        if split is None:
            return tree.add_node(counts=(m - n1, n1))
        f, b, n1_left = split
        threshold = (float(XT[f, S[f, b]]) + float(XT[f, S[f, b + 1]])) / 2.0
        # A stable partition of every row keeps each child's rows sorted.
        goes_left[S[f, : b + 1]] = True
        G = goes_left[S]
        goes_left[S[f, : b + 1]] = False
        left, right = S[G].reshape(len(S), b + 1), S[~G].reshape(len(S), m - b - 1)
        node = tree.add_node(f, threshold)
        tree.left[node] = grow(left, n1_left, depth + 1)
        tree.right[node] = grow(right, n1 - n1_left, depth + 1)
        return node

    grow(S, int(y[S[0]].sum()), 0)
    return tree


def _training_arrays(X, y, min_leaf, max_depth):
    """Check the tree settings; return ``X`` and ``y`` as float64 and int64 arrays of matching shape."""
    check("min_leaf", min_leaf)
    check("max_depth", max_depth)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] == 0 or len(X) != len(y):
        raise ValueError("X must be 2-D, with a column per feature and one label per row")
    return X, y


def train_tree(X, y, min_leaf=DEFAULTS.min_leaf, max_depth=DEFAULTS.max_depth) -> DecisionTree:
    """Grow one tree by greedy Gini splits with deterministic tie-breaking."""
    X, y = _training_arrays(X, y, min_leaf, max_depth)
    if len(y) == 0:
        raise EmptyTrainingSetError("cannot train a tree on zero samples")
    XT = np.ascontiguousarray(X.T)
    return _grow_tree(XT, y, np.argsort(XT, axis=1, kind="stable"), min_leaf, max_depth)


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

    def fit(self, X, y):
        check("n_trees", self.n_trees)
        X, y = _training_arrays(X, y, self.min_leaf, self.max_depth)
        if len(y) == 0:
            raise EmptyTrainingSetError("cannot fit on zero samples")
        if len(y) < 2 or len(np.unique(y)) < 2:
            raise SingleClassError("training data must contain both classes")
        if not set(np.unique(y).tolist()) <= {0, 1}:
            raise ValueError("labels must be 0 or 1")

        n = len(y)
        rng = Xorshift64Star(self.seed)
        # All bootstrap draws happen up front, in a fixed order, so tree
        # training could fan out to workers without changing the result.
        bootstraps = rng.below_many(n, self.n_trees * n).reshape(self.n_trees, n)
        # Sorting once serves every tree: a bootstrap's sorted rows are the
        # sorted sample indices, each repeated as often as it was drawn.
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1, kind="stable").ravel()
        self.trees_ = []
        for idx in bootstraps:
            S = np.repeat(order, np.bincount(idx, minlength=n)[order]).reshape(len(XT), n)
            self.trees_.append(_grow_tree(XT, y, S, self.min_leaf, self.max_depth))
        self.n_samples_ = n
        self.feature_names_ = FEATURE_NAMES
        return self

    def _votes(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees_:
            votes += tree.predict(X)
        return votes

    def predict(self, X):
        votes = self._votes(X)
        return (votes * 2 > len(self.trees_)).astype(np.int64)  # tie -> 0

    def predict_confidence(self, X):
        return self._votes(X) / float(len(self.trees_))

    def predict_one(self, features):
        """(label, confidence) for a single feature vector or RegionFeatures."""
        vec = features.as_vector() if hasattr(features, "as_vector") else features
        votes = int(self._votes(np.asarray(vec, dtype=np.float64).reshape(1, 3))[0])
        return int(votes * 2 > len(self.trees_)), votes / len(self.trees_)


def _fold_accuracy(task):
    """Held-out accuracy of one cross-validation fold."""
    X_train, y_train, X_test, y_test, seed, model_params = task
    model = BaggedTreesClassifier(seed=seed, **model_params).fit(X_train, y_train)
    return float(np.mean(model.predict(X_test) == y_test))


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
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise SingleClassError("cross-validation needs both classes")
    groups = range(len(y)) if groups is None else groups
    if len(groups) != len(y):
        raise LengthMismatchError("groups and labels differ in length")
    order = {}
    for i, g in enumerate(groups):
        order.setdefault(g, []).append(i)
    unit_members = [np.array(order[g]) for g in sorted(order)]
    if k < 2:
        raise FoldTooSmallError(f"need at least 2 folds, got {k}")
    if k > len(unit_members):
        raise FoldTooSmallError(
            f"k={k} folds need at least k units, got {len(unit_members)}"
        )

    rng = Xorshift64Star(seed)
    unit_order = rng.shuffle(list(range(len(unit_members))))
    base, extra = divmod(len(unit_order), k)
    tasks, pos = [], 0
    for fold_index in range(k):
        size = base + (1 if fold_index < extra else 0)
        test_idx = np.sort(np.concatenate([unit_members[u] for u in unit_order[pos : pos + size]]))
        pos += size
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        tasks.append((X[train_mask], y[train_mask], X[test_idx], y[test_idx],
                      seed + fold_index + 1, model_params))

    if workers <= 1:
        accuracies = [_fold_accuracy(task) for task in tasks]
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(workers, k), mp_context=spawn) as pool:
            accuracies = list(pool.map(_fold_accuracy, tasks))
    return {"fold_accuracies": accuracies, "mean_accuracy": float(np.mean(accuracies))}


def evaluate(predictions, labels):
    """Confusion counts and the standard ratios for binary predictions.

    Every prediction and label must be 0 or 1 (``InputError`` otherwise), so
    the four confusion cells add up to the number of rows.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1 or len(predictions) == 0:
        raise LengthMismatchError(
            f"predictions ({predictions.shape}) and labels ({labels.shape}) must be "
            "equal-length non-empty vectors"
        )
    for name, values in (("prediction", predictions), ("label", labels)):
        bad = np.flatnonzero((values != 0) & (values != 1))
        if bad.size:
            raise InputError(f"{name} {values[bad[0]]} at index {bad[0]} is not 0 or 1")
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
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<I", MODEL_VERSION)
    names = ",".join(model.feature_names_).encode("ascii")
    out += struct.pack(
        "<IqIIIH", model.n_trees, int(model.seed), model.min_leaf, model.max_depth,
        model.n_samples_, len(names),
    )
    out += names
    for tree in model.trees_:
        out += struct.pack("<I", tree.n_nodes)
        for i in range(tree.n_nodes):
            if tree.feature[i] >= 0:
                out += struct.pack("<bBdii", 0, tree.feature[i], tree.threshold[i],
                                   tree.left[i], tree.right[i])
            else:
                n0, n1 = tree.counts[i]
                out += struct.pack("<bII", 1, n0, n1)
    Path(path).write_bytes(bytes(out))


def load_model(path) -> BaggedTreesClassifier:
    """Read a model written by :func:`save_model`.

    Beyond the layout, every tree must be one a prediction can walk: a split
    node names one of the model's features and both its children come after
    it in the same tree (``save_model`` writes nodes in preorder).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    pos = 0

    def take(fmt):
        nonlocal pos
        try:
            values = struct.unpack_from(fmt, data, pos)
        except struct.error:
            raise ModelFormatError("model file is truncated") from None
        pos += struct.calcsize(fmt)
        return values

    if take("<4s")[0] != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    (version,) = take("<I")
    if version != MODEL_VERSION:
        raise ModelVersionError(f"model format version {version} is not supported")
    n_trees, seed, min_leaf, max_depth, n_samples, names_len = take("<IqIIIH")
    if n_trees == 0:
        raise ModelFormatError("model has zero trees")
    try:
        names = tuple(take(f"<{names_len}s")[0].decode("ascii").split(","))
    except UnicodeDecodeError:
        raise ModelFormatError("feature names are not ASCII") from None
    model = BaggedTreesClassifier(n_trees=n_trees, seed=seed, min_leaf=min_leaf, max_depth=max_depth)
    trees = []
    for _ in range(n_trees):
        (n_nodes,) = take("<I")
        if n_nodes == 0:
            raise ModelFormatError("tree with zero nodes")
        tree = DecisionTree()
        for node in range(n_nodes):
            (kind,) = take("<b")
            if kind == 0:
                f, threshold, left, right = take("<Bdii")
                if f >= len(names) or not (node < left < n_nodes and node < right < n_nodes):
                    raise ModelFormatError(f"split node {node} has a bad feature or child index")
                tree.add_node(f, threshold, left, right)
            elif kind == 1:
                tree.add_node(counts=take("<II"))
            else:
                raise ModelFormatError(f"unknown node kind {kind}")
        trees.append(tree)
    if pos != len(data):
        raise ModelFormatError("trailing bytes after the last tree")
    model.trees_ = trees
    model.n_samples_ = n_samples
    model.feature_names_ = names
    return model
