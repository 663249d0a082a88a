"""Bagged binary decision trees with a fully specified deterministic RNG.

Every stochastic choice (bootstrap resampling, fold shuffling) flows
through :class:`Xorshift64Star`, so training and cross-validation are
bit-reproducible across runs and platforms. Split selection compares
exact integer scores, never floats, so ties are unambiguous.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .base import ParamsMixin
from .config import DEFAULTS
from .errors import (
    EmptyTrainingSetError,
    FoldTooSmallError,
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


def _best_split(X, y, min_leaf):
    """Best (feature, threshold) by Gini, or None if no split is allowed.

    Candidates are midpoints between consecutive distinct sorted values.
    Minimizing the weighted Gini is equivalent to maximizing the exact
    integer score ``nr*(c0l^2 + c1l^2) + nl*(c0r^2 + c1r^2)``, which makes
    tie comparisons unambiguous: ties go to the lowest feature index,
    then the lowest threshold.
    """
    n = len(y)
    total1 = int(y.sum())
    total0 = n - total1
    best = None  # (score, feature, threshold, sorted_order, left_count)
    for f in range(X.shape[1]):
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        v = values[order]
        c1 = np.cumsum(y[order])
        boundaries = np.flatnonzero(v[:-1] < v[1:])  # split after position i
        if boundaries.size == 0:
            continue
        nl = boundaries + 1
        nr = n - nl
        allowed = (nl >= min_leaf) & (nr >= min_leaf)
        if not allowed.any():
            continue
        boundaries, nl, nr = boundaries[allowed], nl[allowed], nr[allowed]
        c1l = c1[boundaries]
        c0l = nl - c1l
        c1r = total1 - c1l
        c0r = total0 - c0l
        score = nr * (c0l * c0l + c1l * c1l) + nl * (c0r * c0r + c1r * c1r)
        j = int(np.argmax(score))  # first max = lowest threshold
        if best is None or int(score[j]) > best[0]:
            threshold = (float(v[boundaries[j]]) + float(v[boundaries[j] + 1])) / 2.0
            best = (int(score[j]), f, threshold, order, int(nl[j]))
    if best is None:
        return None
    _, f, threshold, order, nl = best
    return f, threshold, order[:nl], order[nl:]


def train_tree(X, y, min_leaf=DEFAULTS.min_leaf, max_depth=DEFAULTS.max_depth) -> DecisionTree:
    """Grow one tree by greedy Gini splits with deterministic tie-breaking."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D with one label per row")
    if len(y) == 0:
        raise EmptyTrainingSetError("cannot train a tree on zero samples")

    tree = DecisionTree()

    def add_leaf(idx):
        n1 = int(y[idx].sum())
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.counts.append((len(idx) - n1, n1))
        return len(tree.feature) - 1

    def grow(idx, depth):
        ys = y[idx]
        if depth >= max_depth or len(idx) < 2 * min_leaf or ys.min() == ys.max():
            return add_leaf(idx)
        split = _best_split(X[idx], ys, min_leaf)
        if split is None:
            return add_leaf(idx)
        f, threshold, left_pos, right_pos = split
        node = len(tree.feature)
        tree.feature.append(f)
        tree.threshold.append(threshold)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.counts.append(None)
        tree.left[node] = grow(idx[left_pos], depth + 1)
        tree.right[node] = grow(idx[right_pos], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return tree


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
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one label per row")
        if len(y) == 0:
            raise EmptyTrainingSetError("cannot fit on zero samples")
        if len(y) < 2 or len(np.unique(y)) < 2:
            raise SingleClassError("training data must contain both classes")
        if not set(np.unique(y).tolist()) <= {0, 1}:
            raise ValueError("labels must be 0 or 1")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")

        n = len(y)
        rng = Xorshift64Star(self.seed)
        # All bootstrap draws happen up front, in a fixed order, so tree
        # training could fan out to workers without changing the result.
        bootstraps = [
            np.array([rng.below(n) for _ in range(n)], dtype=np.int64)
            for _ in range(self.n_trees)
        ]
        self.trees_ = [
            train_tree(X[idx], y[idx], self.min_leaf, self.max_depth) for idx in bootstraps
        ]
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


def cross_validate(X, y, k=CV_FOLDS, seed=DEFAULTS.seed, groups=None, **model_params):
    """Deterministic k-fold cross-validation.

    Samples (or whole groups, when ``groups`` is given - e.g. patient ids
    to keep one patient's slices out of both sides of a fold) are shuffled
    by the seeded generator and dealt into k near-equal folds. Returns
    ``{"fold_accuracies": [...], "mean_accuracy": float}``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise SingleClassError("cross-validation needs both classes")

    if groups is None:
        unit_members = [np.array([i]) for i in range(len(y))]
    else:
        if len(groups) != len(y):
            raise LengthMismatchError("groups and labels differ in length")
        order = {}
        for i, g in enumerate(groups):
            order.setdefault(g, []).append(i)
        unit_members = [np.array(order[g]) for g in sorted(order)]
    if k < 2 or k > len(unit_members):
        raise FoldTooSmallError(
            f"k={k} folds need at least k units, got {len(unit_members)}"
        )

    rng = Xorshift64Star(seed)
    unit_order = rng.shuffle(list(range(len(unit_members))))
    base, extra = divmod(len(unit_order), k)
    folds, pos = [], 0
    for fold_index in range(k):
        size = base + (1 if fold_index < extra else 0)
        members = np.concatenate([unit_members[u] for u in unit_order[pos : pos + size]])
        folds.append(np.sort(members))
        pos += size

    accuracies = []
    for fold_index, test_idx in enumerate(folds):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        model = BaggedTreesClassifier(seed=seed + fold_index + 1, **model_params)
        model.fit(X[train_mask], y[train_mask])
        predictions = model.predict(X[test_idx])
        accuracies.append(float(np.mean(predictions == y[test_idx])))
    return {"fold_accuracies": accuracies, "mean_accuracy": float(np.mean(accuracies))}


def evaluate(predictions, labels):
    """Confusion counts and the standard ratios for binary predictions."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1 or len(predictions) == 0:
        raise LengthMismatchError(
            f"predictions ({predictions.shape}) and labels ({labels.shape}) must be "
            "equal-length non-empty vectors"
        )
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
    """Read a model written by :func:`save_model`."""
    data = Path(path).read_bytes()
    reader = _ModelReader(data)
    if reader.take(4) != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    (version,) = struct.unpack("<I", reader.take(4))
    if version != MODEL_VERSION:
        raise ModelVersionError(f"model format version {version} is not supported")
    n_trees, seed, min_leaf, max_depth, n_samples, names_len = struct.unpack(
        "<IqIIIH", reader.take(26)
    )
    names = tuple(reader.take(names_len).decode("ascii").split(","))
    model = BaggedTreesClassifier(n_trees=n_trees, seed=seed, min_leaf=min_leaf, max_depth=max_depth)
    trees = []
    for _ in range(n_trees):
        (n_nodes,) = struct.unpack("<I", reader.take(4))
        tree = DecisionTree()
        for _ in range(n_nodes):
            (kind,) = struct.unpack("<b", reader.take(1))
            if kind == 0:
                f, threshold, left, right = struct.unpack("<Bdii", reader.take(17))
                tree.feature.append(f)
                tree.threshold.append(threshold)
                tree.left.append(left)
                tree.right.append(right)
                tree.counts.append(None)
            elif kind == 1:
                n0, n1 = struct.unpack("<II", reader.take(8))
                tree.feature.append(-1)
                tree.threshold.append(0.0)
                tree.left.append(-1)
                tree.right.append(-1)
                tree.counts.append((n0, n1))
            else:
                raise ModelFormatError(f"unknown node kind {kind}")
        if tree.n_nodes == 0:
            raise ModelFormatError("tree with zero nodes")
        trees.append(tree)
    if reader.remaining():
        raise ModelFormatError("trailing bytes after the last tree")
    model.trees_ = trees
    model.n_samples_ = n_samples
    model.feature_names_ = names
    return model


class _ModelReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if len(self.data) - self.pos < n:
            raise ModelFormatError("model file is truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def remaining(self):
        return len(self.data) - self.pos
