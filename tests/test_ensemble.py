"""Trees, bagging, cross-validation, metrics and model persistence."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from lungct import ensemble
from lungct.ensemble import (
    BaggedTreesClassifier,
    DecisionTree,
    MODEL_MAGIC,
    Xorshift64Star,
    cross_validate,
    evaluate,
    fit_and_cross_validate,
    load_model,
    save_model,
    train_tree,
)
from lungct.errors import (
    EmptyTrainingSetError,
    FoldTooSmallError,
    InputError,
    LengthMismatchError,
    ModelFormatError,
    ModelVersionError,
    SingleClassError,
)
from lungct.phantom import make_feature_corpus

from _model_fixture import UNWALKABLE_TREES, one_tree_model
from _oracles import ReferenceTree


def _separable(n=200, seed=0):
    """Two well-separated clusters: wide margins in every feature."""
    rng = np.random.default_rng(seed)
    pos = np.column_stack([
        rng.uniform(2000, 4000, n // 2),
        rng.uniform(105, 115, n // 2),
        rng.uniform(85, 105, n // 2),
    ])
    neg = np.column_stack([
        rng.uniform(50, 400, n - n // 2),
        rng.uniform(150, 200, n - n // 2),
        rng.uniform(5, 30, n - n // 2),
    ])
    X = np.vstack([pos, neg])
    y = np.array([1] * (n // 2) + [0] * (n - n // 2))
    return X, y


# --- rng ---------------------------------------------------------------------

def test_xorshift_deterministic():
    a = Xorshift64Star(123)
    b = Xorshift64Star(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_xorshift_frozen_sequence():
    # frozen regression values for seed 1 (portability check)
    rng = Xorshift64Star(1)
    assert rng.next_u64() == 5180492295206395165
    assert rng.next_u64() == 12380297144915551517
    assert rng.next_u64() == 13389498078930870103


def test_xorshift_zero_seed_usable():
    rng = Xorshift64Star(0)
    values = {rng.next_u64() for _ in range(10)}
    assert len(values) == 10


@pytest.mark.parametrize("n", [1, 2, 7, 3000])
def test_xorshift_below_many_is_the_below_stream(n):
    one_by_one, batched = Xorshift64Star(42), Xorshift64Star(42)
    expected = [one_by_one.below(n) for _ in range(500)]
    draws = batched.below_many(n, 500)
    assert draws.dtype == np.int64
    assert draws.tolist() == expected
    assert batched.state == one_by_one.state


# Counts around multiples of 256 steps, the jump-ahead lane; from 8 lanes
# (1793 draws) on, the draws jump ahead; 84 000 is one 30-tree draw of a
# 2800-row fold.
@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 1023, 1024, 1793, 2047, 2048, 2049,
                                   84_000])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_xorshift_below_many_is_the_below_stream_at_block_edges(seed, count):
    one_by_one, batched = Xorshift64Star(seed), Xorshift64Star(seed)
    expected = [one_by_one.below(2800) for _ in range(count)]
    draws = batched.below_many(2800, count)
    assert draws.dtype == np.int64 and draws.shape == (count,)
    assert draws.tolist() == expected
    assert batched.state == one_by_one.state
    assert batched.next_u64() == one_by_one.next_u64()


def test_xorshift_shuffle_deterministic():
    assert Xorshift64Star(7).shuffle(list(range(10))) == Xorshift64Star(7).shuffle(list(range(10)))


# --- single tree ---------------------------------------------------------------

def test_tree_single_label_is_leaf():
    X = np.array([[1.0, 2.0, 3.0]] * 6)
    y = np.ones(6, dtype=int)
    tree = train_tree(X, y)
    assert tree.n_nodes == 1
    assert tree.predict_one([9, 9, 9]) == 1


def test_tree_one_dimensional_split_at_midpoint():
    X = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    y = np.array([0, 1])
    tree = train_tree(X, y, min_leaf=1, max_depth=5)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.0
    assert tree.predict_one([1.9, 0, 0]) == 0
    assert tree.predict_one([2.1, 0, 0]) == 1


def test_tree_empty_training_set():
    with pytest.raises(EmptyTrainingSetError):
        train_tree(np.zeros((0, 3)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tree_matches_reference_learner(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 100, (50, 3))
    y = ((X[:, 0] + 0.5 * X[:, 1] > 70) | (X[:, 2] > 80)).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    tree = train_tree(X, y, min_leaf=3, max_depth=6)
    reference = ReferenceTree(X, y, min_leaf=3, max_depth=6)
    assert tree.predict(X).tolist() == reference.predict(X)


def _as_reference_nodes(tree, node=0):
    """A DecisionTree in ReferenceTree's nested-dict form."""
    if tree.feature[node] < 0:
        return {"vote": tree.leaf_vote(node)}
    return {
        "feature": tree.feature[node],
        "threshold": tree.threshold[node],
        "left": _as_reference_nodes(tree, tree.left[node]),
        "right": _as_reference_nodes(tree, tree.right[node]),
    }


def _tie_heavy(seed):
    """Integer features with many duplicates, rows repeated as a bootstrap repeats them."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, (40, 3)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1] > 5) ^ (rng.uniform(size=40) < 0.2)).astype(int)
    idx = rng.integers(0, 40, 60)
    return X[idx], y[idx]


@pytest.mark.parametrize("max_depth", [0, 2, 12])
@pytest.mark.parametrize("min_leaf", [1, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_presorted_tree_matches_reference_on_ties(seed, min_leaf, max_depth):
    X, y = _tie_heavy(seed)
    tree = train_tree(X, y, min_leaf=min_leaf, max_depth=max_depth)
    reference = ReferenceTree(X, y, min_leaf=min_leaf, max_depth=max_depth)
    assert _as_reference_nodes(tree) == reference.root


@pytest.mark.parametrize("min_leaf", [1, 7])
def test_bagged_trees_match_reference_on_their_bootstraps(min_leaf, monkeypatch):
    # Two trees' positions per pass, so the 7 trees grow in 4 groups.
    X, y = _tie_heavy(3)
    monkeypatch.setattr(ensemble, "_POSITIONS_PER_PASS", 2 * len(y))
    model = BaggedTreesClassifier(n_trees=7, seed=11, min_leaf=min_leaf, max_depth=4).fit(X, y)
    draws = Xorshift64Star(11).below_many(len(y), 7 * len(y)).reshape(7, len(y))
    assert len(model.trees_) == 7
    for tree, idx in zip(model.trees_, draws):
        reference = ReferenceTree(X[idx], y[idx], min_leaf=min_leaf, max_depth=4)
        assert _as_reference_nodes(tree) == reference.root


def test_tree_respects_max_depth():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (64, 3))
    y = rng.integers(0, 2, 64)
    tree = train_tree(X, y, min_leaf=1, max_depth=2)

    def depth(node, d=0):
        if tree.feature[node] < 0:
            return d
        return max(depth(tree.left[node], d + 1), depth(tree.right[node], d + 1))

    assert depth(0) <= 2


def test_tree_leaves_respect_min_leaf():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (80, 3))
    y = rng.integers(0, 2, 80)
    tree = train_tree(X, y, min_leaf=7, max_depth=10)
    for node in range(tree.n_nodes):
        if tree.feature[node] < 0:
            n0, n1 = tree.counts[node]
            assert n0 + n1 >= 7 or tree.n_nodes == 1


# --- bagging ----------------------------------------------------------------------

def test_bagged_same_seed_identical(tmp_path):
    X, y = _separable()
    a = BaggedTreesClassifier(n_trees=10, seed=5).fit(X, y)
    b = BaggedTreesClassifier(n_trees=10, seed=5).fit(X, y)
    save_model(a, tmp_path / "a")
    save_model(b, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_bagged_separable_training_accuracy():
    X, y = _separable(200)
    model = BaggedTreesClassifier(seed=0).fit(X, y)
    assert (model.predict(X) == y).mean() == 1.0


def test_bagged_single_tree_equals_bootstrap_tree():
    X, y = _separable(60)
    model = BaggedTreesClassifier(n_trees=1, seed=9).fit(X, y)
    rng = Xorshift64Star(9)
    idx = np.array([rng.below(len(y)) for _ in range(len(y))])
    expected = train_tree(X[idx], y[idx], min_leaf=5, max_depth=12)
    probe = np.random.default_rng(0).uniform(0, 5000, (100, 3))
    assert model.trees_[0].predict(probe).tolist() == expected.predict(probe).tolist()


# Recorded from the tree learner that sorted every feature at every node,
# before split search moved to presorted columns, and (the settings other
# than the default) from the recursive presorted grower before trees grew
# level by level: the models and the CV result must stay byte-identical.
_CORPUS5_MODEL_SHA256 = {
    "default": "0fa2eedee60c73d1af14934429783bd1afa2ec7ff9c1905fff0a2c7135b337c3",
    "n_trees=31": "e161d08db413257568ffcb02cdf2971964bdcef9257805f92ed8767aa74e4209",
    "min_leaf=1": "cffe8b9d92eb1e61910bb297c7bdeb517dba38ea06c060a569643176afa00cd6",
    "max_depth=0": "a7a5a73bb72e41550c822d2f248564023d7f3bd8d061db33b1781ef93136769f",
    "n_trees=17,seed=3,min_leaf=2,max_depth=6":
        "f9ddf7c5a5849e40c47016eb31c550df6665c5761f37e3cfb5b3e39d113efa53",
}
_CORPUS5_CV = {
    "fold_accuracies": [1.0, 1.0, 0.995, 1.0, 1.0, 0.995, 1.0, 1.0, 0.99, 1.0, 0.995, 1.0, 1.0,
                        1.0, 1.0],
    "mean_accuracy": 0.9983333333333333,
}


@pytest.fixture(scope="module")
def corpus5():
    X, y, _, _ = make_feature_corpus(3000, seed=5)
    return X, y


@pytest.mark.parametrize("settings", sorted(_CORPUS5_MODEL_SHA256))
def test_model_bytes_are_unchanged(settings, corpus5, tmp_path):
    params = {} if settings == "default" else {
        key: int(value) for key, value in (item.split("=") for item in settings.split(","))
    }
    save_model(BaggedTreesClassifier(**params).fit(*corpus5), tmp_path / "m.lctm")
    digest = hashlib.sha256((tmp_path / "m.lctm").read_bytes()).hexdigest()
    assert digest == _CORPUS5_MODEL_SHA256[settings]


def test_cv_result_is_unchanged(corpus5):
    assert cross_validate(*corpus5, k=15) == _CORPUS5_CV


@pytest.mark.parametrize("workers", [1, 2])
def test_fit_and_cross_validate_gives_the_model_and_cv_of_the_two_calls(corpus5, workers, tmp_path):
    model, cv = fit_and_cross_validate(*corpus5, k=15, workers=workers)
    assert cv == _CORPUS5_CV
    save_model(model, tmp_path / "m.lctm")
    digest = hashlib.sha256((tmp_path / "m.lctm").read_bytes()).hexdigest()
    assert digest == _CORPUS5_MODEL_SHA256["default"]


def test_fit_and_cross_validate_reports_the_final_fits_errors_first():
    X = np.random.default_rng(0).uniform(0, 1, (20, 3))
    with pytest.raises(SingleClassError, match="training data must contain both classes"):
        fit_and_cross_validate(X, np.zeros(20, dtype=int), k=5)
    with pytest.raises(EmptyTrainingSetError):
        fit_and_cross_validate(np.empty((0, 3)), np.empty(0), k=5)


def test_bagged_rejects_single_class():
    X = np.random.default_rng(0).uniform(0, 1, (10, 3))
    with pytest.raises(SingleClassError):
        BaggedTreesClassifier().fit(X, np.zeros(10, dtype=int))


def test_bagged_rejects_empty():
    with pytest.raises(EmptyTrainingSetError):
        BaggedTreesClassifier().fit(np.zeros((0, 3)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("settings, message", [
    (dict(min_leaf=0), "min_leaf must be >= 1, got 0"),
    (dict(min_leaf=-3), "min_leaf must be >= 1, got -3"),
    (dict(max_depth=-1), "max_depth must be >= 0, got -1"),
])
def test_bad_tree_settings_rejected_by_both_entry_points(settings, message):
    X, y, _, _ = make_feature_corpus(200, seed=1)
    with pytest.raises(ValueError, match=message):
        train_tree(X, y, **settings)
    with pytest.raises(ValueError, match=message):
        BaggedTreesClassifier(n_trees=3, **settings).fit(X, y)


_ROWS = np.random.default_rng(0).uniform(0, 1, (10, 3))
_LABELS = [0, 1] * 5

# fault: (X, y, settings, exception, message), the same at every entry point that trains.
_TRAINING_FAULTS = {
    "rows not 2-D": (np.ones(10), _LABELS, {}, ValueError,
                     r"X must be a 2-D array of feature rows, got an array of shape \(10,\)"),
    "width 6": (np.ones((10, 6)), _LABELS, {}, ValueError,
                r"expected rows of 3 features, got an array of shape \(10, 6\)"),
    "rows and labels differ": (_ROWS, _LABELS[:8], {}, LengthMismatchError,
                               "X has 10 rows but there are 8 labels"),
    "zero rows": (np.empty((0, 3)), [], {}, EmptyTrainingSetError, "cannot train on zero samples"),
    "label 2": (_ROWS, [0] * 5 + [2] * 5, {}, InputError, "label 2 at index 5 is not 0 or 1"),
    "label 0.5": (_ROWS, _LABELS[:3] + [0.5] + _LABELS[4:], {}, InputError,
                  "label 0.5 at index 3 is not 0 or 1"),
    "one class": (_ROWS, [0] * 10, {}, SingleClassError, "training data must contain both classes"),
    "n_trees 0": (_ROWS, _LABELS, {"n_trees": 0}, ValueError, "n_trees must be >= 1, got 0"),
    "min_leaf 0": (_ROWS, _LABELS, {"min_leaf": 0}, ValueError, "min_leaf must be >= 1, got 0"),
    "max_depth -1": (_ROWS, _LABELS, {"max_depth": -1}, ValueError, "max_depth must be >= 0, got -1"),
}
# evaluate pairs a prediction of 0 with each label: its own vectors' faults.
_EVALUATE_FAULTS = {
    "rows and labels differ": (LengthMismatchError, r"predictions \(\(10,\)\) and labels \(\(8,\)\) "
                               "must be equal-length non-empty vectors"),
    "zero rows": (LengthMismatchError, r"predictions \(\(0,\)\) and labels \(\(0,\)\) "
                  "must be equal-length non-empty vectors"),
    "label 2": (InputError, "label 2 at index 5 is not 0 or 1"),
    "label 0.5": (InputError, "label 0.5 at index 3 is not 0 or 1"),
}
_ENTRY_POINTS = {
    "train_tree": lambda X, y, **settings: train_tree(X, y, **settings),
    "fit": lambda X, y, **settings: BaggedTreesClassifier(**settings).fit(X, y),
    "cross_validate": lambda X, y, **settings: cross_validate(X, y, k=2, workers=2, **settings),
    "fit_and_cross_validate":
        lambda X, y, **settings: fit_and_cross_validate(X, y, k=2, workers=2, **settings),
    "evaluate": lambda X, y: evaluate(np.zeros(len(X), dtype=int), y),
}
# A single tree takes any width and one class, and has no n_trees.
_TREE_TAKES = {"width 6", "one class", "n_trees 0"}


@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry in _ENTRY_POINTS for fault in _TRAINING_FAULTS
    if (entry != "train_tree" or fault not in _TREE_TAKES)
    and (entry != "evaluate" or fault in _EVALUATE_FAULTS)
])
def test_each_input_fault_raises_one_exception_at_every_entry_point(entry, fault, monkeypatch):
    def no_pool(*args):
        raise AssertionError("faulty input reached the process pool")

    monkeypatch.setattr(ensemble, "map_tasks", no_pool)
    X, y, settings, exception, message = _TRAINING_FAULTS[fault]
    if entry == "evaluate":
        exception, message = _EVALUATE_FAULTS[fault]
    with pytest.raises(exception, match=message) as raised:
        _ENTRY_POINTS[entry](X, y, **settings)
    assert type(raised.value) is exception


def _probe_rows(model, X, seed):
    """Random rows around the training data, and rows that sit exactly on
    split thresholds (which route left) or hold NaN (which routes right)."""
    rng = np.random.default_rng(seed)
    lo, hi = X.min(axis=0), X.max(axis=0)
    rows = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (300, X.shape[1]))
    on_threshold = X[rng.integers(0, len(X), 50)].copy()
    for row in on_threshold:
        tree = model.trees_[rng.integers(len(model.trees_))]
        node = int(rng.integers(tree.n_nodes))
        if tree.feature[node] >= 0:
            row[tree.feature[node]] = tree.threshold[node]
    with_nan = X[:5].copy()
    with_nan[np.arange(5), np.arange(5) % X.shape[1]] = np.nan
    return np.vstack([rows, on_threshold, with_nan])


@pytest.mark.parametrize("seed", [0, 1])
def test_routed_predictions_match_the_one_row_walk(seed):
    X, y, _, _ = make_feature_corpus(600, seed=seed)
    model = BaggedTreesClassifier(n_trees=9, seed=seed, min_leaf=2).fit(X, y)
    probe = _probe_rows(model, X, seed)
    votes = np.array([sum(tree.predict_one(row) for tree in model.trees_) for row in probe])
    assert model.predict_confidence(probe).tolist() == (votes / 9).tolist()
    assert model.predict(probe).tolist() == (votes * 2 > 9).astype(int).tolist()
    for tree in model.trees_[:3]:
        assert tree.predict(probe).tolist() == [tree.predict_one(row) for row in probe]
    for row, expected in zip(probe[:40], votes[:40]):
        assert model.predict_one(row) == (int(expected * 2 > 9), expected / 9)


def test_routing_follows_trees_assigned_to_a_fitted_model():
    X, y, _, _ = make_feature_corpus(400, seed=3)
    model = BaggedTreesClassifier(n_trees=5, seed=1).fit(X, y)
    other = BaggedTreesClassifier(n_trees=3, seed=2, max_depth=2).fit(X, y)
    probe = _probe_rows(model, X, 3)
    model.predict(probe)  # routes through the fitted trees first
    model.trees_ = list(other.trees_)
    votes = np.array([sum(tree.predict_one(row) for tree in other.trees_) for row in probe])
    assert model.predict_confidence(probe).tolist() == (votes / 3).tolist()
    assert model.predict(probe).tolist() == other.predict(probe).tolist()
    # Hand-built trees: a stump on feature 2 and a two-level tree.
    stump = DecisionTree(feature=[2, -1, -1], threshold=[50.0, 0.0, 0.0], left=[1, -1, -1],
                         right=[2, -1, -1], counts=[None, (1, 4), (4, 1)])
    deep = DecisionTree(feature=[0, 1, -1, -1, -1], threshold=[1000.0, 100.0, 0.0, 0.0, 0.0],
                        left=[1, 2, -1, -1, -1], right=[4, 3, -1, -1, -1],
                        counts=[None, None, (0, 3), (3, 0), (2, 2)])
    model.trees_ = [stump, deep]
    rows = np.array([[999.0, 100.0, 50.0], [999.0, 101.0, 50.0], [1000.5, 0.0, 51.0]])
    assert model.predict_confidence(rows).tolist() == [1.0, 0.5, 0.0]
    assert model.predict_one(rows[0]) == (1, 1.0)


def test_fitted_and_loaded_trees_cannot_be_changed(tmp_path):
    X, y, _, _ = make_feature_corpus(300, seed=4)
    model = BaggedTreesClassifier(n_trees=3, seed=1).fit(X, y)
    save_model(model, tmp_path / "m.lctm")
    loaded = load_model(tmp_path / "m.lctm")
    probe = _probe_rows(model, X, 4)
    before = model.predict_confidence(probe).tolist()
    for tree in model.trees_ + loaded.trees_:
        for column in ("feature", "threshold", "left", "right", "counts"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tree, column, [])
            with pytest.raises(TypeError):
                getattr(tree, column)[0] = getattr(tree, column)[0]
    with pytest.raises(TypeError):
        model.trees_[0] = loaded.trees_[0]
    assert model.predict_confidence(probe).tolist() == before
    assert loaded.predict_confidence(probe).tolist() == before


def test_predict_vote_arithmetic():
    model = BaggedTreesClassifier(n_trees=3, seed=0)
    leaf1 = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[(0, 5)])
    leaf0 = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[(5, 0)])
    model.trees_ = [leaf1, leaf1, leaf0]
    label, confidence = model.predict_one(np.array([1.0, 2.0, 3.0]))
    assert (label, confidence) == (1, pytest.approx(2 / 3))


def test_predict_all_zero_votes():
    model = BaggedTreesClassifier(n_trees=2, seed=0)
    leaf0 = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[(5, 0)])
    model.trees_ = [leaf0, leaf0]
    assert model.predict_one([1, 1, 1]) == (0, 0.0)


def test_predict_tie_votes_zero():
    model = BaggedTreesClassifier(n_trees=2, seed=0)
    leaf1 = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[(0, 5)])
    leaf0 = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[(5, 0)])
    model.trees_ = [leaf1, leaf0]
    label, confidence = model.predict_one([1, 1, 1])
    assert (label, confidence) == (0, 0.5)


def test_phantom_tumour_features_classified_positive():
    X, y, _, _ = make_feature_corpus(500, seed=0)
    model = BaggedTreesClassifier(seed=0).fit(X, y)
    label, confidence = model.predict_one(np.array([1963.0, 115.0, 95.0]))
    assert label == 1
    assert confidence > 0.5


def test_confidence_is_vote_fraction(rng):
    X, y = _separable(100)
    model = BaggedTreesClassifier(n_trees=7, seed=0).fit(X, y)
    probe = rng.uniform(0, 5000, (200, 3))
    confidence = model.predict_confidence(probe)
    scaled = confidence * 7
    assert np.allclose(scaled, np.round(scaled))
    assert ((confidence >= 0) & (confidence <= 1)).all()


def test_affine_rescaling_keeps_labels(rng):
    X, y = _separable(150)
    scale = np.array([2.5, 0.7, 11.0])
    shift = np.array([100.0, -19.0, 3.0])
    a = BaggedTreesClassifier(seed=4).fit(X, y)
    b = BaggedTreesClassifier(seed=4).fit(X * scale + shift, y)
    probe = rng.uniform(-100, 6000, (300, 3))
    assert a.predict(probe).tolist() == b.predict(probe * scale + shift).tolist()


def test_monotone_rescaling_keeps_training_labels():
    X, y = _separable(150)
    transformed = np.power(X, 1.5)  # strictly monotone on positive features
    a = BaggedTreesClassifier(seed=4).fit(X, y)
    b = BaggedTreesClassifier(seed=4).fit(transformed, y)
    assert a.predict(X).tolist() == b.predict(transformed).tolist()


def test_get_set_params():
    model = BaggedTreesClassifier(n_trees=12, seed=3)
    assert model.get_params() == {"n_trees": 12, "seed": 3, "min_leaf": 5, "max_depth": 12}
    model.set_params(max_depth=4)
    assert model.max_depth == 4


# --- cross-validation ----------------------------------------------------------------

def test_cv_separable_is_perfect():
    X, y = _separable(150)
    result = cross_validate(X, y, k=5, seed=0)
    assert result["mean_accuracy"] == 1.0
    assert len(result["fold_accuracies"]) == 5


def test_cv_leave_one_out_structure():
    X, y = _separable(10)
    result = cross_validate(X, y, k=10, seed=0, n_trees=5)
    assert len(result["fold_accuracies"]) == 10
    assert set(result["fold_accuracies"]) <= {0.0, 1.0}


def test_cv_shuffled_labels_near_chance():
    X, y, _, _ = make_feature_corpus(300, seed=0)
    rng = np.random.default_rng(0)
    means = []
    for seed in range(5):
        shuffled = y.copy()
        rng.shuffle(shuffled)
        means.append(cross_validate(X, shuffled, k=10, seed=seed)["mean_accuracy"])
    assert 0.3 < float(np.mean(means)) < 0.7


def test_cv_too_many_folds():
    X, y = _separable(10)
    with pytest.raises(FoldTooSmallError):
        cross_validate(X, y, k=11, seed=0)


def test_cv_single_class():
    X = np.random.default_rng(0).uniform(0, 1, (20, 3))
    with pytest.raises(SingleClassError):
        cross_validate(X, np.zeros(20, dtype=int), k=5)


def test_cv_reproducible():
    X, y, _, _ = make_feature_corpus(120, seed=1)
    a = cross_validate(X, y, k=6, seed=3)
    b = cross_validate(X, y, k=6, seed=3)
    assert a == b


def test_cv_groups_never_split():
    X, y, _, _ = make_feature_corpus(60, seed=2)
    groups = [f"g{i // 4}" for i in range(60)]  # 15 groups of 4
    result = cross_validate(X, y, k=5, seed=0, groups=groups, n_trees=5)
    assert len(result["fold_accuracies"]) == 5
    with pytest.raises(FoldTooSmallError):
        cross_validate(X, y, k=16, seed=0, groups=groups)


# Recorded before folds were dealt from one group index. Every ninth label
# is flipped so that no fold scores 1.0, and the 60 ids repeat out of sorted
# order, so a fold dealt other rows scores differently.
_GROUPED_CV_FOLDS = [0.9344262295081968, 0.8983050847457628, 0.8833333333333333, 0.8,
                     0.8571428571428571, 0.8076923076923077, 0.8846153846153846]


def test_grouped_cv_fold_accuracies_are_unchanged():
    X, y, _, _ = make_feature_corpus(400, seed=3)
    y[::9] ^= 1
    groups = [f"p{(i * 37) % 60:02d}" for i in range(400)]
    result = cross_validate(X, y, k=7, seed=3, groups=groups, workers=1)
    assert result["fold_accuracies"] == _GROUPED_CV_FOLDS


@pytest.mark.parametrize("entry", ["cross_validate", "fit_and_cross_validate"])
def test_a_fold_whose_training_rows_hold_one_class_is_named(entry, monkeypatch):
    def no_pool(*args):
        raise AssertionError("a fold of one class reached the process pool")

    monkeypatch.setattr(ensemble, "map_tasks", no_pool)
    # Group "a" holds every positive: the fold that holds it out trains on negatives only.
    groups = ["a"] * 5 + ["b", "c", "d", "e", "f"]
    with pytest.raises(SingleClassError, match="^fold 2 of 2 trains on class 0 only: "
                       "training data must contain both classes$"):
        _ENTRY_POINTS[entry](_ROWS, [1] * 5 + [0] * 5, groups=groups, n_trees=3)


def test_cv_rejects_features_and_labels_of_different_lengths():
    X, y, _, _ = make_feature_corpus(200, seed=2)
    with pytest.raises(LengthMismatchError, match="150 rows but there are 200 labels"):
        cross_validate(X[:150], y, k=5)


def test_fit_rejects_a_width_other_than_the_three_features():
    X, y = _separable(60)
    wide = np.hstack([X, X])
    with pytest.raises(ValueError, match=r"rows of 3 features, got an array of shape \(60, 6\)"):
        BaggedTreesClassifier(n_trees=3).fit(wide, y)
    with pytest.raises(ValueError, match="rows of 3 features"):
        BaggedTreesClassifier(n_trees=3).fit(X[:, :2], y)
    assert train_tree(wide, y).n_nodes >= 1  # a single tree takes any width


@pytest.mark.parametrize("width", [2, 4])
def test_prediction_rejects_a_width_other_than_the_models(tmp_path, width):
    X, y = _separable(60)
    save_model(BaggedTreesClassifier(n_trees=3).fit(X, y), tmp_path / "m.lctm")
    rows = np.ones((5, width))
    for model in (BaggedTreesClassifier(n_trees=3).fit(X, y), load_model(tmp_path / "m.lctm")):
        for predict, arg in ((model.predict, rows), (model.predict_confidence, rows),
                             (model.predict_one, rows[0])):
            with pytest.raises(ValueError, match="rows of 3 features"):
                predict(arg)


# --- metrics ----------------------------------------------------------------------------

def _table3_vectors():
    predictions = [1] * 72 + [0] * 1 + [1] * 31 + [0] * 1616
    labels = [1] * 73 + [0] * 1647
    return predictions, labels


def test_evaluate_confusion_counts():
    metrics = evaluate(*_table3_vectors())
    assert metrics["confusion"] == (72, 1, 31, 1616)


def test_evaluate_reported_accuracy():
    metrics = evaluate(*_table3_vectors())
    assert round(metrics["accuracy"] * 100, 2) == 98.14
    assert round(metrics["sensitivity"] * 100, 2) == 98.63


def test_evaluate_all_correct():
    metrics = evaluate([0, 1, 0, 1], [0, 1, 0, 1])
    assert metrics["accuracy"] == 1.0
    assert metrics["sensitivity"] == 1.0
    assert metrics["specificity"] == 1.0


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatchError):
        evaluate([0, 1], [0])


@pytest.mark.parametrize(
    "predictions, labels, bad",
    [([1, 0], [1, 2], "label 2"), ([1, -1], [1, 0], "prediction -1"), ([3, 0], [1, 0], "prediction 3")],
)
def test_evaluate_rejects_values_outside_zero_and_one(predictions, labels, bad):
    with pytest.raises(InputError, match=bad):
        evaluate(predictions, labels)


# --- persistence --------------------------------------------------------------------------

def test_save_load_roundtrip_predictions(tmp_path, rng):
    X, y = _separable(120)
    model = BaggedTreesClassifier(seed=8).fit(X, y)
    path = tmp_path / "model.lctm"
    save_model(model, path)
    loaded = load_model(path)
    probe = rng.uniform(0, 6000, (1000, 3))
    assert model.predict(probe).tolist() == loaded.predict(probe).tolist()
    assert model.predict_confidence(probe).tolist() == loaded.predict_confidence(probe).tolist()
    assert loaded.get_params() == model.get_params()
    assert loaded.n_samples_ == 120
    again = tmp_path / "again.lctm"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _saved_model(tmp_path):
    """A fitted model's file bytes and the offset of tree 0's first node."""
    X, y = _separable(60)
    path = tmp_path / "model.lctm"
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), path)
    data = path.read_bytes()
    names_len = struct.unpack_from("<H", data, 32)[0]
    return path, bytearray(data), 34 + names_len + 4


@pytest.mark.parametrize("part", ["header", "names", "kind", "body"])
def test_load_truncated_file(tmp_path, part):
    path, data, first = _saved_model(tmp_path)
    # Cut inside the fixed header, inside the feature names, just before
    # tree 0's first kind byte, or inside that node's body.
    end = {"header": 20, "names": first - 10, "kind": first, "body": first + 6}[part]
    path.write_bytes(bytes(data[:end]))
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)


def test_load_zero_trees_rejected(tmp_path):
    names = b"size_px,mean_intensity,center_distance_px"
    path = tmp_path / "empty.lctm"
    path.write_bytes(
        MODEL_MAGIC + struct.pack("<I", 1) + struct.pack("<IqIIIH", 0, 0, 5, 12, 10, len(names)) + names
    )
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("names", [
    b"\xffize_px,mean_intensity,center_distance_px",
    b"mean_intensity,size_px,center_distance_px",  # the pipeline's features, swapped
    b"size_px,mean_intensity",
], ids=["non-ascii", "swapped", "two-names"])
def test_load_non_ascii_feature_names_rejected(tmp_path, names):
    # A model's rows must hold the pipeline's features, in the pipeline's order.
    path, data, first = _saved_model(tmp_path)
    data[32 : first - 4] = struct.pack("<H", len(names)) + names  # length, then the names
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


# A field of tree 0's root set to a value no saved model holds: (offset
# from the node's kind byte, struct format, value).
@pytest.mark.parametrize("offset, fmt, value", [
    (1, "<B", 3), (1, "<B", 7), (10, "<i", 0), (14, "<i", 0), (10, "<i", -1), (14, "<i", 10**6),
], ids=["feature-3", "feature-7", "left-self", "right-self", "left-negative", "right-past-end"])
def test_load_corrupt_split_node_rejected(tmp_path, offset, fmt, value):
    path, data, first = _saved_model(tmp_path)
    assert data[first] == 0  # the root is a split node
    struct.pack_into(fmt, data, first + offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("children", UNWALKABLE_TREES.values(), ids=UNWALKABLE_TREES.keys())
def test_load_tree_with_a_shared_or_orphaned_node_rejected(tmp_path, children):
    # Routing takes a tree's levels for a tree's: every node but the root is
    # the child of exactly one split node.
    path = tmp_path / "tree.lctm"
    path.write_bytes(one_tree_model([(1, 2), None, None]))
    assert load_model(path).trees_[0].left == (1, -1, -1)  # the hand-built layout loads
    path.write_bytes(one_tree_model(children))
    with pytest.raises(ModelFormatError, match="each node but the root must have exactly one parent"):
        load_model(path)


def test_load_unreadable_path_is_a_model_format_error(tmp_path):
    for path in (tmp_path / "missing.lctm", tmp_path):  # missing, and a folder
        with pytest.raises(ModelFormatError, match="cannot read model file"):
            load_model(path)


def test_load_version_bump(tmp_path):
    X, y = _separable(60)
    path = tmp_path / "model.lctm"
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), path)
    data = bytearray(path.read_bytes())
    data[4] += 1  # first byte of the little-endian version field
    path.write_bytes(bytes(data))
    with pytest.raises(ModelVersionError):
        load_model(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_trailing_garbage(tmp_path):
    X, y = _separable(60)
    path = tmp_path / "model.lctm"
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_model_file_starts_with_magic(tmp_path):
    X, y = _separable(60)
    path = tmp_path / "model.lctm"
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), path)
    assert path.read_bytes()[:4] == MODEL_MAGIC


def test_save_unfitted_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_model(BaggedTreesClassifier(), tmp_path / "x")
