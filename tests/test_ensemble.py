"""Trees, bagging, cross-validation, metrics and model persistence."""

import struct

import numpy as np
import pytest

from lungct.ensemble import (
    BaggedTreesClassifier,
    DecisionTree,
    MODEL_MAGIC,
    Xorshift64Star,
    cross_validate,
    evaluate,
    load_model,
    save_model,
    train_tree,
)
from lungct.errors import (
    EmptyTrainingSetError,
    FoldTooSmallError,
    LengthMismatchError,
    ModelFormatError,
    ModelVersionError,
    SingleClassError,
)
from lungct.phantom import make_feature_corpus

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


def test_bagged_rejects_single_class():
    X = np.random.default_rng(0).uniform(0, 1, (10, 3))
    with pytest.raises(SingleClassError):
        BaggedTreesClassifier().fit(X, np.zeros(10, dtype=int))


def test_bagged_rejects_empty():
    with pytest.raises(EmptyTrainingSetError):
        BaggedTreesClassifier().fit(np.zeros((0, 3)), np.zeros(0, dtype=int))


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


def test_load_non_ascii_feature_names_rejected(tmp_path):
    path, data, _ = _saved_model(tmp_path)
    data[34] = 0xFF  # first byte of the feature names
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
