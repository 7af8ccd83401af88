import numpy as np
import pytest

import oracles
from ecgemotion import forest
from ecgemotion.forest import (
    DecisionTree,
    ForestModel,
    _best_split,
    _dense_ranks,
    _grow_tree,
    generalization_error,
    load_model,
    margins,
    predict_forest_batch,
    save_model,
    train_forest,
    vote_matrix,
)
from ecgemotion.types import DataFormatError, Emotion, ParameterError


def full_sample_forest(x, y):
    """A one-tree forest grown on every row once, all features at each split."""
    n, d = x.shape
    ones = np.ones(n, dtype=np.int64)
    tree = _grow_tree(x, _dense_ranks(x), y, np.arange(n), ones, np.random.default_rng(0), d)
    return ForestModel([tree], d, d)


def test_single_perfect_split():
    x = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    model = full_sample_forest(x, y)
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert 0.0 < tree.threshold[0] < 1.0
    assert np.array_equal(predict_forest_batch(model, x), y)


def test_blob_accuracy(blob_data):
    x_train, y_train, x_test, y_test = blob_data
    model = train_forest(x_train, y_train, num_trees=90, seed=3)
    accuracy = np.mean(predict_forest_batch(model, x_test) == y_test)
    assert accuracy >= 0.97


def test_reference_configuration_trains():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 75))
    y = rng.integers(0, 4, size=60)
    model = train_forest(x, y, num_trees=90, seed=1)
    assert model.num_trees == 90
    assert model.feature_dim == 75
    assert model.features_per_split == 9  # ceil(sqrt(75))


def leaf_tree(code):
    counts = np.zeros((1, 4), dtype=np.int64)
    counts[0, code] = 1
    return DecisionTree(
        np.array([-1]), np.array([np.nan]), np.array([-1]), np.array([-1]), counts
    )


def test_two_tree_disagreement_breaks_to_lower_code():
    model = ForestModel([leaf_tree(1), leaf_tree(0)], 1, 3)
    assert Emotion(int(predict_forest_batch(model, np.zeros((1, 3)))[0])) is Emotion.HAPPY


def test_margin_bounds_and_value():
    unanimous = ForestModel([leaf_tree(2)] * 10, 1, 2)
    assert margins(unanimous, np.zeros((1, 2)), [2])[0] == 1.0
    assert margins(unanimous, np.zeros((1, 2)), [0])[0] == -1.0

    split = ForestModel([leaf_tree(0)] * 6 + [leaf_tree(1)] * 3 + [leaf_tree(2)], 1, 2)
    assert margins(split, np.zeros((1, 2)), [0])[0] == pytest.approx(0.6 - 0.3)


def test_generalization_error_definition(blob_data):
    x_train, y_train, x_test, y_test = blob_data
    model = train_forest(x_train, y_train, num_trees=30, seed=5)
    ge = generalization_error(model, (x_test, y_test))
    # independent recomputation, point by point, from raw vote counts
    negatives = 0
    for x, y in zip(x_test, y_test):
        votes = vote_matrix(model, x[None, :])[0] / model.num_trees
        true_frac = votes[y]
        others = np.delete(votes, y)
        negatives += (true_frac - others.max()) < 0
    assert ge == negatives / len(y_test)
    m = margins(model, x_test, y_test)
    accuracy = np.mean(predict_forest_batch(model, x_test) == y_test)
    assert accuracy >= 1.0 - ge - np.mean(m == 0)
    if not (m == 0).any():
        assert accuracy >= 1.0 - ge


def test_ge_extremes():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 2, 3])
    model = full_sample_forest(x, y)
    assert generalization_error(model, (x, y)) == 0.0
    wrong = (y + 1) % 4
    assert generalization_error(model, (x, wrong)) == 1.0


def test_prefix_stability(blob_data):
    x_train, y_train, _, _ = blob_data
    small = train_forest(x_train, y_train, num_trees=10, seed=3)
    large = train_forest(x_train, y_train, num_trees=40, seed=3)
    for a, b in zip(small.trees, large.trees[:10]):
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.class_counts, b.class_counts)


def exhaustive_best_split(x, y):
    """Brute-force search over all (feature, midpoint) candidates, mirroring
    the implementation's score formula and tie rule."""
    n = len(y)
    best = None
    for f in range(x.shape[1]):
        values = np.sort(np.unique(x[:, f]))
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = 0.5 * (lo + hi)
            left = x[:, f] <= threshold
            nl, nr = int(left.sum()), int(n - left.sum())
            lc = np.bincount(y[left], minlength=4)
            rc = np.bincount(y[~left], minlength=4)
            score = float((lc**2).sum()) / nl + float((rc**2).sum()) / nr
            if best is None or score > best[2]:
                best = (f, threshold, score)
    return best


def test_gini_split_matches_exhaustive_search():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        x = np.round(rng.normal(size=(n, 2)), 2)
        y = rng.integers(0, 4, size=n).astype(np.int64)
        if len(np.unique(y)) < 2:
            continue
        chosen = _best_split(x, _dense_ranks(x), np.arange(n), np.ones(n, dtype=np.int64), y, np.array([0, 1]))
        reference = exhaustive_best_split(x, y)
        if reference is None:
            assert chosen is None
            continue
        assert chosen is not None
        assert chosen[0] == reference[0]
        assert chosen[1] == pytest.approx(reference[1])


def assert_same_tree(tree, expected):
    assert np.array_equal(tree.feature, expected.feature)
    assert np.array_equal(tree.threshold, expected.threshold, equal_nan=True)
    assert np.array_equal(tree.left, expected.left)
    assert np.array_equal(tree.right, expected.right)
    assert np.array_equal(tree.class_counts, expected.class_counts)


def split_search_cases():
    """(x, y) sets that stress the ordering and tie rules of the search."""
    rng = np.random.default_rng(8)
    n = 90
    y = rng.integers(0, 4, size=n)
    normal = rng.normal(size=(n, 5)) + y[:, None] * 0.3
    copied = normal.copy()
    copied[:, 3] = copied[:, 1]  # equal scores: the lower feature must win
    constant = normal.copy()
    constant[:, [0, 2]] = 1.5
    zeros = normal.copy()
    zeros[:, 2] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    zeros[::7, 2] = 1.0
    quantized = np.round(normal * 2) / 2
    return [
        pytest.param(normal, y, id="normal"),
        pytest.param(copied, y, id="copied"),
        pytest.param(constant, y, id="constant"),
        pytest.param(zeros, y, id="signed-zeros"),
        pytest.param(quantized, y, id="quantized"),
    ]


@pytest.mark.parametrize("x,y", split_search_cases())
# the loop oracle's limits that grow a full-size tree, as the forest does
@pytest.mark.parametrize("min_leaf,max_depth", [(1, None)])
@pytest.mark.parametrize("features_per_split", [1, 5])
def test_rank_keyed_trees_equal_per_feature_loop(x, y, min_leaf, max_depth, features_per_split):
    ranks = _dense_ranks(x)
    for seed in range(3):
        sample = np.random.default_rng(seed).integers(0, len(y), size=len(y))  # bootstrap duplicates
        rows, weights = np.unique(sample, return_counts=True)
        tree = _grow_tree(x, ranks, y, rows, weights, np.random.default_rng(seed), features_per_split)
        # the loop grows over the expanded bootstrap, in draw order
        expected = oracles.grow_tree_loop(
            x[sample], y[sample], np.random.default_rng(seed), features_per_split, max_depth, min_leaf
        )
        assert_same_tree(tree, expected)


@pytest.mark.parametrize("features_per_split", [1, 3])
def test_heavily_duplicated_bootstrap_trees_equal_per_feature_loop(features_per_split):
    """40 draws from at most 8 distinct rows: most rows carry several draws,
    so leaf counts and split scores weigh each row by its draws."""
    rng = np.random.default_rng(30)
    x = np.round(rng.normal(size=(8, 3)), 1)
    x[:, 2] = np.round(x[:, 2])  # ties between distinct rows
    y = rng.integers(0, 4, size=8)
    ranks = _dense_ranks(x)
    for seed in range(6):
        sample = np.random.default_rng(seed).integers(0, 8, size=40)
        rows, weights = np.unique(sample, return_counts=True)
        assert weights.max() > 2
        tree = _grow_tree(x, ranks, y, rows, weights, np.random.default_rng(seed), features_per_split)
        expected = oracles.grow_tree_loop(
            x[sample], y[sample], np.random.default_rng(seed), features_per_split, None, 1
        )
        assert_same_tree(tree, expected)
        split = _best_split(x, ranks, rows, weights, y[rows], np.arange(3))
        assert split == oracles.best_split_loop(x[sample], y[sample], np.arange(3), 1)


def test_class_lanes_widen_past_16_bits():
    """One node of 70,000 draws, over 2^16 of them of the last class: four
    16-bit lanes would overflow, so the classes take two words of 17-bit lanes."""
    rng = np.random.default_rng(12)
    n = 70_000
    y = np.where(rng.random(n) < 0.96, 3, rng.integers(0, 3, size=n))
    x = np.round(y + rng.normal(scale=1.5, size=n), 2)[:, None]
    sample = rng.integers(0, n, size=n)
    rows, weights = np.unique(sample, return_counts=True)
    assert np.bincount(y[sample]).max() > 2**16
    ranks = _dense_ranks(x)
    split = _best_split(x, ranks, rows, weights, y[rows], np.array([0]))
    assert split == oracles.best_split_loop(x[sample], y[sample], np.array([0]), 1)
    tree = _grow_tree(x, ranks, y, rows, weights, np.random.default_rng(1), 1)
    assert_same_tree(tree, oracles.grow_tree_loop(x[sample], y[sample], np.random.default_rng(1), 1, None, 1))


def test_copied_column_tie_goes_to_lower_feature():
    x = np.array([[0.0, 5.0, 0.0], [1.0, 5.0, 1.0], [2.0, 5.0, 2.0], [3.0, 5.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    split = _best_split(x, _dense_ranks(x), np.arange(4), np.ones(4, dtype=np.int64), y, np.array([0, 1, 2]))
    assert split == oracles.best_split_loop(x, y, np.array([0, 1, 2]), 1)
    assert split[:2] == (0, 1.5)


def test_best_split_equals_per_feature_loop_on_node_subsets():
    rng = np.random.default_rng(4)
    x = np.round(rng.normal(size=(60, 6)), 1)
    x[:, 5] = np.where(x[:, 5] > 0, 0.0, -0.0)
    y = rng.integers(0, 4, size=60)
    ranks = _dense_ranks(x)
    for trial in range(40):
        size = int(rng.integers(2, 60))
        # odd trials: distinct rows; even trials: draws with replacement
        sample = rng.choice(60, size=size, replace=trial % 2 == 0)
        rows, weights = np.unique(sample, return_counts=True)
        chosen = np.sort(rng.choice(6, size=int(rng.integers(1, 7)), replace=False))
        got = _best_split(x, ranks, rows, weights, y[rows], chosen)
        assert got == oracles.best_split_loop(x[sample], y[sample], chosen, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_training_rows_rejected(bad):
    x = np.array([[0.0, 1.0], [1.0, bad], [2.0, 0.5]])
    y = np.array([0, 1, 2])
    with pytest.raises(ParameterError):
        train_forest(x, y, num_trees=2, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rows_rejected(bad):
    rng = np.random.default_rng(3)
    model = train_forest(rng.normal(size=(40, 3)), rng.integers(0, 4, 40), num_trees=3, seed=0)
    queries = np.zeros((3, 3))
    queries[1, 0] = bad
    with pytest.raises(ParameterError):
        predict_forest_batch(model, queries)


def test_vote_matrix_prefixes_equal_separate_counts(blob_data):
    x_train, y_train, x_test, _ = blob_data
    model = train_forest(x_train, y_train, num_trees=9, seed=2)
    counts = [4, 1, 9, 4, 20]
    stacked = vote_matrix(model, x_test, counts)
    assert stacked.shape == (5, len(x_test), 4)
    for count, votes in zip(counts, stacked):
        assert np.array_equal(votes, vote_matrix(model, x_test, count))
    assert np.array_equal(stacked[4], vote_matrix(model, x_test))
    for bad in ([3, 0], []):
        with pytest.raises(ParameterError):
            vote_matrix(model, x_test, bad)


def test_errors():
    with pytest.raises(ParameterError):
        train_forest(np.empty((0, 2)), np.empty(0, dtype=int), num_trees=5)
    x = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    with pytest.raises(ParameterError):
        train_forest(x, y, num_trees=0)
    with pytest.raises(ParameterError):
        train_forest(x, y, num_trees=1, features_per_split=5)
    model = train_forest(x, y, num_trees=1, seed=0)
    with pytest.raises(ParameterError):
        predict_forest_batch(model, np.zeros((3, 2)))


def test_model_file_roundtrip(tmp_path, blob_data):
    x_train, y_train, x_test, _ = blob_data
    model = train_forest(x_train, y_train, num_trees=12, seed=9)
    path = tmp_path / "model.forest"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.num_trees == 12
    assert np.array_equal(
        predict_forest_batch(loaded, x_test), predict_forest_batch(model, x_test)
    )
    assert np.array_equal(
        margins(loaded, x_test, np.zeros(len(x_test), dtype=int)),
        margins(model, x_test, np.zeros(len(x_test), dtype=int)),
    )


def test_legacy_oob_header_key_is_ignored(tmp_path, blob_data):
    # files of the earlier format carry an out-of-bag error in the header
    x_train, y_train, x_test, _ = blob_data
    path, legacy, again = (tmp_path / name for name in ("model.forest", "legacy.forest", "again.forest"))
    save_model(train_forest(x_train, y_train, num_trees=5, seed=9), path)
    header, body = path.read_text().split("\n", 1)
    legacy.write_text(f"{header} oob=0.25\n{body}")
    old = load_model(legacy)
    save_model(old, again)
    assert again.read_text() == path.read_text()
    assert np.array_equal(predict_forest_batch(old, x_test), predict_forest_batch(load_model(path), x_test))


def test_training_predicts_nothing(blob_data, monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree predicted while the forest trained")

    monkeypatch.setattr(forest, "tree_predict", refuse)
    x_train, y_train, _, _ = blob_data
    assert train_forest(x_train, y_train, num_trees=5, seed=3).num_trees == 5


@pytest.mark.parametrize(
    "header,nodes",
    [
        ("dim=1", ["n,0,0.5,0,0"]),  # a node that is its own child
        ("dim=2", ["n,7,0.5,1,2", "l,1,0,0,0", "l,0,1,0,0"]),  # feature out of range
        ("dim=2", ["n,0,0.5,1,3", "l,1,0,0,0", "l,0,1,0,0"]),  # child past the last node
        ("dim=2", ["l,1,0,0,0", "n,0,0.5,0,2", "l,0,1,0,0"]),  # child before its parent
        ("dim=1", ["l,99999999999999999999,0,0,0"]),  # a count past int64
        ("dim=1", ["n,-1,nan,-1,-1"]),  # a split row with a leaf's values
        ("dim=1", ["l,-5,0,0,0"]),  # a negative class count
        ("dim=1", ["l,0,0,0,0"]),  # a leaf that counts no draw
    ],
)
def test_malformed_node_layout_is_a_data_error(tmp_path, header, nodes):
    path = tmp_path / "model.forest"
    path.write_text(
        f"forest v1 trees=1 features_per_split=1 {header}\ntree 0 nodes={len(nodes)}\n"
        + "".join(line + "\n" for line in nodes)
    )
    with pytest.raises(DataFormatError):
        load_model(path)


def test_malformed_header_token_is_a_data_error(tmp_path):
    path = tmp_path / "model.forest"
    path.write_text("forest v1 trees=1 features_per_split=1 dim=2 oobX\n")
    with pytest.raises(DataFormatError):
        load_model(path)
