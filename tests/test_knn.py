import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgemotion import knn
from ecgemotion.knn import (
    KnnModel,
    load_model,
    nearest,
    predict_knn_batch,
    save_model,
    votes,
)
from ecgemotion.types import DataFormatError, Emotion, ParameterError

import oracles


def distance(metric, x, y, p=2.0):
    """One entry of the production distance matrix, for two vectors."""
    rows = [np.asarray(v, dtype=np.float64)[None, :] for v in (x, y)]
    return knn._distance_matrix(metric, *rows, p)[0, 0]


def test_euclidean_3_4_5():
    assert distance("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_minkowski_p1():
    assert distance("minkowski", [0.0, 0.0], [1.0, 2.0], p=1) == 3.0


# Euclidean is left out: its Gram form sqrt(|x|^2 + |y|^2 - 2 x.y) rounds,
# so a row's distance to its own copy can be well above 1e-12.
@pytest.mark.parametrize("metric", ["cosine", "minkowski", "chisquare"])
def test_identity_of_indiscernibles(metric):
    x = np.array([1.0, -2.0, 0.5])
    for p in (1.0, 2.0, 3.0) if metric == "minkowski" else (2.0,):
        assert distance(metric, x, x, p) == pytest.approx(0.0, abs=1e-12)


def test_cosine_zero_vector_errors():
    with pytest.raises(ParameterError):
        distance("cosine", np.zeros(3), np.ones(3))


def test_distance_errors():
    with pytest.raises(ParameterError):
        distance("minkowski", np.zeros(3), np.ones(3), p=0.5)
    with pytest.raises(ParameterError):
        distance("mahalanobis", np.zeros(3), np.ones(3))
    with pytest.raises(ParameterError):  # not an all-NaN matrix
        distance("minkowski", np.zeros(3), np.ones(3), p=np.nan)
    with pytest.raises(ParameterError):  # not an all-ones matrix
        distance("minkowski", np.zeros(3), np.ones(3), p=np.inf)


vectors = arrays(np.float64, 4, elements=st.floats(-50, 50, allow_nan=False))


@settings(max_examples=50, deadline=None)
@given(x=vectors, y=vectors, z=vectors)
def test_metric_axioms_euclidean_minkowski(x, y, z):
    # Minkowski p = 2 is the Euclidean distance summed elementwise; the Gram
    # form the "euclidean" metric uses is not exact enough for 1e-12
    for p in (1.0, 2.0, 3.0):
        dxy = distance("minkowski", x, y, p)
        assert dxy >= 0.0
        assert dxy == pytest.approx(distance("minkowski", y, x, p), abs=1e-12)
        assert dxy <= distance("minkowski", x, z, p) + distance("minkowski", z, y, p) + 1e-12


def test_k1_returns_training_label(blob_data):
    x_train, y_train, _, _ = blob_data
    model = KnnModel(x_train, y_train, 1)
    assert predict_knn_batch(model, x_train[123:124])[0] == y_train[123]


def test_fig8_geometry_k3_vs_k5():
    # two "square" points nearest, then three "hexagon" points: k=3 picks the
    # squares' class, k=5 flips to the hexagons' class
    train = np.array(
        [[1.0, 0.0], [0.0, 1.2], [1.5, 0.0], [0.0, -1.6], [-1.7, 0.0], [3.0, 3.0], [4.0, 4.0]]
    )
    labels = np.array([2, 2, 3, 3, 3, 0, 1])
    query = np.zeros((1, 2))
    assert predict_knn_batch(KnnModel(train, labels, 3), query)[0] == Emotion.CALM
    assert predict_knn_batch(KnnModel(train, labels, 5), query)[0] == Emotion.TENSE


def test_blob_accuracy(blob_data):
    x_train, y_train, x_test, y_test = blob_data
    model = KnnModel(x_train, y_train, 3)
    assert np.mean(predict_knn_batch(model, x_test) == y_test) >= 0.97


def test_k_equals_n_gives_majority_class():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 2))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
    model = KnnModel(x, y, 10)
    assert np.all(predict_knn_batch(model, rng.normal(size=(5, 2)) * 10) == 0)


def test_distance_tie_at_kth_rank_prefers_lower_index():
    train = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 2])
    # both index 0 and index 1 sit at distance 1; k = 1 keeps index 0
    model = KnnModel(train, labels, 1)
    assert predict_knn_batch(model, np.zeros((1, 2)))[0] == 0


def test_label_tie_prefers_smaller_summed_distance():
    train = np.array([[1.0, 0.0], [-2.2, 0.0], [0.0, 1.5], [0.0, -1.5]])
    labels = np.array([0, 0, 1, 1])
    # k=4: classes 0 and 1 tie 2-2; class 1 has summed distance 3.0 < 3.2
    model = KnnModel(train, labels, 4)
    assert predict_knn_batch(model, np.zeros((1, 2)))[0] == 1


def test_permutation_invariance_general_position():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 4, size=40)
    queries = rng.normal(size=(10, 3))
    base = predict_knn_batch(KnnModel(x, y, 5), queries)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(40)
        shuffled = predict_knn_batch(KnnModel(x[perm], y[perm], 5), queries)
        assert np.array_equal(base, shuffled)


def test_model_invariants():
    x = np.zeros((3, 2))
    with pytest.raises(ParameterError):
        KnnModel(x, np.array([0, 1, 2]), 0)
    with pytest.raises(ParameterError):
        KnnModel(x, np.array([0, 1, 2]), 4)
    with pytest.raises(ParameterError):
        KnnModel(x, np.array([0, 1, 2]), 2, metric="hamming")
    with pytest.raises(ParameterError):
        KnnModel(x, np.array([0, 1, 2]), 2, metric="minkowski", p=np.nan)
    model = KnnModel(np.ones((3, 2)), np.array([0, 1, 2]), 2)
    with pytest.raises(ParameterError):
        predict_knn_batch(model, np.ones((2, 5)))


def test_model_file_roundtrip(tmp_path, blob_data):
    x_train, y_train, x_test, _ = blob_data
    model = KnnModel(x_train[:40], y_train[:40], 3, metric="minkowski", p=3.0)
    path = tmp_path / "model.knn"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.k == 3 and loaded.metric == "minkowski" and loaded.p == 3.0
    assert np.array_equal(loaded.train_x, model.train_x)
    assert np.array_equal(
        predict_knn_batch(loaded, x_test), predict_knn_batch(model, x_test)
    )


def test_malformed_header_token_is_a_data_error(tmp_path):
    path = tmp_path / "model.knn"
    path.write_text("knn v1 k=3 metricX\nlabel,f1\n0,1.0\n")
    with pytest.raises(DataFormatError):
        load_model(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad):
    x = np.arange(12, dtype=float).reshape(6, 2)
    y = np.array([0, 1, 2, 3, 0, 1])
    poisoned = x.copy()
    poisoned[2, 1] = bad
    with pytest.raises(ParameterError):
        KnnModel(poisoned, y, 1)
    model = KnnModel(x, y, 3)
    with pytest.raises(ParameterError):
        predict_knn_batch(model, poisoned)


def _features(rng, rows, dim=75):
    return rng.normal(0.0, 3.0, (rows, dim))


@pytest.mark.parametrize(
    "metric,p",
    [("euclidean", 2.0), ("cosine", 2.0), ("chisquare", 2.0)]
    + [("minkowski", p) for p in (1.0, 1.5, 2.0, 3.0)],
)
@pytest.mark.parametrize("queries", [1, 129])
def test_distance_matrix_equals_chunked_broadcast(metric, p, queries):
    rng = np.random.default_rng(queries)
    x, train = _features(rng, queries), _features(rng, 300)
    assert np.array_equal(
        knn._distance_matrix(metric, x, train, p),
        oracles.chunked_distance_matrix(metric, x, train, p),
    )

    # duplicated rows: both sides drawn with replacement from a small pool,
    # pool row 1 repeated 50 times with every label, and pool row 2 equal to
    # row 1 but for -0.0 where row 1 has 0.0
    pool = _features(rng, 12)
    pool[1, ::3] = 0.0
    pool[2] = pool[1]
    pool[2, ::3] = -0.0
    x = pool[np.concatenate([[2], rng.integers(0, len(pool), queries - 1)])]
    picks = np.concatenate([rng.integers(0, len(pool), 250), [1] * 50, [2, 1, 2]])
    order = rng.permutation(len(picks))
    train = pool[picks[order]]
    y = np.where(picks == 1, np.arange(len(picks)) % 4, rng.integers(0, 4, len(picks)))[order]
    expected = oracles.chunked_distance_matrix(metric, x, train, p)
    assert np.array_equal(knn._distance_matrix(metric, x, train, p), expected)
    for k in (1, 5, 60):
        model = KnnModel(train, y, k, metric=metric, p=p)
        assert np.array_equal(predict_knn_batch(model, x), oracles.knn_labels_loop(expected, y, k))


@pytest.mark.parametrize("kmax", [1, 2, 7, 30, 59, 60, 100])
def test_nearest_equals_stable_argsort_with_ties(kmax):
    # few distinct values: many rows tie at the k-th rank
    dists = np.random.default_rng(kmax).integers(0, 6, (40, 60)).astype(float)
    expected = np.argsort(dists, axis=1, kind="stable")[:, :kmax]
    assert np.array_equal(nearest(dists, kmax), expected)


def test_nearest_with_nan_distances_equals_stable_argsort():
    dists = np.random.default_rng(2).random((5, 8))
    dists[1, :6] = np.nan
    dists[3, 2] = np.nan
    expected = np.argsort(dists, axis=1, kind="stable")[:, :4]
    assert np.array_equal(nearest(dists, 4), expected)


def test_votes_equal_per_row_vote_with_long_ties():
    # two classes; the first 16 and the next 24 neighbors each split evenly,
    # the two classes' distances being the same values in another order:
    # at k = 16 and k = 40 the tied sums (8 and 20 terms) are equal but for
    # rounding, which np.sum's pairwise order decides
    rng = np.random.default_rng(0)
    rows = 300
    labels = np.empty((rows, 40), dtype=np.int64)
    dists = np.empty((rows, 40))
    for row in range(rows):
        for block in (slice(0, 16), slice(16, 40)):
            size = block.stop - block.start
            block_labels = rng.permutation(np.arange(size) % 2)
            shared = rng.uniform(0.1, 10.0, size // 2)
            block_dists = np.empty(size)
            block_dists[block_labels == 0] = rng.permutation(shared)
            block_dists[block_labels == 1] = rng.permutation(shared)
            labels[row, block] = block_labels
            dists[row, block] = block_dists
    ks = list(range(1, 41))
    expected = [[oracles.vote(labels[r], dists[r], k) for r in range(rows)] for k in ks]
    assert np.array_equal(votes(labels, dists, ks), expected)


def test_votes_k_beyond_neighbors_uses_all():
    labels = np.array([[1, 0, 0]])
    dists = np.array([[0.1, 0.5, 0.6]])
    assert votes(labels, dists, [1, 3, 10]).tolist() == [[1], [0], [0]]


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "minkowski", "chisquare"])
def test_predict_batch_equals_row_loop(metric):
    # integer features put many training rows at equal distances
    rng = np.random.default_rng(5)
    x_train = rng.integers(-2, 3, (200, 3)).astype(float)
    y_train = rng.integers(0, 4, 200)
    x_test = rng.integers(-2, 3, (60, 3)).astype(float)
    x_train[np.all(x_train == 0, axis=1)] = 1.0  # cosine needs nonzero vectors
    x_test[np.all(x_test == 0, axis=1)] = 1.0
    for k in (1, 4, 9, 20, 200):
        model = KnnModel(x_train, y_train, k, metric=metric, p=3.0)
        dists = oracles.chunked_distance_matrix(metric, x_test, x_train, 3.0)
        assert np.array_equal(
            predict_knn_batch(model, x_test), oracles.knn_labels_loop(dists, y_train, k)
        )
