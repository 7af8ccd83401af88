"""K-nearest-neighbor classifier with four distance metrics.

Metrics: Euclidean, cosine distance (1 - cosine similarity), Minkowski of
order p, and a chi-square form adapted to signed features by using
|x_i| + |y_i| + eps in the denominator (the classical statistic assumes
non-negative histogram bins, which DCT coefficients are not). Minkowski and
chi-square distances are computed once per distinct (query, training) row
pair and gathered out to repeated rows; Euclidean and cosine come from one
matrix product over all rows, whose rounding depends on the matrix shape.

Neighbor ordering is stable: distance ties at the k-th rank go to the lower
training index. Label ties among the k neighbors go to the smaller summed
distance, then to the lower class code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features
from .types import NUM_CLASSES, ParameterError
from .utils import distinct_rows, fmt_float, pairwise_sq_dists, query_rows, read_model, training_rows
from .utils import write_model

METRICS = ("euclidean", "cosine", "minkowski", "chisquare")
CHI_SQUARE_EPS = 1e-12


def check_metric(metric: str, p: float) -> None:
    """A metric of ``METRICS``; Minkowski needs a finite order ``p >= 1`` (not NaN)."""
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "minkowski" and not 1 <= p < np.inf:
        raise ParameterError("minkowski order p must be finite and >= 1")


def _distance_matrix(metric: str, queries: np.ndarray, train: np.ndarray, p: float) -> np.ndarray:
    check_metric(metric, p)
    if metric == "euclidean":
        return np.sqrt(pairwise_sq_dists(queries, train))
    if metric == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        tn = np.linalg.norm(train, axis=1)
        if np.any(qn == 0.0) or np.any(tn == 0.0):
            raise ParameterError("cosine distance is undefined for zero vectors")
        return 1.0 - (queries @ train.T) / np.outer(qn, tn)
    # Elementwise metrics: each distinct (query, training) row pair once, one
    # distinct query row at a time through an (n_train, d) buffer, then
    # gathered out to the drawn rows. Each element and each row sum is
    # computed in the same order as by broadcasting over all rows, so the
    # matrix is the same to the bit; rows merged across a -0.0/0.0 give
    # equal elements, since every metric takes |q - t| or (q - t)^2 and |t|.
    q_first, q_copy, _ = distinct_rows(queries)
    t_first, t_copy, _ = distinct_rows(train)
    queries, train = queries[q_first], train[t_first]
    out = np.empty((len(queries), len(train)))
    buf = np.empty(train.shape)
    if metric == "minkowski":
        for i, q in enumerate(queries):
            np.subtract(q, train, out=buf)
            np.abs(buf, out=buf)
            np.power(buf, p, out=buf)
            np.sum(buf, axis=1, out=out[i])
        np.power(out, 1.0 / p, out=out)
    else:
        abs_train = np.abs(train)
        denom = np.empty(train.shape)
        for i, q in enumerate(queries):
            np.subtract(q, train, out=buf)
            np.square(buf, out=buf)
            np.add(np.abs(q), abs_train, out=denom)
            denom += CHI_SQUARE_EPS
            np.divide(buf, denom, out=buf)
            np.sum(buf, axis=1, out=out[i])
    out = np.take(out, t_copy, axis=1)
    return np.take(out, q_copy, axis=0)


@dataclass(eq=False)
class KnnModel:
    train_x: np.ndarray
    train_y: np.ndarray
    k: int
    metric: str = "euclidean"
    p: float = 2.0

    def __post_init__(self):
        self.train_x, self.train_y = training_rows(self.train_x, self.train_y)
        if not 1 <= self.k <= len(self.train_y):
            raise ParameterError(f"k must lie in [1, {len(self.train_y)}]")
        check_metric(self.metric, self.p)


def nearest(dists: np.ndarray, kmax: int) -> np.ndarray:
    """Column indices of each row's ``kmax`` smallest distances, nearest
    first, equal distances in index order: the first ``kmax`` columns of
    ``np.argsort(dists, axis=1, kind="stable")``, without sorting the rest.

    A partition finds each row's ``kmax``-th smallest value; every entry up
    to it (ties at that rank included) is a candidate, and only the
    candidates are sorted, stably, by row and distance.
    """
    rows_n, cols_n = dists.shape
    kmax = min(kmax, cols_n)
    kth = np.partition(dists, kmax - 1, axis=1)[:, kmax - 1, None]
    rows, cols = np.nonzero(dists <= kth)
    per_row = np.bincount(rows, minlength=rows_n)
    if per_row.min(initial=kmax) < kmax:  # NaN distances compare false
        return np.argsort(dists, axis=1, kind="stable")[:, :kmax]
    order = np.lexsort((dists[rows, cols], rows))  # candidates come in column order
    first = np.cumsum(per_row) - per_row
    return cols[order][first[:, None] + np.arange(kmax)]


def _vote(sorted_labels: np.ndarray, sorted_dists: np.ndarray, k: int) -> int:
    labels = sorted_labels[:k]
    dists = sorted_dists[:k]
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    top = counts.max()
    tied = np.flatnonzero(counts == top)
    if len(tied) == 1:
        return int(tied[0])
    sums = np.array([dists[labels == c].sum() for c in tied])
    return int(tied[sums.argmin()])  # argmin keeps the lowest code on equal sums


# np.sum adds fewer terms than this one after another; from this many on it
# sums in pairs, which a running sum does not reproduce.
_SEQUENTIAL_SUM_TERMS = 8


def votes(sorted_labels: np.ndarray, sorted_dists: np.ndarray, ks) -> np.ndarray:
    """The ``_vote`` rule for every k in ``ks`` at once.

    Row i's neighbors, nearest first, have labels ``sorted_labels[i]`` and
    distances ``sorted_dists[i]``. Returns a (len(ks), rows) array of class
    codes. Per-class counts and distance sums are running totals over the
    neighbor order, so every k reads them off one prefix. Ties on the count
    go to the smaller sum, then to the lower code. A running sum is
    ``_vote``'s sum while the tied count is under 8; rows tied at a count
    of 8 or more are decided by ``_vote`` itself.
    """
    rows_n, kmax = sorted_labels.shape
    onehot = sorted_labels[:, :, None] == np.arange(NUM_CLASSES)
    counts = np.cumsum(onehot, axis=1)
    sums = np.cumsum(np.where(onehot, sorted_dists[:, :, None], 0.0), axis=1)
    out = np.empty((len(ks), rows_n), dtype=np.int64)
    for j, k in enumerate(ks):
        col = min(k, kmax) - 1
        count, total = counts[:, col], sums[:, col]
        top = count.max(axis=1, keepdims=True)
        tied = count == top
        least = np.where(tied, total, np.inf).min(axis=1, keepdims=True)
        out[j] = np.argmax(tied & (total == least), axis=1)
        long_ties = (tied.sum(axis=1) > 1) & (top[:, 0] >= _SEQUENTIAL_SUM_TERMS)
        for row in np.flatnonzero(long_ties):
            out[j, row] = _vote(sorted_labels[row], sorted_dists[row], k)
    return out


def classify(dists: np.ndarray, train_y: np.ndarray, ks) -> np.ndarray:
    """Class codes of every query row (rows of ``dists``) for every k in
    ``ks``, shape (len(ks), rows): one neighbor ranking serves all k."""
    if min(ks) < 1 or max(ks) > len(train_y):
        raise ParameterError(f"k must lie in [1, {len(train_y)}]")
    order = nearest(dists, max(ks))
    return votes(train_y[order], np.take_along_axis(dists, order, axis=1), ks)


def predict_knn_batch(model: KnnModel, x) -> np.ndarray:
    x = query_rows(x, model.train_x.shape[1])
    dists = _distance_matrix(model.metric, x, model.train_x, model.p)
    return classify(dists, model.train_y, [model.k])[0]


def save_model(model: KnnModel, path) -> None:
    p = {"p": fmt_float(model.p)} if model.metric == "minkowski" else {}
    body = features.features_csv(model.train_x, model.train_y)
    write_model(path, "knn", body, k=model.k, metric=model.metric, **p)


def load_model(path) -> KnnModel:
    return read_model(path, "knn", lambda fh, path, fields: KnnModel(
        *features.read_features(fh, path, 2), int(fields["k"]), fields["metric"], float(fields.get("p", 2.0))
    ))
