"""Bagged decision-tree ensemble with voting margins.

Each tree is grown to full size, unpruned, on an n-sample bootstrap, as in
Breiman's random forest: a node splits unless it is pure or none of its
sampled features varies on it. At every split a random subset of features
is considered and the split maximizing the Gini impurity decrease is taken
(candidate thresholds at midpoints of consecutive sorted unique values).
A tree is grown over its bootstrap's distinct rows, each weighted by its
number of draws (about 37% of the draws repeat a row). A node orders all
its sampled features with one sort of integer keys (the value's dense rank
in its training column, then the row's position), the order a stable sort
of the values gives, and counts classes with one cumulative sum of draw
weights packed into per-class bit lanes; so the trees equal those of a
per-feature stable argsort search over the expanded bootstrap. Training
rows and the rows it predicts must be finite. Per-tree seeds derive from
the master seed by tree index, so growing a larger forest never changes
the trees already built: the learning-cycle sweep evaluates sub-ensembles
of one forest.

The voting margin of a point is the fraction of trees voting its true class
minus the largest fraction voting any other class; the generalization error
of a data set is the fraction of points with a negative margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .types import DataFormatError, NUM_CLASSES, ParameterError
from .utils import block_values, csv_text, query_rows, read_model, read_rows, training_rows
from .utils import write_model

DEFAULT_NUM_TREES = 90


@dataclass(eq=False)
class DecisionTree:
    """Flat pre-order node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_counts: np.ndarray  # (nodes, NUM_CLASSES); nonzero only at leaves

    @property
    def num_nodes(self) -> int:
        return len(self.feature)


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Dense ranks, ``(d, n)``: row ``f`` ranks each value of column ``f`` among its distinct values."""
    return np.stack([np.unique(column, return_inverse=True)[1] for column in x.T], dtype=np.int64)


def _best_split(x, ranks, rows, weights, y, feature_ids):
    """Best (feature, threshold, score) over the sampled features of the node
    holding the distinct ``rows`` of ``x``, drawn ``weights`` times each;
    ``ranks`` are ``_dense_ranks(x)`` and ``y`` the rows' labels.

    One sort orders every sampled feature: the keys ``rank << s | position``
    (position within ``rows``) are unique and order the node's values as a
    stable sort of the values would; a row's draws share its value, so the
    cuts between distinct rows are those of the expanded bootstrap. Score is
    sum(L_c^2)/n_left + sum(R_c^2)/n_right for class counts L and R, an
    affine transform of the negated weighted Gini impurity; computed from
    exact integers, so ties resolve identically in any evaluation order. The
    first maximum in (feature, position) order wins; None if no sampled feature
    varies on the node.

    One cumsum of weights in per-class bit lanes of an int64 (as wide as the
    node's draw count needs; more words when four lanes do not fit) gives k,
    the left count of each row's class; the row adds w * (2k - w) to
    sum(L_c^2), and sum(R_c^2) = sum(T_c^2) - 2 sum(T_c L_c) + sum(L_c^2).
    """
    m, n = len(rows), ranks.shape[1]
    s = (m - 1).bit_length()
    keys = ranks.take(feature_ids[:, None] * n + rows) << s
    keys |= np.arange(m)
    keys.sort(axis=1)
    pos = keys & ((1 << s) - 1)
    keys >>= s
    w = weights[pos]
    n_left = np.add.accumulate(w, axis=1)[:, :-1]
    total = int(n_left[0, -1] + w[0, -1])
    # cut j puts sorted rows 0..j on the left, so each side holds a draw
    invalid = keys[:, :-1] == keys[:, 1:]

    bits = total.bit_length()
    lanes = 63 // bits  # sign bit left clear
    shift = y % lanes * bits
    inc = weights << shift
    if lanes >= NUM_CLASSES:
        own = np.add.accumulate(inc[pos], axis=1)
    else:  # word g packs classes g * lanes to (g + 1) * lanes - 1
        word = y // lanes
        packed = [np.where(word == g, inc, 0)[pos] for g in range(-(-NUM_CLASSES // lanes))]
        own = np.choose(word[pos], np.add.accumulate(packed, axis=2))
    own = (own >> shift[pos]) & ((1 << bits) - 1)
    left_sq = np.add.accumulate(w * (2 * own - w), axis=1)
    counts = np.bincount(y, weights, minlength=NUM_CLASSES).astype(np.int64)
    cross = np.add.accumulate((counts[y] * weights)[pos], axis=1)
    right_sq = left_sq[:, -1:] - 2 * cross + left_sq  # left_sq[:, -1] is sum(T_c^2)
    scores = left_sq[:, :-1] / n_left
    scores += right_sq[:, :-1] / (total - n_left)
    scores[invalid] = -np.inf
    k, cut = divmod(int(scores.argmax()), m - 1)
    if scores[k, cut] == -np.inf:
        return None
    f = int(feature_ids[k])
    threshold = 0.5 * (x[rows[pos[k, cut]], f] + x[rows[pos[k, cut + 1]], f])
    return f, float(threshold), float(scores[k, cut])


def _grow_tree(x, ranks, y, rows, weights, rng, features_per_split):
    """Grow one full-size tree on a bootstrap given as its distinct ``rows``
    of ``x`` and their draw counts ``weights``; leaf counts and purity count
    draws. Nodes index ``x`` through subsets of ``rows``, so no per-tree copy
    of ``x`` or ``ranks`` is made."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    d = x.shape[1]
    m = min(features_per_split, d)
    # stack holds (row_indices, weights, parent_node, is_left_child)
    stack = [(rows, weights, -1, False)]
    while stack:
        rows, weights, parent, is_left = stack.pop()
        node = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node

        y_node = y[rows]
        node_counts = np.bincount(y_node, weights, minlength=NUM_CLASSES).astype(np.int64)
        tallies = node_counts.tolist()
        split = None
        if max(tallies) < sum(tallies):  # not pure
            chosen = np.sort(rng.choice(d, size=m, replace=False))
            split = _best_split(x, ranks, rows, weights, y_node, chosen)

        f, thr = split[:2] if split else (-1, np.nan)
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        counts.append(np.zeros(NUM_CLASSES, dtype=np.int64) if split else node_counts)
        if split:
            go_left = x[rows, f] <= thr
            # push right first so the left subtree is laid out next (pre-order)
            stack.append((rows[~go_left], weights[~go_left], node, False))
            stack.append((rows[go_left], weights[go_left], node, True))

    return DecisionTree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.stack(counts),
    )


def tree_apply(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    """Leaf index reached by each row."""
    node = np.zeros(len(x), dtype=np.int64)
    while True:
        internal = tree.feature[node] >= 0
        if not internal.any():
            return node
        rows = np.flatnonzero(internal)
        at = node[rows]
        go_left = x[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])


def tree_predict(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    leaves = tree_apply(tree, np.atleast_2d(x))
    return tree.class_counts[leaves].argmax(axis=1)


@dataclass(eq=False)
class ForestModel:
    trees: list
    features_per_split: int
    feature_dim: int

    @property
    def num_trees(self) -> int:
        return len(self.trees)


def check_params(num_trees: int, features_per_split: int | None, d: int):
    """The forest settings for ``d`` features; ``None`` selects the default
    features per split, ceil(sqrt(d))."""
    if num_trees < 1:
        raise ParameterError("num_trees must be >= 1")
    if features_per_split is not None and not 1 <= features_per_split <= d:
        raise ParameterError(f"features_per_split must lie in [1, {d}]")


def train_forest(
    x,
    y,
    num_trees: int = DEFAULT_NUM_TREES,
    features_per_split: int | None = None,
    seed: int = 0,
) -> ForestModel:
    """Grow a bagged forest, each tree on its own n-draw bootstrap. It
    estimates no out-of-bag error: rows drawn with replacement from a pool of
    segments repeat, so most rows out of a bootstrap copy rows in it."""
    x, y = training_rows(x, y)
    d = x.shape[1]
    check_params(num_trees, features_per_split, d)
    if features_per_split is None:
        features_per_split = int(np.ceil(np.sqrt(d)))

    n = len(y)
    ranks = _dense_ranks(x)
    trees = []
    for rng in map(np.random.default_rng, np.random.SeedSequence(seed).spawn(num_trees)):
        rows, weights = np.unique(rng.integers(0, n, size=n), return_counts=True)
        trees.append(_grow_tree(x, ranks, y, rows, weights, rng, features_per_split))
    return ForestModel(trees, features_per_split, d)


def vote_matrix(model: ForestModel, x, num_trees: int | list[int] | None = None) -> np.ndarray:
    """Per-class vote counts, rows matching ``x``; optionally only the first
    ``num_trees`` trees (sub-ensemble evaluation for the learning-cycle sweep).
    A sequence of counts gives one matrix per count, stacked, while each tree
    predicts ``x`` once."""
    x = query_rows(x, model.feature_dim)
    counts = np.atleast_1d(model.num_trees if num_trees is None else num_trees)
    counts = np.minimum(counts, model.num_trees)
    if not counts.size or (counts < 1).any():
        raise ParameterError("no trees selected")
    votes = np.zeros((len(x), NUM_CLASSES), dtype=np.int64)
    prefixes = np.empty((len(counts), len(x), NUM_CLASSES), dtype=np.int64)
    for used, tree in enumerate(model.trees[: counts.max()], start=1):
        predictions = tree_predict(tree, x)
        votes[np.arange(len(x)), predictions] += 1
        prefixes[counts == used] = votes
    return prefixes if np.ndim(num_trees) else prefixes[0]


def predict_forest_batch(model: ForestModel, x) -> np.ndarray:
    return vote_matrix(model, x).argmax(axis=1)


def margins(model: ForestModel, x, y_true) -> np.ndarray:
    """Voting margins in [-1, 1] for a batch of labeled points."""
    return vote_margins(vote_matrix(model, x), y_true)


def vote_margins(votes: np.ndarray, y_true) -> np.ndarray:
    """Voting margins of per-class vote counts (``vote_matrix`` rows)."""
    votes = votes.astype(np.float64)
    fractions = votes / votes.sum(axis=1, keepdims=True)
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    true_frac = fractions[np.arange(len(y_true)), y_true]
    fractions[np.arange(len(y_true)), y_true] = -np.inf
    other_frac = fractions.max(axis=1)
    return true_frac - other_frac


def vote_error(votes: np.ndarray, y_true) -> float:
    """Fraction of points whose voting margin is negative."""
    return float(np.mean(vote_margins(votes, y_true) < 0))


def generalization_error(model: ForestModel, data) -> float:
    """Fraction of the labeled points ``data = (x, y)`` with a negative margin."""
    x, y = data
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if len(x) == 0:
        raise ParameterError("data must be non-empty")
    return vote_error(vote_matrix(model, x), y)


def save_model(model: ForestModel, path) -> None:
    body = "".join(
        csv_text([f"tree {index} nodes={tree.num_nodes}"], (
            ["n", tree.feature[n], tree.threshold[n], tree.left[n], tree.right[n]] if tree.feature[n] >= 0
            else ["l", *tree.class_counts[n]] for n in range(tree.num_nodes)
        ))
        for index, tree in enumerate(model.trees)
    )
    write_model(path, "forest", body, trees=model.num_trees, features_per_split=model.features_per_split,
                dim=model.feature_dim)


def _node_row(cells) -> tuple:
    """(is a split, feature, threshold, left, right, class counts) of a node row."""
    if cells[0] == "n":
        return True, int(cells[1]), float(cells[2]), int(cells[3]), int(cells[4]), [0] * NUM_CLASSES
    if cells[0] == "l":
        return False, -1, np.nan, -1, -1, [int(c) for c in cells[1:]]
    raise ValueError(f"malformed node row {cells!r}")


def _read_tree(rows, path, first_line, dim) -> DecisionTree:
    """The tree of node rows from line ``first_line`` on. A split needs a
    feature in [0, dim), a finite threshold and children after it, so that
    prediction walks forward and ends; a leaf needs class counts that are
    non-negative and not all zero, as training counts them."""
    split, feature, threshold, left, right, counts = zip(*rows)
    feature, left, right, counts = (np.array(col, dtype=np.int64) for col in (feature, left, right, counts))
    nodes, threshold, split = np.arange(len(rows)), np.array(threshold), np.array(split)
    split_ok = (feature >= 0) & (feature < dim) & np.isfinite(threshold)
    split_ok &= (nodes < left) & (left < len(rows)) & (nodes < right) & (right < len(rows))
    leaf_ok = (counts.min(axis=1) >= 0) & (counts.max(axis=1) > 0)
    bad = np.flatnonzero(~np.where(split, split_ok, leaf_ok))
    if len(bad):
        what = "split node {} out of range" if split[bad[0]] else "leaf {} needs non-negative counts, not all 0"
        raise DataFormatError(f"{path}:{first_line + bad[0]}: " + what.format(bad[0]))
    return DecisionTree(feature, threshold, left, right, counts)


def _read_trees(fh, path, fields) -> ForestModel:
    num_trees, features_per_split, dim = (int(fields[key]) for key in ("trees", "features_per_split", "dim"))
    check_params(num_trees, features_per_split, dim)
    trees, lineno = [], 2
    for index in range(num_trees):
        nodes = int(block_values(fh, path, lineno, f"tree {index} nodes=...")[0])
        # a split row has as many cells as a leaf row
        rows = read_rows(islice(fh, nodes), path, NUM_CLASSES + 1, _node_row, lineno + 1)
        if len(rows) != nodes:
            raise DataFormatError(f"{path}:{lineno}: tree lists {len(rows)} of {nodes} nodes")
        trees.append(_read_tree(rows, path, lineno + 1, dim))
        lineno += nodes + 1
    return ForestModel(trees, features_per_split, dim)


def load_model(path) -> ForestModel:
    return read_model(path, "forest", _read_trees)
