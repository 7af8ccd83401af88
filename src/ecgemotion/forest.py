"""Bagged decision-tree ensemble with voting margins.

Each tree is grown on an n-sample bootstrap; at every split a random subset
of features is considered and the split maximizing the Gini impurity
decrease is taken (candidate thresholds at midpoints of consecutive sorted
unique values). A node orders all its sampled features with one sort of
integer keys (the value's dense rank in its training column, then the row's
position), which is the order a stable sort of the values gives, so the
trees equal those of a per-feature stable argsort search. Training rows
and the rows it predicts must be finite. Per-tree seeds derive from the
master seed by tree index, so growing a larger forest never changes the
trees already built: the learning-cycle sweep evaluates sub-ensembles of
one forest.

The voting margin of a point is the fraction of trees voting its true class
minus the largest fraction voting any other class; the generalization error
of a data set is the fraction of points with a negative margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import DataFormatError, Emotion, NUM_CLASSES, ParameterError
from .utils import check_finite, fmt_float

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
    """Rank of every value among its column's distinct values, column by column."""
    ranks = np.empty(x.shape, dtype=np.int32)
    for f in range(x.shape[1]):
        ranks[:, f] = np.unique(x[:, f], return_inverse=True)[1]
    return ranks


def _best_split(x, ranks, rows, y, feature_ids, min_leaf):
    """Best (feature, threshold, score) over the sampled features of the node
    holding ``rows`` of ``x``; ``ranks`` are ``x``'s dense column ranks and
    ``y`` the node's labels.

    One sort orders every sampled feature: the keys ``rank * n + position``
    (position within ``rows``) are unique and order the node's values as a
    stable sort of the values would. Score is sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
    an affine transform of the negated weighted Gini impurity; computed from
    exact integer counts, so ties resolve identically in any evaluation
    order. The first maximum in (feature, position) order wins. Returns None
    when no split satisfies min_leaf.
    """
    n = len(rows)
    keys = ranks[rows, feature_ids[:, None]].astype(np.int64)
    keys *= n
    keys += np.arange(n)
    keys.sort(axis=1)
    rank, pos = np.divmod(keys, n)
    # cut i puts sorted positions 0..i on the left: min_leaf - 1 <= i < n - min_leaf
    lo, hi = min_leaf - 1, n - min_leaf
    valid = rank[:, lo:hi] != rank[:, lo + 1 : hi + 1]
    if not valid.any():
        return None
    labels = y[pos[:, :hi]]
    total = np.bincount(y, minlength=NUM_CLASSES)
    # counts and sums of squared counts (at most n * n) fit int32 below 46341 rows
    count_type = np.int32 if n < 46341 else np.int64
    left_sq = np.zeros(valid.shape, dtype=count_type)
    right_sq = np.zeros(valid.shape, dtype=count_type)
    for c in range(NUM_CLASSES):
        left = np.cumsum(labels == c, axis=1, dtype=count_type)[:, lo:]
        right = int(total[c]) - left
        left_sq += left * left
        right_sq += right * right
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    scores = np.where(valid, left_sq / n_left + right_sq / (n - n_left), -np.inf)
    k, i = divmod(int(np.argmax(scores)), hi - lo)
    f, cut = int(feature_ids[k]), lo + i
    threshold = 0.5 * (x[rows[pos[k, cut]], f] + x[rows[pos[k, cut + 1]], f])
    return f, float(threshold), float(scores[k, i])


def _grow_tree(x, ranks, y, sample, rng, features_per_split, max_depth, min_leaf):
    """Grow one tree on the rows ``sample`` (a bootstrap, in draw order) of
    ``x``; nodes index ``x`` through subsets of ``sample`` that keep its order,
    so no per-tree copy of ``x`` or ``ranks`` is made."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    d = x.shape[1]
    m = min(features_per_split, d)
    # stack holds (row_indices, depth, parent_node, is_left_child)
    stack = [(sample, 0, -1, False)]
    while stack:
        rows, depth, parent, is_left = stack.pop()
        node = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node

        y_node = y[rows]
        node_counts = np.bincount(y_node, minlength=NUM_CLASSES)
        pure = node_counts.max() == len(rows)
        depth_capped = max_depth is not None and depth >= max_depth
        split = None
        if not pure and not depth_capped and len(rows) >= 2 * min_leaf:
            chosen = np.sort(rng.choice(d, size=m, replace=False))
            split = _best_split(x, ranks, rows, y_node, chosen, min_leaf)

        if split is None:
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            counts.append(node_counts)
            continue

        f, thr, _ = split
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        counts.append(np.zeros(NUM_CLASSES, dtype=np.int64))
        go_left = x[rows, f] <= thr
        # push right first so the left subtree is laid out next (pre-order)
        stack.append((rows[~go_left], depth + 1, node, False))
        stack.append((rows[go_left], depth + 1, node, True))

    return DecisionTree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.stack(counts).astype(np.int64),
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
    oob_error: float | None = None

    @property
    def num_trees(self) -> int:
        return len(self.trees)


def train_forest(
    x,
    y,
    num_trees: int = DEFAULT_NUM_TREES,
    features_per_split: int | None = None,
    seed: int = 0,
    max_depth: int | None = None,
    min_leaf: int = 1,
    bootstrap: bool = True,
) -> ForestModel:
    """Grow a bagged forest. ``bootstrap=False`` (a test hook) trains every
    tree on the full sample, which with all features per split makes the
    trees identical."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).ravel()
    if x.ndim != 2 or len(x) != len(y):
        raise ParameterError("x must be (n, d) with one label per row")
    if len(y) == 0:
        raise ParameterError("training set is empty")
    if num_trees < 1:
        raise ParameterError("num_trees must be >= 1")
    if min_leaf < 1:
        raise ParameterError("min_leaf must be >= 1")
    check_finite(x, "training rows")
    d = x.shape[1]
    if features_per_split is None:
        features_per_split = int(np.ceil(np.sqrt(d)))
    if not 1 <= features_per_split <= d:
        raise ParameterError(f"features_per_split must lie in [1, {d}]")

    n = len(y)
    ranks = _dense_ranks(x)
    seeds = np.random.SeedSequence(seed).spawn(num_trees)
    trees = []
    oob_votes = np.zeros((n, NUM_CLASSES), dtype=np.int64)
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        if bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        tree = _grow_tree(x, ranks, y, rows, rng, features_per_split, max_depth, min_leaf)
        trees.append(tree)
        if bootstrap:
            out_of_bag = np.setdiff1d(np.arange(n), rows, assume_unique=False)
            if len(out_of_bag):
                predictions = tree_predict(tree, x[out_of_bag])
                oob_votes[out_of_bag, predictions] += 1

    oob_error = None
    seen = oob_votes.sum(axis=1) > 0
    if bootstrap and seen.any():
        oob_pred = oob_votes[seen].argmax(axis=1)
        oob_error = float(np.mean(oob_pred != y[seen]))

    return ForestModel(trees, features_per_split, d, oob_error)


def _check_dim(model: ForestModel, x: np.ndarray):
    if x.shape[-1] != model.feature_dim:
        raise ParameterError(
            f"input dimension {x.shape[-1]} != training dimension {model.feature_dim}"
        )


def vote_matrix(model: ForestModel, x, num_trees: int | list[int] | None = None) -> np.ndarray:
    """Per-class vote counts, rows matching ``x``; optionally only the first
    ``num_trees`` trees (sub-ensemble evaluation for the learning-cycle sweep).
    A sequence of counts gives one matrix per count, stacked, while each tree
    predicts ``x`` once."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_dim(model, x)
    check_finite(x, "query rows")
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


def vote_counts(model: ForestModel, x, num_trees: int | None = None) -> np.ndarray:
    return vote_matrix(model, np.asarray(x, dtype=np.float64)[None, :], num_trees)[0]


def predict_forest_batch(model: ForestModel, x, num_trees: int | None = None) -> np.ndarray:
    return vote_matrix(model, x, num_trees).argmax(axis=1)


def predict_forest(model: ForestModel, x) -> Emotion:
    return Emotion(int(predict_forest_batch(model, np.asarray(x, dtype=np.float64)[None, :])[0]))


def margins(model: ForestModel, x, y_true, num_trees: int | None = None) -> np.ndarray:
    """Voting margins in [-1, 1] for a batch of labeled points."""
    return vote_margins(vote_matrix(model, x, num_trees), y_true)


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


def margin(model: ForestModel, x, y_true, num_trees: int | None = None) -> float:
    return float(margins(model, np.asarray(x, dtype=np.float64)[None, :], [int(y_true)], num_trees)[0])


def generalization_error(model: ForestModel, data=None, num_trees: int | None = None) -> float:
    """Fraction of points with negative margin; without data, the OOB estimate."""
    if data is None:
        if model.oob_error is None:
            raise ParameterError("model carries no out-of-bag estimate")
        return model.oob_error
    x, y = data
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if len(x) == 0:
        raise ParameterError("data must be non-empty")
    return vote_error(vote_matrix(model, x, num_trees), y)


def save_model(model: ForestModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(
            f"forest v1 trees={model.num_trees} features_per_split={model.features_per_split} "
            f"dim={model.feature_dim} oob={'' if model.oob_error is None else fmt_float(model.oob_error)}\n"
        )
        for index, tree in enumerate(model.trees):
            fh.write(f"tree {index} nodes={tree.num_nodes}\n")
            for node in range(tree.num_nodes):
                if tree.feature[node] >= 0:
                    fh.write(
                        f"n,{tree.feature[node]},{fmt_float(tree.threshold[node])},"
                        f"{tree.left[node]},{tree.right[node]}\n"
                    )
                else:
                    fh.write("l," + ",".join(str(c) for c in tree.class_counts[node]) + "\n")


def load_model(path) -> ForestModel:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) < 2 or header[0] != "forest" or header[1] != "v1":
            raise DataFormatError(f"{path}: not a forest v1 model file")
        try:
            fields = dict(item.split("=", 1) for item in header[2:])
            num_trees = int(fields["trees"])
            features_per_split = int(fields["features_per_split"])
            dim = int(fields["dim"])
            oob = float(fields["oob"]) if fields.get("oob") else None
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"{path}: malformed forest header: {exc}") from exc
        if oob is not None and not np.isfinite(oob):
            raise DataFormatError(f"{path}: non-finite oob in forest header")
        if num_trees < 1 or not 1 <= features_per_split <= dim:
            raise DataFormatError(f"{path}: forest header needs trees >= 1 and features_per_split in [1, dim]")

        trees = []
        for _ in range(num_trees):
            tree_line = fh.readline().split()
            if len(tree_line) != 3 or tree_line[0] != "tree":
                raise DataFormatError(f"{path}: malformed tree header")
            try:
                nodes = int(tree_line[2].split("=", 1)[1])
                if nodes < 1:
                    raise DataFormatError("a tree needs at least one node")
                feature = np.empty(nodes, dtype=np.int64)
                threshold = np.empty(nodes, dtype=np.float64)
                left = np.empty(nodes, dtype=np.int64)
                right = np.empty(nodes, dtype=np.int64)
                counts = np.zeros((nodes, NUM_CLASSES), dtype=np.int64)
                for node in range(nodes):
                    parts = fh.readline().strip().split(",")
                    if parts[0] == "n" and len(parts) == 5:
                        feature[node] = int(parts[1])
                        threshold[node] = float(parts[2])
                        left[node] = int(parts[3])
                        right[node] = int(parts[4])
                        # children after their parent: prediction walks forward and ends
                        if not 0 <= feature[node] < dim or not (
                            node < left[node] < nodes and node < right[node] < nodes
                        ):
                            raise DataFormatError(f"node {node} out of range: {parts!r}")
                        if not np.isfinite(threshold[node]):
                            raise DataFormatError(f"node {node} has a non-finite threshold: {parts!r}")
                    elif parts[0] == "l" and len(parts) == NUM_CLASSES + 1:
                        feature[node] = -1
                        threshold[node] = np.nan
                        left[node] = -1
                        right[node] = -1
                        counts[node] = [int(c) for c in parts[1:]]
                    else:
                        raise DataFormatError(f"malformed node line {parts!r}")
            except (IndexError, ValueError) as exc:
                raise DataFormatError(f"{path}: malformed tree {' '.join(tree_line)!r}: {exc}") from exc
            trees.append(DecisionTree(feature, threshold, left, right, counts))

    return ForestModel(trees, features_per_split, dim, oob)
