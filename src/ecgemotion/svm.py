"""Soft-margin RBF-kernel SVM trained by pairwise dual coordinate ascent.

The binary trainer optimizes the dual of

    minimize 1/2 ||w||^2 + C * sum_i xi_i
    s.t.     y_i (w.x_i + b) >= 1 - xi_i,  xi_i >= 0

by repeatedly picking the pair of multipliers with the largest KKT
violation (one from the "can increase" set, one from the "can decrease"
set), solving the two-variable subproblem analytically, and clipping to
the box [0, C]. Both solvers, the scalar one and the lockstep batch one,
keep both selection scores current from step to step, as Platt's SMO and
LIBSVM keep the gradient, instead of rebuilding them. Exact ties in the
violation scores go to the lowest index, as LIBSVM's argmax does, so
training reads no seed. Both take the bias by one rule, ``_biases``: the
mean of y - f over the free multipliers, or the midpoint of the feasible
interval when none is free, for a whole batch of finished solves at once
(the scalar solver passes a batch of one). A training row that occurs m
times is solved for once, with the box [0, m * C], so a model lists each
distinct support vector once and ``num_support`` counts distinct rows.
Multiclass is one-vs-one over the six emotion pairs with majority voting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .types import DataFormatError, EMOTIONS, NUM_CLASSES, ParameterError
from .utils import block_values, csv_text, distinct_rows, fmt_float, pairwise_sq_dists
from .utils import query_rows, read_model, read_rows, training_rows, write_model

_EPS = 1e-12


@dataclass
class SvmParams:
    """Penalty C, RBF width gamma (= 1 / (2 sigma^2)), and solver knobs."""

    c: float
    gamma: float
    tolerance: float = 1e-3
    max_passes: int = 0  # 0 -> 10 * n_samples

    def __post_init__(self):
        check_positive(c=self.c, gamma=self.gamma, tolerance=self.tolerance)
        if self.max_passes and self.max_passes < 0:
            raise ParameterError("max_passes must be >= 0")


def check_positive(**values) -> None:
    """The rule for C, gamma and the KKT tolerance: each positive and finite."""
    for name, value in values.items():
        if not 0 < value < np.inf:  # also rejects NaN
            raise ParameterError(f"{name} must be positive and finite")


def rbf_kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    # in place: the same bits as np.exp(-gamma * d2), without two more n x m
    # temporaries
    d2 = pairwise_sq_dists(a, b)
    d2 *= -gamma
    return np.exp(d2, out=d2)


def _movable(y, alpha, c):
    """(can_up, can_dn): which multipliers may rise or fall along y without
    leaving the box. Entries with y == 0 are in neither set."""
    below_c = alpha < c - _EPS
    above_0 = alpha > _EPS
    can_up = ((y > 0) & below_c) | ((y < 0) & above_0)
    can_dn = ((y < 0) & below_c) | ((y > 0) & above_0)
    return can_up, can_dn


def _biases(alpha, e, y, c) -> np.ndarray:
    """Bias of each finished solve, one per row of the (B, n) arrays: the mean
    of y - f over the row's free multipliers, or the midpoint of its feasible
    interval when none is free. ``c`` broadcasts to (B, n)."""
    neg_e, c = -e, np.broadcast_to(c, alpha.shape)  # y - f == -e
    free = (alpha > _EPS) & (alpha < c - _EPS)
    counts, bias = free.sum(axis=1), np.empty(len(alpha))
    # rows with k free multipliers: one C-contiguous (rows, k) block, summed
    # along axis 1 as np.mean sums one row's free entries
    for k in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == k)
        bias[rows] = neg_e[rows][free[rows]].reshape(-1, k).sum(axis=1) / k
    rows = np.flatnonzero(counts == 0)
    neg_e, (can_up, can_dn) = neg_e[rows], _movable(y[rows], alpha[rows], c[rows])
    lo = neg_e.max(axis=1, where=can_up, initial=-np.inf)
    hi = neg_e.min(axis=1, where=can_dn, initial=np.inf)
    # a missing end takes the other's value (0 if both are missing), so
    # 0.5 * (lo + hi) never adds -inf to inf
    has_dn = can_dn.any(axis=1)
    lo = np.where(can_up.any(axis=1), lo, np.where(has_dn, hi, 0.0))
    bias[rows] = 0.5 * (lo + np.where(has_dn, hi, lo))
    return bias


def solve_dual(kmat: np.ndarray, y: np.ndarray, c, tolerance: float, max_steps: int):
    """Maximize the SVM dual for a precomputed kernel matrix.

    ``c`` is the upper end of every multiplier's box: one value for all, or
    one per row. Returns (alpha, bias). Stops when no pair violates the KKT
    conditions by more than ``tolerance`` or after ``max_steps`` pair
    updates. Exact ties in the working-set choice go to the lowest index, so
    the result depends on the inputs alone.
    """
    n = len(y)
    c_rows = np.broadcast_to(np.asarray(c, dtype=np.float64), (n,))
    y_rows, c_list, diag = y.tolist(), c_rows.tolist(), kmat.diagonal().tolist()
    alpha = [0.0] * n
    # e_i = f_i - y_i where f_i = sum_j alpha_j y_j K(x_j, x_i), bias excluded,
    # lives only in the working-set scores, kept current step by step: i
    # maximizes g[0], which is -e over the can-increase set, and j maximizes
    # g[1], which is e over the can-decrease set; -inf stands outside a set.
    # -e - delta rounds exactly as -(e + delta), so the scores hold the same
    # bits as an e vector updated by e += delta would.
    e = -y.astype(np.float64)
    g = np.where(_movable(y, np.zeros(n), c_rows), [-e, e], -np.inf)
    g_up, g_dn = g
    row_i, row_j = np.empty(n), np.empty(n)
    # bound once: a step is short enough that attribute lookups show
    argmax, up_item, dn_item, k_item = g.argmax, g_up.item, g_dn.item, kmat.item
    k_rows, multiply, add, subtract, neg_inf = list(kmat), np.multiply, np.add, np.subtract, -np.inf

    for _ in range(max_steps):
        i, j = argmax(axis=1).tolist()
        neg_e_i, e_j = up_item(i), dn_item(j)
        if neg_e_i == neg_inf or e_j == neg_inf:
            break
        e_i = -neg_e_i
        if e_j - e_i <= tolerance:
            break

        y1, y2 = y_rows[i], y_rows[j]
        a1, a2 = alpha[i], alpha[j]
        c1, c2 = c_list[i], c_list[j]
        if y1 != y2:
            low, high = max(0.0, a2 - a1), min(c2, c1 + a2 - a1)
        else:
            low, high = max(0.0, a1 + a2 - c1), min(c2, a1 + a2)
        if high - low < _EPS:
            break

        eta = diag[i] + diag[j] - 2.0 * k_item(i, j)
        if eta < _EPS:
            eta = _EPS
        a2_new = min(max(a2 + y2 * (e_i - e_j) / eta, low), high)
        if a2_new == a2:
            break
        a1_new = a1 + y1 * y2 * (a2 - a2_new)

        # Snap to the box so the support set stays exact.
        if a1_new < _EPS:
            a1_new = 0.0
        elif a1_new > c1 - _EPS:
            a1_new = c1
        if a2_new < _EPS:
            a2_new = 0.0
        elif a2_new > c2 - _EPS:
            a2_new = c2

        multiply(k_rows[i], (a1_new - a1) * y1, out=row_i)
        multiply(k_rows[j], (a2_new - a2) * y2, out=row_j)
        add(row_i, row_j, out=row_i)
        subtract(g_up, row_i, out=g_up)
        add(g_dn, row_i, out=g_dn)
        alpha[i] = a1_new
        alpha[j] = a2_new
        # i was in the can-increase set and j in the can-decrease set, so
        # their new e is read there; then each enters the sets it is now in
        # (the _movable rule, with y never 0 at i or j)
        e_i, e_j = -up_item(i), dn_item(j)
        below_c, above_0 = a1_new < c1 - _EPS, a1_new > _EPS
        up, dn = (below_c, above_0) if y1 > 0 else (above_0, below_c)
        g_up[i] = -e_i if up else neg_inf
        g_dn[i] = e_i if dn else neg_inf
        below_c, above_0 = a2_new < c2 - _EPS, a2_new > _EPS
        up, dn = (below_c, above_0) if y2 > 0 else (above_0, below_c)
        g_up[j] = -e_j if up else neg_inf
        g_dn[j] = e_j if dn else neg_inf

    alpha = np.array(alpha)
    # every row the bias reads is in one of the sets, so e is known there
    e = np.where(g_dn > -np.inf, g_dn, -g_up)
    return alpha, float(_biases(alpha[None], e[None], y[None], c_rows)[0])


# Why a dual solve stopped: no pair violates by more than the tolerance,
# the step cap ran out, or the chosen pair could not move.
CONVERGED, CAPPED, STALLED = 0, 1, 2


def _lanes(owner, n):
    """Flat offsets of the unfinished problems' rows in a (count, n) array,
    and in the (2, A, n) scores, one row of offsets per plane."""
    return owner * n, np.arange(len(owner)) * n + [[0], [len(owner) * n]]


def solve_dual_batch(kmats, y, c, tolerance: float, max_steps):
    """Solve many small duals in lockstep, each exactly as ``solve_dual`` would.

    ``kmats`` is (B, n, n) and ``y`` (B, n); a problem smaller than n is
    padded with y == 0, which keeps the padding out of every working set.
    ``c`` and ``max_steps`` give one value per problem. Every step applies
    the scalar pair update, kept-current scores and lowest-index tie rule
    included, to all unfinished problems at once; a problem leaves the batch
    when it converges, reaches its cap or stalls.

    Returns (alpha (B, n), bias (B,), steps (B,), stop (B,)) where ``stop``
    holds CONVERGED, CAPPED or STALLED. Row b's alpha and bias equal those of
    ``solve_dual`` on problem b bit for bit, and ``steps[b]`` is the shortest
    cap with which ``solve_dual`` gives that same result.
    """
    kmats = np.ascontiguousarray(kmats, dtype=np.float64)
    y_all = np.ascontiguousarray(y, dtype=np.float64)
    count, n = y_all.shape
    c_all = np.broadcast_to(np.asarray(c, dtype=np.float64), (count,))
    caps = np.broadcast_to(np.asarray(max_steps, dtype=np.int64), (count,))
    # reads and writes go through flat views; the inputs are only read
    k_rows, k_flat, y_flat = kmats.reshape(count * n, n), kmats.reshape(-1), y_all.reshape(-1)
    k_diag = kmats.diagonal(axis1=1, axis2=2).ravel()
    alpha = np.zeros((count, n))
    alpha_flat = alpha.reshape(-1)
    e_out = np.empty((count, n))
    steps_out = np.zeros(count, dtype=np.int64)
    stop_out = np.zeros(count, dtype=np.int64)

    # The unfinished problems, owner[a] being row a's problem. Their scores
    # are kept current as in solve_dual: g[0, a] is -e over the problem's
    # can-increase set and g[1, a] is e over its can-decrease set, -inf
    # elsewhere. alpha is written in place, so a finished problem's row is
    # its output; only g and the per-problem vectors shrink. g stays
    # C-contiguous (compress, not fancy indexing), so g_flat is a view.
    owner, cb, cb_eps, capb = np.arange(count), c_all, c_all - _EPS, caps
    e = -y_all
    g = np.where(_movable(y_all, 0.0, c_all[:, None]), [-e, e], -np.inf)
    g_flat = g.reshape(-1)
    own_n, g_at = _lanes(owner, n)
    step = 0
    while len(owner):
        ij = g.argmax(axis=2)  # (2, A): i over g[0], j over g[1]
        neg_e_i, e_j = g_flat.take(g_at + ij)
        e_i = -neg_e_i
        at = own_n + ij
        y12, a12 = y_flat.take(at), alpha_flat.take(at)
        (y1, y2), (a1, a2) = y12, a12
        same, a_sum = y1 == y2, a1 + a2
        low = np.maximum(0.0, np.where(same, a_sum - cb, a2 - a1))
        high = np.minimum(cb, np.where(same, a_sum, cb + a2 - a1))
        k_ii, k_jj = k_diag.take(at)
        eta = np.maximum(k_ii + k_jj - 2.0 * k_flat.take(at[0] * n + ij[1]), _EPS)
        gap = e_j - e_i
        # an empty set makes the gap -inf; a converged problem's move is
        # never used, and 0 keeps inf out of it
        converged = (gap == -np.inf) | (gap <= tolerance)
        move = y2 * np.where(converged, 0.0, e_i - e_j) / eta
        a2_new = np.minimum(np.maximum(a2 + move, low), high)

        # the scalar loop tests the cap first, then convergence, then the
        # two stalls
        capped = capb <= step
        done = capped | converged | (high - low < _EPS) | (a2_new == a2)
        if done.any():
            gone = owner[done]
            steps_out[gone] = step
            stop_out[gone] = np.where(capped[done], CAPPED, np.where(converged[done], CONVERGED, STALLED))
            g_up, g_dn = g.compress(done, axis=1)
            # every row the bias reads is in one of the sets, so e is known there
            e_out[gone] = np.where(g_dn > -np.inf, g_dn, -g_up)
            keep = ~done
            owner, cb, cb_eps, capb = owner[keep], cb[keep], cb_eps[keep], capb[keep]
            if not len(owner):
                break
            g = g.compress(keep, axis=1)
            g_flat = g.reshape(-1)
            own_n, g_at = _lanes(owner, n)
            ij, a2_new = ij.compress(keep, axis=1), a2_new[keep]
            y12, a12 = y12.compress(keep, axis=1), a12.compress(keep, axis=1)
            at = own_n + ij
            (y1, y2), (a1, a2) = y12, a12

        # snap to the box so the support set stays exact
        a_new = np.array([a1 + y1 * y2 * (a2 - a2_new), a2_new])
        a_new = np.where(a_new < _EPS, 0.0, np.where(a_new > cb_eps, cb, a_new))
        rows = k_rows.take(at, axis=0)  # (2, A, n): kernel rows i and j
        rows *= ((a_new - a12) * y12)[:, :, None]
        delta = np.add(rows[0], rows[1], out=rows[0])
        g[0] -= delta
        g[1] += delta
        alpha_flat.put(at, a_new)
        # i was in the can-increase set and j in the can-decrease set, so
        # their new e is read there; then each enters the sets it is now in
        # (the _movable rule, with y never 0 at i or j)
        e_new = g_flat.take(g_at + ij)
        e_new[0] *= -1.0
        below_c, above_0 = a_new < cb_eps, a_new > _EPS
        movable = np.where(y12 > 0, [below_c, above_0], [above_0, below_c])
        g_flat.put(g_at[:, None] + ij, np.where(movable, [-e_new, e_new], -np.inf))
        step += 1

    return alpha, _biases(alpha, e_out, y_all, c_all[:, None]), steps_out, stop_out


@dataclass(eq=False)
class BinarySvmModel:
    """Distinct support vectors, their alpha_i * y_i coefficients, and the
    bias."""

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    params: SvmParams
    alpha: np.ndarray | None = None  # one per training row, kept for diagnostics

    @property
    def num_support(self) -> int:
        return len(self.dual_coefs)


def train_binary(x, y, params: SvmParams, seed: int = 0) -> BinarySvmModel:
    """Train a binary RBF-SVM on labels in {-1, +1}. ``seed`` is unused:
    the solve reads no generator.

    A (row, label) pair drawn m times defines the same primal as one copy
    with penalty m * C, so the dual is solved over the distinct pairs with
    the box [0, m * C]; the step cap still counts the drawn rows. The model
    holds each distinct support vector once, and ``alpha`` splits each
    distinct multiplier evenly over its copies: a feasible point of the
    drawn-row dual with the same objective and decision function.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise ParameterError("binary labels must be -1 or +1, both present")
    x, _ = training_rows(x, y > 0)  # the labels as codes 0 and 1

    n = len(y)
    max_steps = params.max_passes or 10 * n
    first, copy_of, counts = distinct_rows(np.column_stack([x, y]))
    x_u, y_u = x[first], y[first]
    kmat = rbf_kernel_matrix(x_u, x_u, params.gamma)
    alpha_u, bias = solve_dual(kmat, y_u, params.c * counts, params.tolerance, max_steps)

    sv = alpha_u > 0.0
    return BinarySvmModel(
        support_vectors=x_u[sv],
        dual_coefs=(alpha_u * y_u)[sv],
        bias=bias,
        params=params,
        # m * C / m can round above C
        alpha=np.minimum(alpha_u / counts, params.c)[copy_of],
    )


def decision_values(model: BinarySvmModel, x: np.ndarray) -> np.ndarray:
    """Raw decision values for a batch of inputs; sign gives the class."""
    if model.num_support == 0:
        raise ParameterError("model has no support vectors")
    x = query_rows(x, model.support_vectors.shape[1])
    k = rbf_kernel_matrix(x, model.support_vectors, model.params.gamma)
    return k @ model.dual_coefs + model.bias


def kkt_max_violation(model: BinarySvmModel, x, y) -> float:
    """Largest KKT residual of a trained model over its training set."""
    if model.alpha is None:
        raise ParameterError("model carries no training alphas")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(model.alpha):
        raise ParameterError("x does not match the model's training set size")
    margin = y * decision_values(model, x)
    c = model.params.c
    residual = np.where(
        model.alpha <= _EPS,
        np.maximum(0.0, 1.0 - margin),
        np.where(model.alpha >= c - _EPS, np.maximum(0.0, margin - 1.0), np.abs(margin - 1.0)),
    )
    return float(residual.max(initial=0.0))


@dataclass(eq=False)
class MulticlassSvmModel:
    """One binary model per unordered emotion pair, combined by voting."""

    models: dict
    feature_count: int
    params: SvmParams


# The one-vs-one pairs (a, b), a < b: the order in which pair models are
# trained, solved for PSO fitness, saved and voted.
PAIRS = tuple((a, b) for a in range(NUM_CLASSES) for b in range(a + 1, NUM_CLASSES))


def pair_labels(codes: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows of class a or b, and their binary labels: +1 for
    a, -1 for b."""
    rows = np.flatnonzero((codes == a) | (codes == b))
    return rows, np.where(codes[rows] == a, 1.0, -1.0)


def vote(decisions) -> np.ndarray:
    """Emotion codes by one-vs-one majority vote (ties -> lowest code).

    ``decisions`` holds one array of decision values per pair, in ``PAIRS``
    order; a value >= 0 votes for a, below 0 for b.
    """
    votes = np.zeros((len(decisions[0]), NUM_CLASSES), dtype=np.int64)
    for (a, b), values in zip(PAIRS, decisions, strict=True):
        votes[:, a] += values >= 0
        votes[:, b] += values < 0
    return votes.argmax(axis=1)


def train_multiclass(train, params: SvmParams) -> MulticlassSvmModel:
    """Train all six pairwise models on the pair-restricted subsets of
    ``(x, codes)``."""
    x, codes = training_rows(*train)
    missing = [e.name for e in EMOTIONS if int(e) not in codes]
    if missing:
        raise ParameterError(f"training data lacks emotions: {', '.join(missing)}")

    models = {}
    for a, b in PAIRS:
        rows, y_pair = pair_labels(codes, a, b)
        models[(a, b)] = train_binary(x[rows], y_pair, params)
    return MulticlassSvmModel(models, x.shape[1], params)


def predict_multiclass_batch(model: MulticlassSvmModel, x) -> np.ndarray:
    """Predicted emotion codes by one-vs-one majority vote (ties -> lowest code)."""
    x = query_rows(x, model.feature_count)
    return vote([decision_values(model.models[pair], x) for pair in PAIRS])


def save_model(model: MulticlassSvmModel, path) -> None:
    body = "".join(
        csv_text([f"pair {a} {b} bias={fmt_float(binary.bias)} nsv={binary.num_support}"],
                 ([coef, *sv] for coef, sv in zip(binary.dual_coefs, binary.support_vectors)))
        for (a, b), binary in sorted(model.models.items())
    )
    write_model(path, "svm", body, classes=NUM_CLASSES, gamma=fmt_float(model.params.gamma),
                c=fmt_float(model.params.c), features=model.feature_count)


def _read_pairs(fh, path, fields) -> MulticlassSvmModel:
    params = SvmParams(c=float(fields["c"]), gamma=float(fields["gamma"]))
    if int(fields["classes"]) != NUM_CLASSES:
        raise ValueError(f"the header needs classes={NUM_CLASSES}")
    width, models, lineno = int(fields["features"]) + 1, {}, 2
    for a, b in PAIRS:
        bias, nsv = block_values(fh, path, lineno, f"pair {a} {b} bias=... nsv=...")
        bias, nsv = float(bias), int(nsv)
        rows = read_rows(islice(fh, nsv), path, width, lambda cells: [float(c) for c in cells], lineno + 1)
        rows = np.array(rows)
        if len(rows) != nsv or not (np.isfinite(bias) and np.isfinite(rows).all()):
            raise DataFormatError(f"{path}:{lineno}: pair {a},{b} needs {nsv} rows of finite numbers")
        models[(a, b)] = BinarySvmModel(rows[:, 1:].copy(), rows[:, 0].copy(), bias, params)
        lineno += nsv + 1
    return MulticlassSvmModel(models, width - 1, params)


def load_model(path) -> MulticlassSvmModel:
    return read_model(path, "svm", _read_pairs)
