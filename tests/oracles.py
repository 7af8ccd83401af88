"""Independent oracles used by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook projections) and never shares code with the implementation
it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ecgemotion.forest import DecisionTree
from ecgemotion.synthgen import _BEAT_BUMPS, check_sampling
from ecgemotion.types import NUM_CLASSES, Emotion, SignalRecord

_COS_TABLES: dict[int, list] = {}


def _cos_table(n: int) -> list:
    table = _COS_TABLES.get(n)
    if table is None:
        table = [
            [math.cos(math.pi * (2 * (j + 1) - 1) * k / (2 * n)) for j in range(n)]
            for k in range(n)
        ]
        _COS_TABLES[n] = table
    return table


def naive_dct(x) -> list:
    """Direct double-loop evaluation of the orthonormal DCT-II."""
    x = list(float(v) for v in x)
    n = len(x)
    table = _cos_table(n)
    w0 = 1.0 / math.sqrt(n)
    wk = math.sqrt(2.0 / n)
    out = []
    for k in range(n):
        total = 0.0
        row = table[k]
        for j in range(n):
            total += x[j] * row[j]
        out.append((w0 if k == 0 else wk) * total)
    return out


def dft_magnitude(taps, freq_hz: float, sample_rate_hz: float) -> float:
    """|H(f)| of an FIR tap sequence by direct summation."""
    re = 0.0
    im = 0.0
    for n, tap in enumerate(taps):
        angle = -2.0 * math.pi * freq_hz * n / sample_rate_hz
        re += tap * math.cos(angle)
        im += tap * math.sin(angle)
    return math.hypot(re, im)


def generate_clean_loop(
    profile,
    duration_s: float,
    sample_rate_hz: float,
    seed: int,
    label: Emotion = Emotion.HAPPY,
    subject_id: int = 0,
) -> SignalRecord:
    """The synthetic record built one beat and one bump at a time: one
    interval draw per beat and one ``samples[lo:hi] +=`` per bump."""
    check_sampling(duration_s, sample_rate_hz)
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    samples = np.zeros(n)

    def next_interval() -> float:
        hr = profile.mean_hr_bpm
        if profile.hr_std_bpm > 0:
            hr = rng.normal(profile.mean_hr_bpm, profile.hr_std_bpm)
        return 60.0 / min(max(hr, 30.0), 220.0)

    scales = {"fixed": 1.0, "qrs": profile.qrs_amp_scale, "t": profile.t_amp_scale}
    r_time = 0.5 * next_interval()
    while r_time - 0.5 < duration_s:
        for offset, width, amp, kind in _BEAT_BUMPS:
            center = r_time + offset
            lo = max(0, int(np.floor((center - 4 * width) * sample_rate_hz)))
            hi = min(n, int(np.ceil((center + 4 * width) * sample_rate_hz)) + 1)
            if lo >= hi:
                continue
            window = t[lo:hi] - center
            samples[lo:hi] += amp * scales[kind] * np.exp(-0.5 * (window / width) ** 2)
        r_time += next_interval()

    return SignalRecord(samples, float(sample_rate_hz), label, subject_id)


def find_peaks(x, min_fraction: float = 0.5) -> list:
    """Local maxima above min_fraction of the global maximum."""
    x = np.asarray(x, dtype=np.float64)
    threshold = min_fraction * x.max()
    return [
        i
        for i in range(1, len(x) - 1)
        if x[i] > x[i - 1] and x[i] > x[i + 1] and x[i] > threshold
    ]


def rbf_matrix(x, gamma: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            diff = x[i] - x[j]
            k[i, j] = math.exp(-gamma * float(np.dot(diff, diff)))
    return k


def dual_objective(alpha, kmat, y) -> float:
    """W(alpha) = sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij."""
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(alpha)
    quad = 0.0
    for i in range(n):
        for j in range(n):
            quad += alpha[i] * alpha[j] * y[i] * y[j] * kmat[i, j]
    return float(alpha.sum() - 0.5 * quad)


def _project_box_hyperplane(alpha, y, c: float) -> np.ndarray:
    """Project onto {0 <= a <= C} intersected with {a . y = 0}.

    The projection is clip(alpha - lam * y, 0, C) for the lam that zeroes
    the constraint. phi(lam) = y . clip(alpha - lam * y, 0, C) is
    non-increasing and piecewise linear with breakpoints where a coordinate
    hits 0 or C, so the root lies between two breakpoints and linear
    interpolation inside that segment is exact.
    """
    def phi(lam: float) -> float:
        return float(np.dot(np.clip(alpha - lam * y, 0.0, c), y))

    breakpoints = np.sort(
        np.concatenate(
            [np.where(y > 0, alpha - c, -alpha), np.where(y > 0, alpha, c - alpha)]
        )
    )
    values = np.array([phi(b) for b in breakpoints])
    if values[0] <= 0.0:
        lam = breakpoints[0]
    elif values[-1] >= 0.0:
        lam = breakpoints[-1]
    else:
        after = int(np.flatnonzero(values <= 0.0)[0])
        lo, hi = breakpoints[after - 1], breakpoints[after]
        v_lo, v_hi = values[after - 1], values[after]
        lam = lo if v_lo == v_hi else lo + (hi - lo) * v_lo / (v_lo - v_hi)
    return np.clip(alpha - lam * y, 0.0, c)


def maximize_dual(kmat, y, c: float, steps: int = 8000, lr: float = 0.05) -> np.ndarray:
    """Projected gradient ascent on the SVM dual; reference maximizer for
    small instances."""
    y = np.asarray(y, dtype=np.float64)
    q = np.outer(y, y) * kmat
    alpha = _project_box_hyperplane(np.zeros(len(y)), y, c)
    for _ in range(steps):
        grad = 1.0 - q @ alpha
        alpha = _project_box_hyperplane(alpha + lr * grad, y, c)
    return alpha


def kkt_residual_loop(alpha, margins, c: float, eps: float = 1e-12) -> float:
    """Largest KKT residual, one multiplier at a time: 1 - margin below the
    margin for alpha == 0, margin - 1 above it for alpha == C, and
    |margin - 1| for a free multiplier."""
    worst = 0.0
    for alpha_i, margin in zip(alpha, margins):
        if alpha_i <= eps:
            residual = max(0.0, 1.0 - margin)
        elif alpha_i >= c - eps:
            residual = max(0.0, margin - 1.0)
        else:
            residual = abs(margin - 1.0)
        worst = max(worst, residual)
    return worst


_SMO_EPS = 1e-12


def _masked_argmax_loop(values, mask) -> int:
    scores = np.where(mask, values, -np.inf)
    best = scores.max()
    if best == -np.inf:
        return -1
    return int(np.flatnonzero(scores == best)[0])  # the lowest of the tied maxima


def _movable_loop(y, alpha, c):
    below_c = alpha < c - _SMO_EPS
    above_0 = alpha > _SMO_EPS
    can_up = ((y > 0) & below_c) | ((y < 0) & above_0)
    can_dn = ((y < 0) & below_c) | ((y > 0) & above_0)
    return can_up, can_dn


def bias_loop(alpha, e, y, c) -> float:
    """The bias of one finished solve as ``svm.solve_dual`` computed it, one
    row and one set at a time: ``np.mean`` of y - f (which is -e) over the
    free multipliers, or the midpoint of the feasible interval the two sets
    bound when none is free, its one end when only one set is non-empty,
    and 0 when neither is."""
    free = (alpha > _SMO_EPS) & (alpha < c - _SMO_EPS)
    if free.any():
        return float(np.mean(-e[free]))
    can_up, can_dn = _movable_loop(y, alpha, c)
    neg_e = -e
    lo_bound = neg_e[can_up].max() if can_up.any() else None
    hi_bound = neg_e[can_dn].min() if can_dn.any() else None
    if lo_bound is not None and hi_bound is not None:
        return float(0.5 * (lo_bound + hi_bound))
    if lo_bound is not None:
        return float(lo_bound)
    if hi_bound is not None:
        return float(hi_bound)
    return 0.0


def solve_dual_loop(kmat, y, c, tolerance: float, max_steps: int):
    """``svm.solve_dual`` as it stood before its step was trimmed: every
    step recomputes both working sets over all rows, masks the scores with
    ``np.where`` and takes the lowest index among the tied maxima (LIBSVM's
    plain argmax), on NumPy scalars. ``c`` is one box for all rows or one
    per row."""
    n = len(y)
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (n,))
    alpha = np.zeros(n)
    e = -y.astype(np.float64)
    for _ in range(max_steps):
        can_up, can_dn = _movable_loop(y, alpha, c)
        i = _masked_argmax_loop(-e, can_up)
        j = _masked_argmax_loop(e, can_dn)
        if i < 0 or j < 0 or e[j] - e[i] <= tolerance:
            break

        y1, y2 = y[i], y[j]
        a1, a2 = alpha[i], alpha[j]
        c1, c2 = c[i], c[j]
        if y1 != y2:
            low, high = max(0.0, a2 - a1), min(c2, c1 + a2 - a1)
        else:
            low, high = max(0.0, a1 + a2 - c1), min(c2, a1 + a2)
        if high - low < _SMO_EPS:
            break

        eta = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        if eta < _SMO_EPS:
            eta = _SMO_EPS
        a2_new = np.clip(a2 + y2 * (e[i] - e[j]) / eta, low, high)
        if a2_new == a2:
            break
        a1_new = a1 + y1 * y2 * (a2 - a2_new)

        if a1_new < _SMO_EPS:
            a1_new = 0.0
        elif a1_new > c1 - _SMO_EPS:
            a1_new = c1
        if a2_new < _SMO_EPS:
            a2_new = 0.0
        elif a2_new > c2 - _SMO_EPS:
            a2_new = c2

        d1 = (a1_new - a1) * y1
        d2 = (a2_new - a2) * y2
        e += d1 * kmat[i] + d2 * kmat[j]
        alpha[i] = a1_new
        alpha[j] = a2_new

    return alpha, bias_loop(alpha, e, y, c)


def distinct_rows_structured(x):
    """``utils.distinct_rows`` as it stood before rows were keyed by their
    bytes: ``np.unique(axis=0)``, a field-by-field sort of the rows, then
    the groups put in order of first occurrence."""
    _, first, inverse, counts = np.unique(
        x, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.ravel()], counts[order]


def make_blobs(rng, points_per_class: int, std: float = 0.1, test_points: int = 0):
    """Four Gaussian blobs at unit-spaced centers (the corners of a unit
    square)."""
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x_train = np.vstack([rng.normal(c, std, (points_per_class, 2)) for c in centers])
    y_train = np.repeat(np.arange(4), points_per_class)
    if not test_points:
        return x_train, y_train
    x_test = np.vstack([rng.normal(c, std, (test_points, 2)) for c in centers])
    y_test = np.repeat(np.arange(4), test_points)
    return x_train, y_train, x_test, y_test


def per_pair_cv_fitness(fitness, position) -> float:
    """A ``CvSvmFitness`` value computed one dual at a time.

    This is the fitness loop as it stood before duals were batched: it reads
    the fitness object's stored fold distances and labels and solves each
    (fold, pair) dual on its own with the scalar ``svm.solve_dual``, so it
    checks the batched path against the scalar solver rather than against
    an independent method.
    """
    from ecgemotion import svm
    from ecgemotion.types import NUM_CLASSES

    c = 10.0 ** float(position[0])
    gamma = 10.0 ** float(position[1])
    accuracies = []
    for fold, val_codes in enumerate(fitness.val_codes):
        votes = np.zeros((len(val_codes), NUM_CLASSES), dtype=np.int64)
        for k, (a, b) in enumerate(svm.PAIRS):
            problem = fold * len(svm.PAIRS) + k
            size = fitness.sizes[problem]
            y_pair = fitness.y[problem, :size]
            kmat = np.exp(-gamma * fitness.d2_fit[problem, :size, :size])
            alpha, bias = svm.solve_dual(kmat, y_pair, c, fitness.tolerance, 10 * len(y_pair))
            decisions = np.exp(-gamma * fitness.d2_val[problem]) @ (alpha * y_pair) + bias
            votes[:, a] += decisions >= 0
            votes[:, b] += decisions < 0
        predicted = votes.argmax(axis=1)
        accuracies.append(float(np.mean(predicted == val_codes)))
    return float(np.mean(accuracies))


@dataclass
class _Particle:
    position: np.ndarray
    velocity: np.ndarray
    best_position: np.ndarray
    best_fitness: float


def _step_loop(swarm, global_best, config, rng):
    lower, upper = config.lower, config.upper
    vmax = config.velocity_max
    moved = []
    for particle in swarm:
        r1 = rng.random()
        r2 = rng.random()
        velocity = (
            config.inertia * particle.velocity
            + config.c1 * r1 * (particle.best_position - particle.position)
            + config.c2 * r2 * (global_best - particle.position)
        )
        velocity = np.clip(velocity, -vmax, vmax)
        position = particle.position + velocity
        below = position < lower
        above = position > upper
        position = np.clip(position, lower, upper)
        velocity = np.where(below | above, 0.0, velocity)
        moved.append(
            _Particle(position, velocity, particle.best_position.copy(), particle.best_fitness)
        )
    return moved


def optimize_loop(config, fitness_fn):
    """``pso.optimize`` as it stood with one object per particle.

    Each particle draws its own (r1, r2) pair in turn, and a generation's
    trace rows are written with the best known before the generation and
    then retrofitted. ``fitness_fn`` is a ``CvSvmFitness`` (scored one
    generation at a time, counting dual stops) or a plain callable.
    """
    from ecgemotion import svm
    from ecgemotion.pso import PsoResult
    from ecgemotion.utils import derive_seed

    if hasattr(fitness_fn, "evaluate"):
        score = fitness_fn.evaluate
    else:
        score = lambda positions: ([float(fitness_fn(p)) for p in positions], np.zeros(3, dtype=np.int64))
    rng = np.random.default_rng(derive_seed(config.seed, "swarm"))
    lower, upper = config.lower, config.upper
    positions = [lower + rng.random(2) * (upper - lower) for _ in range(config.swarm_size)]
    values, stops = score(positions)
    swarm = [
        _Particle(position.copy(), np.zeros(2), position.copy(), fitness)
        for position, fitness in zip(positions, values)
    ]

    best_index = int(np.argmax([p.best_fitness for p in swarm]))
    g_best = swarm[best_index].best_position.copy()
    g_fitness = swarm[best_index].best_fitness

    trace = [
        (0, idx, 10.0 ** p.position[0], 10.0 ** p.position[1], p.best_fitness, g_fitness)
        for idx, p in enumerate(swarm)
    ]
    history = [g_fitness]

    for iteration in range(1, config.iterations + 1):
        swarm = _step_loop(swarm, g_best, config, rng)
        values, moved_stops = score([particle.position for particle in swarm])
        stops = stops + moved_stops
        for idx, (particle, fitness) in enumerate(zip(swarm, values)):
            if fitness > particle.best_fitness:
                particle.best_fitness = fitness
                particle.best_position = particle.position.copy()
            trace.append(
                (
                    iteration,
                    idx,
                    10.0 ** particle.position[0],
                    10.0 ** particle.position[1],
                    fitness,
                    g_fitness,
                )
            )
        best_index = int(np.argmax([p.best_fitness for p in swarm]))
        if swarm[best_index].best_fitness > g_fitness:
            g_fitness = swarm[best_index].best_fitness
            g_best = swarm[best_index].best_position.copy()
        history.append(g_fitness)
        start = len(trace) - len(swarm)
        trace[start:] = [row[:5] + (g_fitness,) for row in trace[start:]]

    return PsoResult(
        c=10.0 ** g_best[0],
        gamma=10.0 ** g_best[1],
        fitness=g_fitness,
        history=history,
        trace=trace,
        solves=int(stops.sum()),
        capped=int(stops[svm.CAPPED]),
        stalled=int(stops[svm.STALLED]),
    )


def chunked_distance_matrix(metric: str, queries, train, p: float = 2.0, batch_rows: int = 128):
    """Query-by-train distances as ``knn`` computed them with the elementwise
    metrics broadcast over blocks of ``batch_rows`` query rows at a time."""
    if metric == "euclidean":
        qq = np.sum(queries * queries, axis=1)[:, None]
        tt = np.sum(train * train, axis=1)[None, :]
        d2 = qq + tt - 2.0 * (queries @ train.T)
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2)
    if metric == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        tn = np.linalg.norm(train, axis=1)
        return 1.0 - (queries @ train.T) / np.outer(qn, tn)
    out = np.empty((len(queries), len(train)))
    for start in range(0, len(queries), batch_rows):
        q = queries[start : start + batch_rows, None, :]
        diff = q - train[None, :, :]
        if metric == "minkowski":
            out[start : start + batch_rows] = np.sum(np.abs(diff) ** p, axis=2) ** (1.0 / p)
        else:
            denom = np.abs(q) + np.abs(train[None, :, :]) + 1e-12
            out[start : start + batch_rows] = np.sum(diff**2 / denom, axis=2)
    return out


def vote(sorted_labels, sorted_dists, k: int) -> int:
    """Majority of the first k labels; count ties go to the smaller summed
    distance (``np.sum`` of the class's distances), then the lower code."""
    labels = np.asarray(sorted_labels)[:k]
    dists = np.asarray(sorted_dists)[:k]
    counts = np.bincount(labels, minlength=4)
    tied = [c for c in range(len(counts)) if counts[c] == counts.max()]
    best = tied[0]
    for c in tied[1:]:
        if dists[labels == c].sum() < dists[labels == best].sum():
            best = c
    return best


def knn_labels_loop(dists, train_y, k: int) -> np.ndarray:
    """K-NN labels one query row at a time: a full stable sort of the row's
    distances, then ``vote``."""
    out = np.empty(len(dists), dtype=np.int64)
    for row, d in enumerate(dists):
        order = np.argsort(d, kind="stable")
        out[row] = vote(train_y[order], d[order], k)
    return out


def best_split_loop(x, y, feature_ids, min_leaf):
    """``forest._best_split`` as one stable argsort and cumulative count per
    sampled feature: the best (feature, threshold, score) over the sampled
    features.

    Score is sum(left_counts^2)/n_left + sum(right_counts^2)/n_right, an
    affine transform of the negated weighted Gini impurity; computed from
    exact integer counts, so ties resolve identically in any evaluation
    order. Returns None when no split satisfies min_leaf.
    """
    n = len(y)
    onehot = np.eye(NUM_CLASSES)[y]
    total = onehot.sum(axis=0)
    best = None
    for f in feature_ids:
        values = x[:, f]
        order = np.argsort(values, kind="stable")
        v = values[order]
        cum = np.cumsum(onehot[order], axis=0)
        n_left = np.arange(1, n)
        valid = (v[:-1] != v[1:]) & (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            continue
        left_counts = cum[:-1][valid]
        right_counts = total - left_counts
        nl = n_left[valid].astype(np.float64)
        nr = n - nl
        scores = (left_counts**2).sum(axis=1) / nl + (right_counts**2).sum(axis=1) / nr
        pos = int(np.argmax(scores))
        score = float(scores[pos])
        if best is None or score > best[2]:
            cut = np.flatnonzero(valid)[pos]
            threshold = 0.5 * (v[cut] + v[cut + 1])
            best = (int(f), float(threshold), score)
    return best


def grow_tree_loop(x, y, rng, features_per_split, max_depth, min_leaf):
    """``forest._grow_tree`` on the rows of ``x`` with ``best_split_loop``:
    the same rng draws, node layout and stopping rules."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    d = x.shape[1]
    m = min(features_per_split, d)
    # stack holds (row_indices, depth, parent_node, is_left_child)
    stack = [(np.arange(len(y)), 0, -1, False)]
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
            split = best_split_loop(x[rows], y_node, chosen, min_leaf)

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
