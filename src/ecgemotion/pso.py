"""Particle swarm search for the SVM's (C, gamma), in log10 space.

Velocity and position updates follow the classic formulation

    v <- inertia * v + c1 * r1 * (p_best - x) + c2 * r2 * (g_best - x)
    x <- x + v

with r1, r2 drawn uniformly from [0, 1) per particle per step. The swarm
is held as (S, 2) position, velocity and best-position arrays plus a
best-fitness vector, and each step moves all S particles at once. Inertia
defaults to 1.0, which reproduces the plain update verbatim; velocities
are clamped per axis, and positions are clamped to the search bounds with
the velocity zeroed on any clamped axis.

Fitness is the mean k-fold cross-validation accuracy of a one-vs-one SVM
trained at the particle's (C, gamma) on the training split only. The fold
geometry and all kernel-independent distances are computed once and stored
once. Fitness is scored one generation at a time, in whole-array steps: the
initial swarm, then each moved swarm, has all of its particles'
fold-and-pair duals (20 particles x 5 folds x 6 pairs = 600 by default)
filled from one distance stack and solved together by
``svm.solve_dual_batch`` (in chunks under a memory bound), which gives every
dual the result ``solve_dual`` would; one batched product per (fold, pair)
gives every particle's decisions, and each fold votes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import svm
from .types import NUM_CLASSES, ParameterError
from .utils import derive_seed, pairwise_sq_dists, training_rows

DEFAULT_LOG10_C_BOUNDS = (-1.0, 3.0)
DEFAULT_LOG10_GAMMA_BOUNDS = (-4.0, 1.0)

# Upper bound on the stacked kernels of one ``solve_dual_batch`` call.
FITNESS_BATCH_BYTES = 64 << 20


@dataclass
class PsoConfig:
    swarm_size: int = 20
    iterations: int = 30
    c1: float = 2.0
    c2: float = 2.0
    inertia: float = 1.0
    log10_c_bounds: tuple[float, float] = DEFAULT_LOG10_C_BOUNDS
    log10_gamma_bounds: tuple[float, float] = DEFAULT_LOG10_GAMMA_BOUNDS
    velocity_clamp: float = 0.5  # fraction of each axis range
    seed: int = 0
    cv_folds: int = 5

    def __post_init__(self):
        if self.swarm_size < 1:
            raise ParameterError("swarm_size must be >= 1")
        if self.iterations < 0:
            raise ParameterError("iterations must be >= 0")
        # each "not" form also rejects NaN
        if not (0 <= self.c1 < np.inf and 0 <= self.c2 < np.inf):
            raise ParameterError("learning factors must be finite and >= 0")
        if not (np.isfinite(self.inertia) and 0 < self.velocity_clamp < np.inf):
            raise ParameterError("inertia must be finite and velocity_clamp finite and positive")
        for lo, hi in (self.log10_c_bounds, self.log10_gamma_bounds):
            if not -np.inf < lo < hi < np.inf:
                raise ParameterError("search bounds must be finite and non-degenerate")
        if self.cv_folds < 2:
            raise ParameterError("cv_folds must be >= 2")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.log10_c_bounds[0], self.log10_gamma_bounds[0]])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.log10_c_bounds[1], self.log10_gamma_bounds[1]])

    @property
    def velocity_max(self) -> np.ndarray:
        return self.velocity_clamp * (self.upper - self.lower)


@dataclass
class PsoResult:
    c: float
    gamma: float
    fitness: float
    history: list[float] = field(default_factory=list)
    trace: list[tuple] = field(default_factory=list)
    # dual solves made by the cross-validation fitness, and how many of them
    # stopped at the step cap or on a pair that could not move
    solves: int = 0
    capped: int = 0
    stalled: int = 0


def step(position, velocity, best_position, global_best, config: PsoConfig, rng):
    """Move a swarm held as (S, 2) arrays one velocity/position update.

    Returns the new positions and velocities; bests and fitness are untouched.
    """
    if len(position) == 0:
        raise ParameterError("swarm must be non-empty")
    r = rng.random((len(position), 2))  # row s holds particle s's (r1, r2)
    velocity = (
        config.inertia * velocity
        + config.c1 * r[:, :1] * (best_position - position)
        + config.c2 * r[:, 1:] * (global_best - position)
    )
    vmax = config.velocity_max
    velocity = np.clip(velocity, -vmax, vmax)
    moved = position + velocity
    clamped = (moved < config.lower) | (moved > config.upper)
    return np.clip(moved, config.lower, config.upper), np.where(clamped, 0.0, velocity)


class CvSvmFitness:
    """Mean k-fold CV accuracy of the one-vs-one SVM at (C, gamma).

    Folds are stratified by class and fixed at construction. The squared
    distances of every (fold, pair) problem do not depend on (C, gamma), so
    they are stored once, fold by fold in ``svm.PAIRS`` order: ``d2_fit``
    and ``y`` stack the fit rows' distances and labels, padded to the widest
    pair, and ``d2_val`` lists the validation distances. A 4000-row split
    (``pso_subsample=0``) takes 922 MB. Each dual stops at ``tolerance``
    (checked by the rule ``svm.SvmParams`` applies) or after 10 steps per
    row, as the final pair duals do.
    """

    def __init__(self, x, codes, folds: int, seed: int, tolerance: float = 1e-3):
        svm.check_positive(tolerance=tolerance)
        x, codes = training_rows(x, codes)
        counts = np.bincount(codes, minlength=NUM_CLASSES)
        if not 2 <= folds <= counts.min():
            raise ParameterError(f"cv_folds={folds} must lie in [2, smallest class count {counts.min()}]")
        self.tolerance = tolerance

        rng = np.random.default_rng(derive_seed(seed, "cv-folds"))
        fold_of = np.empty(len(codes), dtype=np.int64)
        for c in range(NUM_CLASSES):
            idx = np.flatnonzero(codes == c)
            idx = idx[rng.permutation(len(idx))]
            fold_of[idx] = np.arange(len(idx)) % folds

        # every class has at least ``folds`` rows, so every fit fold holds
        # every class and every pair has rows of both classes
        fits, self.val_codes, self.d2_val = [], [], []
        for fold in range(folds):
            val = np.flatnonzero(fold_of == fold)
            fit = np.flatnonzero(fold_of != fold)
            self.val_codes.append(codes[val])
            for a, b in svm.PAIRS:
                rows, y_pair = svm.pair_labels(codes[fit], a, b)
                fits.append((fit[rows], y_pair))
                self.d2_val.append(pairwise_sq_dists(x[val], x[fit[rows]]))
        # padding: distance +inf, whose kernel value exp(-gamma * inf) is an
        # exact 0, and label 0, which keeps it out of every dual
        self.sizes = np.array([len(y_pair) for _, y_pair in fits])
        width = self.sizes.max()
        self.d2_fit, self.y = np.full((len(fits), width, width), np.inf), np.zeros((len(fits), width))
        for problem, (rows, y_pair) in enumerate(fits):
            self.d2_fit[problem, : len(rows), : len(rows)] = pairwise_sq_dists(x[rows], x[rows])
            self.y[problem, : len(rows)] = y_pair

    def __call__(self, position: np.ndarray) -> float:
        return self.evaluate([position])[0][0]

    def evaluate(self, positions) -> tuple[list[float], np.ndarray]:
        """Fitness of every position, in whole-array steps. The duals are
        solved in batches, as many per call as keep the stacked kernels within
        ``FITNESS_BATCH_BYTES``: one ``take`` from ``d2_fit``, scaled by each
        dual's -gamma and exponentiated in place. Each (fold, pair) then gives
        all P particles' decisions with one (P, v, m) @ (P, m, 1) product
        (205 MB for 20 particles at a 4000-row split), and each fold votes
        once. The stored distances (922 MB there) are a fixed cost on top.

        Returns the fitness values and the number of duals that stopped for
        each reason (indexed by ``svm.CONVERGED``, ``CAPPED``, ``STALLED``).
        """
        # powers of Python floats: an array power can differ in the last bit
        c, gamma = np.array([(10.0 ** float(p[0]), 10.0 ** float(p[1])) for p in positions]).reshape(-1, 2).T
        problems, width = self.y.shape
        duals = len(c) * problems
        chunk = max(1, FITNESS_BATCH_BYTES // (8 * width * width))
        alpha, bias, stops = np.empty((duals, width)), np.empty(duals), np.zeros(3, dtype=np.int64)
        for start in range(0, duals, chunk):
            part = slice(start, min(start + chunk, duals))
            particle, problem = np.divmod(np.arange(part.start, part.stop), problems)
            kmats = self.d2_fit.take(problem, axis=0)
            kmats *= -gamma[particle, None, None]
            alpha[part], bias[part], _, part_stops = svm.solve_dual_batch(
                np.exp(kmats, out=kmats), self.y[problem], c[particle], self.tolerance, 10 * self.sizes[problem]
            )
            stops += np.bincount(part_stops, minlength=3)
        weights = (alpha.reshape(len(c), problems, width) * self.y)[..., None]  # (P, problems, width, 1)
        bias = bias.reshape(len(c), problems, 1, 1)
        accuracies = np.empty((len(c), len(self.val_codes)))
        for fold, val_codes in enumerate(self.val_codes):
            decisions = []
            for problem in range(fold * len(svm.PAIRS), (fold + 1) * len(svm.PAIRS)):
                kernels = np.multiply.outer(-gamma, self.d2_val[problem])  # (P, v, m)
                values = np.matmul(np.exp(kernels, out=kernels), weights[:, problem, : self.sizes[problem]])
                decisions.append((values + bias[:, problem]).reshape(-1))
            accuracies[:, fold] = (svm.vote(decisions).reshape(len(c), -1) == val_codes).mean(axis=1)
        return accuracies.mean(axis=1).tolist(), stops


def _generation_scorer(fitness_fn):
    """positions -> (fitness values, duals per stop reason) for one generation."""
    if isinstance(fitness_fn, CvSvmFitness):
        return fitness_fn.evaluate
    return lambda positions: ([float(fitness_fn(p)) for p in positions], np.zeros(3, dtype=np.int64))


def optimize(config: PsoConfig, fitness_fn) -> PsoResult:
    """Run the swarm and return the best (C, gamma) with its history and trace.

    ``fitness_fn`` receives a log10-space position and returns a score to
    maximize; a ``CvSvmFitness`` is scored one generation per batch.
    """
    score = _generation_scorer(fitness_fn)

    rng = np.random.default_rng(derive_seed(config.seed, "swarm"))
    lower, upper = config.lower, config.upper
    position = lower + rng.random((config.swarm_size, 2)) * (upper - lower)
    velocity = np.zeros_like(position)
    best_position = position.copy()
    best_fitness = np.full(config.swarm_size, np.nan)
    stops = np.zeros(3, dtype=np.int64)
    trace, history = [], []
    for iteration in range(config.iterations + 1):
        if iteration:
            position, velocity = step(position, velocity, best_position, g_best, config, rng)
        values, moved_stops = score(position)
        stops = stops + moved_stops
        fitness = np.array(values, dtype=np.float64)
        # the first evaluation is every particle's best, whatever its value
        improved = (fitness > best_fitness) | (iteration == 0)
        best_fitness[improved] = fitness[improved]
        best_position[improved] = position[improved]
        best_index = int(np.argmax(best_fitness))
        if iteration == 0 or best_fitness[best_index] > g_fitness:
            g_fitness = float(best_fitness[best_index])
            g_best = best_position[best_index].copy()
        history.append(g_fitness)
        # C and gamma as powers of numpy scalars: the array form of the
        # power can differ in the last bit
        trace += [
            (iteration, idx, 10.0 ** position[idx, 0], 10.0 ** position[idx, 1], value, g_fitness)
            for idx, value in enumerate(values)
        ]

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
