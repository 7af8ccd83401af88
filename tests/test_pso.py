import numpy as np
import pytest

from ecgemotion import pso, svm
from ecgemotion.pso import CvSvmFitness, PsoConfig, optimize, step
from ecgemotion.types import ParameterError

from oracles import make_blobs, optimize_loop, per_pair_cv_fitness

WIDE = dict(log10_c_bounds=(-5.0, 5.0), log10_gamma_bounds=(-5.0, 5.0))


class FixedRng:
    """rng stub returning a constant for every uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class RecordingRng:
    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, shape):
        value = self.rng.random(shape)
        self.draws.append(value)
        return value


class ReplayRng:
    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, shape):
        value = self.draws.pop(0)
        assert value.shape == shape
        return value


def swarm_of(pos, vel, best=None):
    """(position, velocity, best position) arrays of shape (S, 2)."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    vel = np.atleast_2d(np.asarray(vel, dtype=float))
    best = pos.copy() if best is None else np.atleast_2d(np.asarray(best, dtype=float))
    return pos, vel, best


def test_step_zero_attraction_advances_by_velocity():
    cfg = PsoConfig(swarm_size=1, c1=0.0, c2=0.0, inertia=1.0, **WIDE)
    pos, vel, best = swarm_of([0.0, 0.0], [0.5, -0.25])
    position, velocity = step(pos, vel, best, np.array([3.0, 3.0]), cfg, FixedRng(0.9))
    assert np.allclose(velocity[0], [0.5, -0.25])
    assert np.allclose(position[0], [0.5, -0.25])


def test_fixed_point_never_moves():
    cfg = PsoConfig(swarm_size=1, **WIDE)
    x = np.array([1.0, -1.0])
    pos, vel, best = swarm_of(x, [0.0, 0.0], best=x)
    rng = np.random.default_rng(0)
    for _ in range(50):
        pos, vel = step(pos, vel, best, x, cfg, rng)
    assert np.array_equal(pos[0], x)
    assert np.array_equal(vel[0], [0.0, 0.0])


def test_step_matches_update_equation():
    # c1 = c2 = 2, r1 = r2 = 0.5, x = 0, v = 0, bests at (1, 0):
    # v' = 2*0.5*1 + 2*0.5*1 = 2 on the first axis, x' = x + v'
    cfg = PsoConfig(swarm_size=1, c1=2.0, c2=2.0, inertia=1.0, **WIDE)
    pos, vel, best = swarm_of([0.0, 0.0], [0.0, 0.0], best=[1.0, 0.0])
    position, velocity = step(pos, vel, best, np.array([1.0, 0.0]), cfg, FixedRng(0.5))
    assert np.allclose(velocity[0], [2.0, 0.0])
    assert np.allclose(position[0], [2.0, 0.0])


def test_velocity_clamped_and_zeroed_at_bounds():
    cfg = PsoConfig(
        swarm_size=1,
        c1=2.0,
        c2=2.0,
        inertia=1.0,
        velocity_clamp=0.1,
        log10_c_bounds=(-1.0, 1.0),
        log10_gamma_bounds=(-1.0, 1.0),
    )
    pos, vel, best = swarm_of([0.95, 0.0], [0.0, 0.0], best=[1.0, 0.0])
    position, velocity = step(pos, vel, best, np.array([1.0, 0.0]), cfg, FixedRng(1.0))
    # raw velocity 0.2 clamps to 0.1; position 1.05 clamps to the bound with
    # the velocity zeroed on that axis
    assert position[0, 0] == 1.0
    assert velocity[0, 0] == 0.0


def test_single_static_particle_returns_start():
    cfg = PsoConfig(swarm_size=1, iterations=25, c1=0.0, c2=0.0, seed=5)
    target = np.array([0.5, -0.5])
    result = optimize(cfg, lambda p: -float(np.sum((p - target) ** 2)))
    cfg2 = PsoConfig(swarm_size=1, iterations=0, c1=0.0, c2=0.0, seed=5)
    start = optimize(cfg2, lambda p: -float(np.sum((p - target) ** 2)))
    assert result.c == start.c and result.gamma == start.gamma


def test_sphere_benchmark_converges():
    target = np.array([1.5, -1.0])
    cfg = PsoConfig(swarm_size=20, iterations=100, inertia=0.7, seed=11)
    result = optimize(cfg, lambda p: -float(np.sum((p - target) ** 2)))
    best = np.array([np.log10(result.c), np.log10(result.gamma)])
    assert np.linalg.norm(best - target) < 1e-2
    history = np.array(result.history)
    assert (np.diff(history) >= 0).all()


def test_optimize_deterministic():
    target = np.array([0.0, 0.0])
    fn = lambda p: -float(np.sum((p - target) ** 2))
    cfg = PsoConfig(swarm_size=8, iterations=20, inertia=0.7, seed=3)
    a = optimize(cfg, fn)
    b = optimize(cfg, fn)
    assert a.c == b.c and a.gamma == b.gamma and a.history == b.history
    assert a.trace == b.trace


def test_trace_shape_and_history_length():
    cfg = PsoConfig(swarm_size=5, iterations=7, inertia=0.7, seed=2)
    result = optimize(cfg, lambda p: float(-p @ p))
    assert len(result.history) == 8  # initialization plus 7 iterations
    assert len(result.trace) == 5 * 8
    iterations = {row[0] for row in result.trace}
    assert iterations == set(range(8))


def test_replay_reproduces_trajectories():
    cfg = PsoConfig(swarm_size=3, c1=2.0, c2=2.0, inertia=1.0, **WIDE)
    rng = RecordingRng(np.random.default_rng(17))
    pos, vel, best = swarm_of(
        [[0.1 * i, -0.1 * i] for i in range(3)], [[0.05, 0.02]] * 3, best=[[0.5, 0.5]] * 3
    )
    gbest = np.array([0.25, 0.25])
    first = [step(pos, vel, best, gbest, cfg, rng)]
    for _ in range(4):
        first.append(step(*first[-1], best, gbest, cfg, rng))

    replay_rng = ReplayRng(rng.draws)
    second = [step(pos, vel, best, gbest, cfg, replay_rng)]
    for _ in range(4):
        second.append(step(*second[-1], best, gbest, cfg, replay_rng))

    for (pos_a, vel_a), (pos_b, vel_b) in zip(first, second):
        for particle in range(3):
            assert np.array_equal(pos_a[particle], pos_b[particle])
            assert np.array_equal(vel_a[particle], vel_b[particle])


def test_personal_best_dominates():
    cfg = PsoConfig(swarm_size=6, iterations=15, inertia=0.7, seed=9)
    seen = []

    def fn(p):
        value = -float(p @ p)
        seen.append(value)
        return value

    result = optimize(cfg, fn)
    assert result.fitness == max(seen)
    for row in result.trace:
        assert row[5] >= row[4] or np.isclose(row[5], row[4])


def test_cv_fitness_on_blobs():
    rng = np.random.default_rng(6)
    x, y = make_blobs(rng, 15, std=0.1)
    fitness = CvSvmFitness(x, y, folds=3, seed=1)
    good = fitness(np.array([1.0, 0.0]))  # C = 10, gamma = 1
    assert good >= 0.9
    assert fitness(np.array([1.0, 0.0])) == good  # pure function of position


def test_cv_fitness_batch_matches_per_pair_oracle():
    rng = np.random.default_rng(8)
    x, y = make_blobs(rng, 12, std=0.35)
    fitness = CvSvmFitness(x, y, folds=3, seed=2)
    positions = [np.array([rng.uniform(-1.0, 3.0), rng.uniform(-4.0, 1.0)]) for _ in range(12)]
    values, stops = fitness.evaluate(positions)
    assert values == [per_pair_cv_fitness(fitness, p) for p in positions]
    assert fitness(positions[3]) == values[3]
    assert stops.sum() == len(positions) * 3 * 6


def test_cv_fitness_chunks_equal_one_batch(monkeypatch):
    rng = np.random.default_rng(8)
    x, y = make_blobs(rng, 12, std=0.35)
    fitness = CvSvmFitness(x, y, folds=3, seed=2)
    positions = [np.array([rng.uniform(-1.0, 3.0), rng.uniform(-4.0, 1.0)]) for _ in range(12)]
    calls, solve_dual_batch = [], svm.solve_dual_batch

    def solve(kmats, *args):
        calls.append(kmats.nbytes)
        return solve_dual_batch(kmats, *args)

    monkeypatch.setattr(svm, "solve_dual_batch", solve)
    values, stops = fitness.evaluate(positions)
    assert len(calls) == 1

    width = fitness.y.shape[1]
    budget = 5 * 8 * width**2 + 100  # five duals per call
    monkeypatch.setattr(pso, "FITNESS_BATCH_BYTES", budget)
    calls.clear()
    chunked, chunked_stops = fitness.evaluate(positions)
    assert chunked == values
    assert np.array_equal(chunked_stops, stops)
    assert len(calls) == -(-len(positions) * 3 * 6 // 5)
    assert max(calls) <= budget


def test_optimize_matches_per_pair_oracle():
    rng = np.random.default_rng(13)
    x, y = make_blobs(rng, 12, std=0.35)
    cfg = PsoConfig(swarm_size=6, iterations=3, seed=7, cv_folds=3)
    oracle = CvSvmFitness(x, y, cfg.cv_folds, cfg.seed)
    result = optimize(cfg, oracle)
    expected = optimize(cfg, lambda p: per_pair_cv_fitness(oracle, p))
    assert (result.c, result.gamma, result.fitness) == (expected.c, expected.gamma, expected.fitness)
    assert result.history == expected.history
    assert result.trace == expected.trace
    assert result.solves == 4 * 6 * 3 * 6
    assert 0 <= result.capped + result.stalled <= result.solves
    assert expected.solves == 0  # a plain callable reports no duals


def test_cv_fitness_requires_enough_samples():
    x = np.zeros((8, 2))
    y = np.array([0, 0, 0, 1, 1, 2, 2, 3])  # class 3 has one sample
    with pytest.raises(ParameterError):
        CvSvmFitness(x, y, folds=2, seed=0)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, np.nan, np.inf])
def test_cv_fitness_rejects_what_svm_params_rejects(tolerance):
    # inf would end every dual at step 0 and score chance; 0, -1 and NaN
    # would send every dual to its cap or a stall
    rng = np.random.default_rng(3)
    x, y = make_blobs(rng, 10, std=0.1)
    with pytest.raises(ParameterError, match="tolerance"):
        svm.SvmParams(c=1.0, gamma=1.0, tolerance=tolerance)
    with pytest.raises(ParameterError, match="tolerance"):
        CvSvmFitness(x, y, folds=2, seed=0, tolerance=tolerance)


def test_optimize_tunes_blobs():
    rng = np.random.default_rng(12)
    x, y = make_blobs(rng, 10, std=0.1)
    cfg = PsoConfig(swarm_size=5, iterations=4, inertia=0.7, seed=4, cv_folds=2)
    result = optimize(cfg, CvSvmFitness(x, y, cfg.cv_folds, cfg.seed))
    assert 10.0**-1 <= result.c <= 10.0**3
    assert 10.0**-4 <= result.gamma <= 10.0**1
    assert result.fitness >= 0.8


def test_config_validation():
    with pytest.raises(ParameterError):
        PsoConfig(swarm_size=0)
    with pytest.raises(ParameterError):
        PsoConfig(c1=-0.5)
    with pytest.raises(ParameterError):
        PsoConfig(log10_c_bounds=(1.0, 1.0))
    with pytest.raises(ParameterError):
        PsoConfig(cv_folds=1)
    empty = np.empty((0, 2))
    with pytest.raises(ParameterError):
        step(empty, empty, empty, np.zeros(2), PsoConfig(), np.random.default_rng(0))


def sphere(target):
    return lambda p: -float(np.sum((p - np.asarray(target)) ** 2))


def holes(p):
    """NaN on one half of the plane and -inf on a strip of the other."""
    if p[0] < 0.0:
        return float("nan")
    if p[1] < -2.0:
        return float("-inf")
    return -float(np.sum((p - np.array([1.5, -1.0])) ** 2))


def plateau(p):
    """A sphere rounded to whole numbers, so that bests tie."""
    return -float(np.round(np.sum((p - np.array([1.0, -1.5])) ** 2)))


def assert_same_result(result, expected):
    assert (result.c, result.gamma) == (expected.c, expected.gamma)
    assert result.fitness == expected.fitness or (np.isnan(result.fitness) and np.isnan(expected.fitness))
    assert np.array_equal(result.history, expected.history, equal_nan=True)
    assert len(result.trace) == len(expected.trace)
    for row, expected_row in zip(result.trace, expected.trace):
        assert row[:4] == expected_row[:4]
        assert np.array_equal(row[4:], expected_row[4:], equal_nan=True)
    assert (result.solves, result.capped, result.stalled) == (
        expected.solves,
        expected.capped,
        expected.stalled,
    )


@pytest.mark.parametrize(
    "settings",
    [
        dict(seed=seed, inertia=inertia, velocity_clamp=clamp, swarm_size=size, iterations=12)
        for seed, inertia, clamp, size in (
            (0, 1.0, 0.5, 20),
            (1, 0.7, 0.5, 20),
            (2, 1.0, 0.1, 7),
            (3, 0.7, 0.1, 7),
            (4, 1.0, 0.5, 1),
            (5, 0.7, 0.1, 1),
        )
    ],
)
@pytest.mark.parametrize("fitness", [sphere([1.5, -1.0]), sphere([3.0, 1.0]), holes, plateau])
def test_optimize_equals_particle_loop(settings, fitness):
    cfg = PsoConfig(**settings)
    assert_same_result(optimize(cfg, fitness), optimize_loop(cfg, fitness))


def test_optimize_equals_particle_loop_on_cv_fitness():
    rng = np.random.default_rng(13)
    x, y = make_blobs(rng, 12, std=0.35)
    cfg = PsoConfig(swarm_size=5, iterations=3, inertia=0.7, seed=21, cv_folds=3)
    result = optimize(cfg, CvSvmFitness(x, y, cfg.cv_folds, cfg.seed))
    expected = optimize_loop(cfg, CvSvmFitness(x, y, cfg.cv_folds, cfg.seed))
    assert_same_result(result, expected)
    assert result.trace == expected.trace and result.solves == 4 * 5 * 3 * 6
