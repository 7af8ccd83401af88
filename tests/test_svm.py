import warnings

import numpy as np
import pytest

from ecgemotion import svm
from ecgemotion.svm import (
    BinarySvmModel,
    MulticlassSvmModel,
    SvmParams,
    decision_values,
    kkt_max_violation,
    load_model,
    predict_multiclass_batch,
    rbf_kernel_matrix,
    save_model,
    train_binary,
    train_multiclass,
)
from ecgemotion.types import DataFormatError, Emotion, ParameterError

from oracles import bias_loop, dual_objective, kkt_residual_loop, maximize_dual, rbf_matrix, solve_dual_loop


def rbf_kernel(x, y, gamma):
    """One entry of the production kernel matrix, for two vectors."""
    return rbf_kernel_matrix(np.atleast_2d(x), np.atleast_2d(y), gamma)[0, 0]


def test_rbf_identity():
    x = np.array([1.0, -2.0, 3.0])
    assert rbf_kernel(x, x, 0.5) == 1.0


def test_rbf_reference_value():
    # squared distance 100 at gamma 0.016 -> exp(-1.6)
    assert rbf_kernel(np.zeros(1), np.array([10.0]), 0.016) == pytest.approx(
        0.2018965, abs=1e-6
    )


def test_rbf_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=(2, 6))
        k = rbf_kernel(x, y, 0.3)
        assert k == rbf_kernel(y, x, 0.3)
        assert 0.0 < k <= 1.0


def test_kernel_matrix_positive_semidefinite():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    k = rbf_kernel_matrix(x, x, 0.8)
    assert np.allclose(k, k.T)
    assert np.linalg.eigvalsh(k).min() >= -1e-9


def test_gamma_monotonicity():
    x = np.array([0.0, 1.0])
    y = np.array([1.0, 3.0])
    values = [rbf_kernel(x, y, g) for g in (0.01, 0.1, 1.0, 10.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_separable_pair():
    x = np.array([[0.0], [2.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary(x, y, SvmParams(c=1e6, gamma=1e-6))
    assert np.sign(decision_values(model, x)).tolist() == [-1, 1]


def test_midpoint_decision_zero():
    x = np.array([[0.0], [2.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary(x, y, SvmParams(c=1e6, gamma=0.5))
    assert decision_values(model, np.array([[1.0]]))[0] == pytest.approx(0.0, abs=1e-9)


def test_xor_perfect_training_accuracy():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = train_binary(x, y, SvmParams(c=10.0, gamma=1.0))
    assert np.all(np.sign(decision_values(model, x)) == y)
    assert kkt_max_violation(model, x, y) <= 1e-3


def small_instances():
    rng = np.random.default_rng(99)
    cases = [
        (np.array([[0.0], [2.0]]), np.array([1.0, -1.0]), 10.0, 0.5),
        (
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([1.0, 1.0, -1.0, -1.0]),
            10.0,
            1.0,
        ),
        (rng.normal(size=(6, 2)), np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), 1.0, 0.7),
        (rng.normal(size=(6, 3)), np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]), 100.0, 0.2),
        (rng.normal(size=(5, 2)), np.array([1.0, 1.0, -1.0, -1.0, -1.0]), 0.5, 1.5),
    ]
    return cases


@pytest.mark.parametrize("case", range(5))
def test_dual_objective_matches_oracle(case):
    x, y, c, gamma = small_instances()[case]
    kmat = rbf_matrix(x, gamma)
    model = train_binary(x, y, SvmParams(c=c, gamma=gamma, tolerance=1e-5))
    ours = dual_objective(model.alpha, kmat, y)
    reference = dual_objective(maximize_dual(kmat, y, c), kmat, y)
    assert ours == pytest.approx(reference, abs=1e-4)


def test_dual_oracle_agrees_with_slsqp():
    # sanity-check the projected-ascent oracle against an off-the-shelf
    # constrained solver on the stiffest instance (large C)
    from scipy.optimize import minimize

    x, y, c, gamma = small_instances()[3]
    kmat = rbf_matrix(x, gamma)
    q = np.outer(y, y) * kmat
    res = minimize(
        lambda a: 0.5 * a @ q @ a - a.sum(),
        np.full(len(y), 0.5),
        jac=lambda a: q @ a - 1.0,
        bounds=[(0.0, c)] * len(y),
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    ascent = dual_objective(maximize_dual(kmat, y, c), kmat, y)
    assert ascent == pytest.approx(dual_objective(res.x, kmat, y), abs=1e-6)


def _repeat_rows(x, y, rng):
    """Each row of (x, y) drawn 1 to 4 times, the copies shuffled."""
    drawn = rng.permutation(np.repeat(np.arange(len(y)), rng.integers(1, 5, len(y))))
    return x[drawn], y[drawn]


def test_equality_constraint_and_box():
    x, y, c, gamma = small_instances()[2]
    model = train_binary(x, y, SvmParams(c=c, gamma=gamma))
    assert abs(np.sum(model.alpha * y)) <= 1e-6
    assert (model.alpha >= 0).all() and (model.alpha <= c).all()
    support = model.alpha > 0
    assert model.num_support == support.sum()

    # drawn with repeats: one support vector per distinct row, not per copy.
    # At C = 0.1 multipliers sit on the box, where 3 * 0.1 / 3 > 0.1.
    x, y = _repeat_rows(x, y, np.random.default_rng(8))
    for c in (c, 0.1):
        model = train_binary(x, y, SvmParams(c=c, gamma=gamma))
        assert abs(np.sum(model.alpha * y)) <= 1e-6
        assert (model.alpha >= 0).all() and (model.alpha <= c).all()
        distinct_support = {tuple(row) for row in x[model.alpha > 0]}
        assert len(distinct_support) < (model.alpha > 0).sum()
        assert model.num_support == len(distinct_support)
        assert {tuple(row) for row in model.support_vectors} == distinct_support


@pytest.mark.parametrize("case", range(5))
def test_repeated_rows_solve_the_drawn_dual(case):
    # the distinct-row solve with box [0, m * C], spread back over the
    # copies, must be as good a point of the drawn-row dual as the oracle's
    x, y, c, gamma = small_instances()[case]
    x, y = _repeat_rows(x, y, np.random.default_rng(case))
    kmat = rbf_matrix(x, gamma)
    model = train_binary(x, y, SvmParams(c=c, gamma=gamma, tolerance=1e-5))
    assert len(model.alpha) == len(y)
    ours = dual_objective(model.alpha, kmat, y)
    reference = dual_objective(maximize_dual(kmat, y, c), kmat, y)
    assert ours == pytest.approx(reference, abs=1e-4)
    assert kkt_max_violation(model, x, y) <= 1e-3
    for row in x:
        copies = model.alpha[(x == row).all(axis=1)]
        assert (copies == copies[0]).all()


def test_kkt_invariant_on_blobs(blob_data):
    x_train, y_train, _, _ = blob_data
    mask = (y_train == 0) | (y_train == 1)
    y_pair = np.where(y_train[mask] == 0, 1.0, -1.0)
    model = train_binary(x_train[mask], y_pair, SvmParams(c=10.0, gamma=1.0))
    assert kkt_max_violation(model, x_train[mask], y_pair) <= 1e-3


def test_support_vector_margin():
    x = np.array([[0.0], [2.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary(x, y, SvmParams(c=1e6, gamma=0.5))
    assert np.all(y * decision_values(model, x) >= 1 - 1e-3)


def test_predict_without_support_vectors_errors():
    empty = BinarySvmModel(
        np.empty((0, 2)), np.empty(0), 0.0, SvmParams(c=1.0, gamma=1.0)
    )
    with pytest.raises(ParameterError):
        decision_values(empty, np.zeros((1, 2)))


def test_train_binary_errors():
    with pytest.raises(ParameterError):
        train_binary(np.zeros((2, 1)), np.array([1.0, 1.0]), SvmParams(c=1, gamma=1))
    with pytest.raises(ParameterError):
        train_binary(np.zeros((2, 1)), np.array([0.0, 1.0]), SvmParams(c=1, gamma=1))
    with pytest.raises(ParameterError):
        SvmParams(c=-1, gamma=1)
    for bad in (dict(c=np.nan), dict(gamma=np.nan), dict(tolerance=np.nan), dict(max_passes=-1),
                dict(c=np.inf), dict(gamma=np.inf), dict(tolerance=np.inf)):
        with pytest.raises(ParameterError):
            SvmParams(**{"c": 1.0, "gamma": 1.0, **bad})


def test_dimension_mismatch_on_predict():
    x = np.array([[0.0, 1.0], [2.0, 0.0]])
    model = train_binary(x, np.array([1.0, -1.0]), SvmParams(c=1, gamma=1))
    with pytest.raises(ParameterError):
        decision_values(model, np.zeros((1, 3)))


def test_increasing_c_never_hurts_separable():
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
    y = np.array([1.0] * 20 + [-1.0] * 20)
    errors = []
    for c in (0.1, 1.0, 10.0, 100.0):
        model = train_binary(x, y, SvmParams(c=c, gamma=0.5))
        errors.append(np.mean(np.sign(decision_values(model, x)) != y))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_multiclass_blobs(blob_data):
    x_train, y_train, x_test, y_test = blob_data
    model = train_multiclass((x_train, y_train), SvmParams(c=10.0, gamma=1.0))
    assert len(model.models) == 6
    accuracy = np.mean(predict_multiclass_batch(model, x_test) == y_test)
    assert accuracy >= 0.99


def test_multiclass_determinism(blob_data):
    x_train, y_train, x_test, _ = blob_data
    a = train_multiclass((x_train, y_train), SvmParams(c=10.0, gamma=1.0))
    b = train_multiclass((x_train, y_train), SvmParams(c=10.0, gamma=1.0))
    assert np.array_equal(
        predict_multiclass_batch(a, x_test), predict_multiclass_batch(b, x_test)
    )


def test_multiclass_requires_all_emotions(blob_data):
    x_train, y_train, _, _ = blob_data
    mask = y_train != 2
    with pytest.raises(ParameterError):
        train_multiclass((x_train[mask], y_train[mask]), SvmParams(c=1, gamma=1))


def _stub_binary(bias):
    # one support vector at the origin with negligible weight: the decision
    # value is effectively the bias
    return BinarySvmModel(
        np.zeros((1, 2)), np.array([1e-12]), bias, SvmParams(c=1.0, gamma=1.0)
    )


def test_unanimous_vote_is_calm():
    models = {}
    for a in range(4):
        for b in range(a + 1, 4):
            if a == 2:
                bias = 10.0
            elif b == 2:
                bias = -10.0
            else:
                bias = 10.0
            models[(a, b)] = _stub_binary(bias)
    model = MulticlassSvmModel(models, 2, SvmParams(c=1.0, gamma=1.0))
    assert predict_multiclass_batch(model, np.zeros((1, 2)))[0] == Emotion.CALM


def test_vote_tie_returns_lowest_code():
    # a 2/2/2 cyclic tie among codes 0, 1, 2 resolves to Happy (code 0);
    # two classes can never tie 3/3 in one-vs-one voting because they meet
    # head-to-head in exactly one of the six pairs
    outcomes = {
        (0, 1): 10.0,   # 0 beats 1
        (0, 2): -10.0,  # 2 beats 0
        (0, 3): 10.0,   # 0
        (1, 2): 10.0,   # 1
        (1, 3): 10.0,   # 1
        (2, 3): 10.0,   # 2
    }
    models = {pair: _stub_binary(bias) for pair, bias in outcomes.items()}
    model = MulticlassSvmModel(models, 2, SvmParams(c=1.0, gamma=1.0))
    assert predict_multiclass_batch(model, np.zeros((1, 2)))[0] == Emotion.HAPPY
    # a decision value of exactly 0 votes for the pair's first class: here
    # (0, 1) at 0.0 makes 0 tie 1 and 3 at two votes; without it 1 would win
    decisions = [0.0, 1.0, -1.0, 1.0, 1.0, -1.0]  # in svm.PAIRS order
    assert svm.vote([np.array([d]) for d in decisions]).tolist() == [0]


def test_model_file_roundtrip(tmp_path, blob_data):
    x_train, y_train, x_test, _ = blob_data
    model = train_multiclass((x_train, y_train), SvmParams(c=10.0, gamma=1.0))
    path = tmp_path / "model.svm"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(
        predict_multiclass_batch(loaded, x_test), predict_multiclass_batch(model, x_test)
    )
    for pair, binary in model.models.items():
        assert np.array_equal(loaded.models[pair].support_vectors, binary.support_vectors)
        assert np.array_equal(loaded.models[pair].dual_coefs, binary.dual_coefs)
        assert loaded.models[pair].bias == binary.bias


def _batch_problems(rng, count):
    """Duals of mixed sizes: every third has duplicated rows (exact ties in
    the working-set choice), every fifth a cap of a few steps, every fourth
    a C small enough to put multipliers on the box."""
    problems = []
    for b in range(count):
        n = int(rng.integers(2, 25))
        x = rng.normal(size=(n, 3))
        if b % 3 == 0:
            x[n // 2 :] = x[: n - n // 2]
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        c = 0.02 if b % 4 == 0 else 10.0 ** rng.uniform(-1.0, 3.0)
        cap = int(rng.integers(1, 6)) if b % 5 == 0 else 10 * n
        kmat = rbf_kernel_matrix(x, x, 10.0 ** rng.uniform(-2.0, 1.0))
        problems.append((kmat, y, c, cap))
    return problems


def _padded(problems):
    """The problems as one batch padded to the widest: (kmats, ys, cs, caps)."""
    width = max(len(y) for _, y, _, _ in problems)
    kmats = np.zeros((len(problems), width, width))
    ys = np.zeros((len(problems), width))
    for b, (kmat, y, _, _) in enumerate(problems):
        kmats[b, : len(y), : len(y)] = kmat
        ys[b, : len(y)] = y
    return kmats, ys, [c for _, _, c, _ in problems], [cap for _, _, _, cap in problems]


def _solve_padded(problems, tolerance):
    kmats, ys, cs, caps = _padded(problems)
    return svm.solve_dual_batch(kmats, ys, cs, tolerance, caps)


def _assert_rows_equal_scalar(problems, solved, tolerance):
    """Row b of a batch solve is ``solve_dual`` on problem b, bit for bit, and
    its step count is the shortest cap that reproduces that solve."""
    alpha, bias, steps, stops = solved
    for b, (kmat, y, c, cap) in enumerate(problems):
        n = len(y)
        ref_alpha, ref_bias = svm.solve_dual(kmat, y, c, tolerance, cap)
        assert np.array_equal(alpha[b, :n], ref_alpha)
        assert (alpha[b, n:] == 0.0).all()
        assert bias[b] == ref_bias
        again, again_bias = svm.solve_dual(kmat, y, c, tolerance, int(steps[b]))
        assert np.array_equal(again, ref_alpha) and again_bias == ref_bias
        if steps[b] > 0:
            shorter, _ = svm.solve_dual(kmat, y, c, tolerance, int(steps[b]) - 1)
            assert not np.array_equal(shorter, ref_alpha)
        assert (steps[b] == cap) == (stops[b] == svm.CAPPED)


def _stalling_problem():
    """A dual built to stop STALLED on its second step. Rows 0 (+1) and 1
    (-1) are nearly the same point, so the first step, which takes row 0
    over the tied row 2, gives both a multiplier of about 1000. Row 2 (+1)
    has a kernel diagonal of 1e16: the next step pairs it with row 0 or 1,
    and its analytic move of about 1e-16 is below the last bit of 1000."""
    kmat = np.array([[1.0, 0.999, 0.0], [0.999, 1.0, 0.0], [0.0, 0.0, 1e16]])
    return kmat, np.array([1.0, -1.0, 1.0]), 1e6, 30


@pytest.mark.parametrize("tolerance", [1e-3, 1e-15])
def test_batch_dual_bit_identical_to_scalar(tolerance):
    # 1e-15 runs the generated duals to the limit of their arithmetic; the
    # last problem is built to end on a pair update that no longer moves, so
    # the stalled stop is exercised as well as convergence and the cap
    problems = _batch_problems(np.random.default_rng(21), 90) + [_stalling_problem()]
    alpha, bias, steps, stops = solved = _solve_padded(problems, tolerance)
    _assert_rows_equal_scalar(problems, solved, tolerance)
    assert {svm.CONVERGED, svm.CAPPED, svm.STALLED} <= set(stops)
    assert stops[-1] == svm.STALLED and steps[-1] == 1
    assert any((alpha[b] == c).any() for b, (_, _, c, _) in enumerate(problems))


def _pso_scale_problems(rng, count=600):
    """Duals at the PSO fitness's batch shape (20 particles x 5 folds x 6
    pairs, padded to 48 rows): two overlapping clusters of 40 to 48 points,
    at C and gamma drawn from the swarm's search box. Every ninth has a cap
    of a few dozen steps; five are the stalling dual."""
    problems = []
    for b in range(count):
        n = int(rng.integers(40, 49))
        y = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        x = rng.normal(size=(n, 6)) + 0.6 * y[:, None]
        kmat = rbf_kernel_matrix(x, x, 10.0 ** rng.uniform(-4.0, 1.0))
        cap = int(rng.integers(5, 60)) if b % 9 == 0 else 10 * n
        problems.append((kmat, y, 10.0 ** rng.uniform(-1.0, 3.0), cap))
    for b in np.linspace(1, count - 1, 5).astype(int):
        problems[b] = _stalling_problem()
    return problems


def test_batch_dual_bit_identical_to_scalar_at_pso_scale():
    problems = _pso_scale_problems(np.random.default_rng(24))
    kmats, ys, cs, caps = _padded(problems)
    inputs = kmats.copy(), ys.copy()
    solved = svm.solve_dual_batch(kmats, ys, cs, 1e-3, caps)
    assert kmats.shape == (600, 48, 48)
    # the solver reads and writes through flat views; its inputs stay as they were
    assert np.array_equal(kmats, inputs[0]) and np.array_equal(ys, inputs[1])
    _assert_rows_equal_scalar(problems, solved, 1e-3)
    _, _, steps, stops = solved
    assert np.bincount(stops, minlength=3)[svm.STALLED] == 5
    # short caps and full ones end CAPPED, so duals leave the batch all through the run
    capped = stops == svm.CAPPED
    assert capped.sum() >= 50 and (capped & (np.array(caps) >= 400)).any()
    assert len(np.unique(steps)) >= 150


def test_batch_dual_zero_cap_and_single_problem():
    kmat, y, c, _ = _batch_problems(np.random.default_rng(4), 1)[0]
    alpha, bias, steps, stops = svm.solve_dual_batch(kmat[None], y[None], c, 1e-3, 0)
    ref_alpha, ref_bias = svm.solve_dual(kmat, y, c, 1e-3, 0)
    assert np.array_equal(alpha[0], ref_alpha) and bias[0] == ref_bias
    assert steps[0] == 0 and stops[0] == svm.CAPPED


def test_exact_ties_go_to_the_lowest_index(monkeypatch):
    # three copies of one point labelled -1 and three of another labelled
    # +1: at step 0 every alpha is 0 and e = -y, so each side of the
    # working set is an exact three-way tie, and the first step must move
    # the lowest +1 row (2) and the lowest -1 row (0)
    y = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    x = np.where(y[:, None] > 0, [[1.0, 0.0]], [[0.0, 1.0]])
    kmat = rbf_kernel_matrix(x, x, 0.5)

    def no_generator(*args, **kwargs):
        raise AssertionError("the solvers draw no random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    one_step = svm.solve_dual(kmat, y, 10.0, 1e-3, 1)[0]
    batch = svm.solve_dual_batch(kmat[None], y[None], 10.0, 1e-3, 1)[0][0]
    assert np.flatnonzero(one_step).tolist() == [0, 2]
    assert np.array_equal(batch, one_step)
    # a full solve twice, and once in a batch, gives the same bits
    first, first_bias = svm.solve_dual(kmat, y, 10.0, 1e-3, 60)
    again, again_bias = svm.solve_dual(kmat, y, 10.0, 1e-3, 60)
    alpha, bias, _, _ = svm.solve_dual_batch(kmat[None], y[None], 10.0, 1e-3, 60)
    assert np.array_equal(first, again) and first_bias == again_bias
    assert np.array_equal(alpha[0], first) and bias[0] == first_bias


def _finished_rows(rng, c=2.0, n=48):
    """Hand-built finished duals (alpha, e, y) of width n, padded as the
    batch solver pads: y = 0, alpha = 0 and e = +inf past each row's size.
    First rows with 1, 7, 8, 9, 20 and 48 free multipliers, three of each
    at scattered places, across NumPy's 8-wide pairwise-sum unroll; at 20
    and 48 every multiplier is free. Then rows with none free: both movable
    sets non-empty, only can-increase, only can-decrease, and an
    all-padding row in neither."""
    rows = []
    for free in (1, 7, 8, 9, 20, 48) * 3:
        size = free if free >= 20 else int(rng.integers(12, n + 1))
        y = np.where(rng.random(size) < 0.5, 1.0, -1.0)
        alpha = np.where(rng.random(size) < 0.5, 0.0, c)
        alpha[rng.choice(size, free, replace=False)] = rng.uniform(0.1, c - 0.1, free)
        rows.append((alpha, y, size))
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    rows += [(np.where(y > 0, 0.0, c) * (np.arange(20) % 4 < 2), y, 20),
             (np.where(y > 0, 0.0, c), y, 20),
             (np.where(y > 0, c, 0.0), y, 20),
             (np.zeros(0), np.zeros(0), 0)]
    alpha_all, y_all = np.zeros((len(rows), n)), np.zeros((len(rows), n))
    e_all = np.full((len(rows), n), np.inf)
    for r, (alpha, y, size) in enumerate(rows):
        alpha_all[r, :size], y_all[r, :size] = alpha, y
        # y - f spread over six decades, so the order of a sum shows
        e_all[r, :size] = rng.normal(size=size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    return alpha_all, e_all, y_all


def test_bias_rows_equal_the_per_row_loop():
    c = 2.0
    alpha, e, y = _finished_rows(np.random.default_rng(31), c)
    free = ((alpha > 1e-12) & (alpha < c - 1e-12)).sum(axis=1)
    assert {1, 7, 8, 9, 20, 48} <= set(free.tolist()) and (free == 0).sum() == 4
    can_up, can_dn = svm._movable(y[-4:], alpha[-4:], c)
    assert can_up.any(axis=1).tolist() == [True, True, False, False]
    assert can_dn.any(axis=1).tolist() == [True, False, True, False]
    expected = np.array([bias_loop(*row, c) for row in zip(alpha, e, y)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no -inf + inf on the no-free rows
        batch = svm._biases(alpha, e, y, c)
        one_at_a_time = np.array([svm._biases(*(row[None] for row in rows), c)[0] for rows in zip(alpha, e, y)])
    assert batch.tobytes() == expected.tobytes()
    assert one_at_a_time.tobytes() == expected.tobytes()
    assert expected[-1] == 0.0  # the all-padding row


@pytest.mark.parametrize("tolerance", [1e-3, 1e-15])
def test_solve_dual_equals_loop(tolerance):
    # duplicated rows (exact ties in the working-set choice), caps of a few
    # steps, C = 0.02, a zero cap and a solve that ends on a stalled pair
    problems = _batch_problems(np.random.default_rng(33), 60)
    kmat, y, c, _ = problems[0]
    problems += [(kmat, y, c, 0), _stalling_problem()]
    for kmat, y, c, cap in problems:
        alpha, bias = svm.solve_dual(kmat, y, c, tolerance, cap)
        ref_alpha, ref_bias = solve_dual_loop(kmat, y, c, tolerance, cap)
        assert np.array_equal(alpha, ref_alpha)
        assert bias == ref_bias


def test_solve_dual_per_row_box():
    rng = np.random.default_rng(17)
    for kmat, y, c, cap in _batch_problems(rng, 40):
        c_rows = c * rng.integers(1, 5, len(y))
        alpha, _ = svm.solve_dual(kmat, y, c_rows, 1e-3, cap)
        assert (alpha >= 0.0).all() and (alpha <= c_rows).all()
        assert abs(np.dot(alpha, y)) <= 1e-9 * max(1.0, c_rows.max())
        # one box for every row, given per row, is the scalar solve
        same, bias = svm.solve_dual(kmat, y, np.full(len(y), c), 1e-3, cap)
        ref, ref_bias = svm.solve_dual(kmat, y, c, 1e-3, cap)
        assert np.array_equal(same, ref) and bias == ref_bias


def _crossing_problems(rng, count):
    """Small duals whose boxes are small next to the first steps' moves, so
    a multiplier can go from 0 to its box, or back, in one step. Odd ones
    have one box per row; every fifth has a cap of a few steps."""
    problems = []
    for b in range(count):
        n = int(rng.integers(2, 12))
        x = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        c = 10.0 ** rng.uniform(-1.5, 1.0)
        if b % 2:
            c = c * rng.integers(1, 4, n)
        cap = int(rng.integers(1, 6)) if b % 5 == 0 else 10 * n
        kmat = rbf_kernel_matrix(x, x, 10.0 ** rng.uniform(-2.0, 0.5))
        problems.append((kmat, y, c, cap))
    return problems


def _box_crossings(kmat, y, c, tolerance, cap):
    """(rises, falls): how many times one step of the oracle's solve took a
    multiplier from 0 straight to its box, and from its box straight to 0.
    Either move takes the row from one one-sided working set to the other:
    at 0 a y = +1 row can only increase, at its box it can only decrease."""
    c = np.broadcast_to(c, y.shape)
    rises = falls = 0
    before, _ = solve_dual_loop(kmat, y, c, tolerance, 0)
    for steps in range(1, cap + 1):
        after, _ = solve_dual_loop(kmat, y, c, tolerance, steps)
        if np.array_equal(after, before):  # every step moves a multiplier, so the solve ended
            break
        rises += int(((before == 0.0) & (after == c)).sum())
        falls += int(((before == c) & (after == 0.0)).sum())
        before = after
    return rises, falls


@pytest.mark.parametrize("tolerance", [1e-3, 1e-15])
def test_multipliers_that_change_working_set(tolerance):
    # the kept-current scores must move a row between the one-sided sets
    # exactly as a rebuild of both sets would; the stalling dual ends both
    # groups on a pair that cannot move, and the short caps end on the cap
    problems = _crossing_problems(np.random.default_rng(5), 60)
    kmat, y, c, cap = _stalling_problem()
    problems += [(kmat, y, c, cap), (kmat, y, np.full(len(y), c), cap)]
    scalar = [b for b, problem in enumerate(problems) if np.ndim(problem[2]) == 0]
    per_row = [b for b in range(len(problems)) if b not in scalar]
    crossings = []
    for kmat, y, c, cap in problems:
        alpha, bias = svm.solve_dual(kmat, y, c, tolerance, cap)
        ref_alpha, ref_bias = solve_dual_loop(kmat, y, c, tolerance, cap)
        assert np.array_equal(alpha, ref_alpha)
        assert bias == ref_bias
        crossings.append(_box_crossings(kmat, y, c, tolerance, cap))
    for group in (scalar, per_row):
        assert any(crossings[b][0] for b in group) and any(crossings[b][1] for b in group)

    # the batch solver takes one box per problem
    alpha, bias, steps, stops = _solve_padded([problems[b] for b in scalar], tolerance)
    for row, b in enumerate(scalar):
        kmat, y, c, cap = problems[b]
        ref_alpha, ref_bias = solve_dual_loop(kmat, y, c, tolerance, cap)
        assert np.array_equal(alpha[row, : len(y)], ref_alpha)
        assert bias[row] == ref_bias
    assert {svm.CONVERGED, svm.CAPPED, svm.STALLED} <= set(stops)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad, blob_data):
    x_train, y_train, x_test, _ = blob_data
    poisoned = x_train.copy()
    poisoned[3, 1] = bad
    params = SvmParams(c=10.0, gamma=1.0)
    with pytest.raises(ParameterError):
        train_binary(poisoned[:4], np.array([1.0, 1.0, -1.0, -1.0]), params)
    with pytest.raises(ParameterError):
        train_multiclass((poisoned, y_train), params)
    model = train_multiclass((x_train, y_train), params)
    queries = x_test[:3].copy()
    queries[1, 0] = bad
    with pytest.raises(ParameterError):
        predict_multiclass_batch(model, queries)


def test_kkt_max_violation_matches_loop(blob_data):
    x_train, y_train, _, _ = blob_data
    mask = (y_train == 1) | (y_train == 2)
    x, y = x_train[mask], np.where(y_train[mask] == 1, 1.0, -1.0)
    for c, gamma, tolerance in ((10.0, 1.0, 1e-3), (0.05, 0.5, 1e-3), (100.0, 3.0, 0.5)):
        model = train_binary(x, y, SvmParams(c=c, gamma=gamma, tolerance=tolerance))
        assert kkt_max_violation(model, x, y) == kkt_residual_loop(
            model.alpha, y * decision_values(model, x), c
        )


def test_malformed_header_token_is_a_data_error(tmp_path):
    path = tmp_path / "model.svm"
    path.write_text("svm v1 gamma=1 c=1 features\n")
    with pytest.raises(DataFormatError):
        load_model(path)


@pytest.mark.parametrize(
    "header, pair, row",
    [
        ("gamma=nan c=1.0", "bias=0.0", "1.0,0.5"),
        ("gamma=0.5 c=inf", "bias=0.0", "1.0,0.5"),
        ("gamma=0.5 c=1.0", "bias=inf", "1.0,0.5"),
        ("gamma=0.5 c=1.0", "bias=0.0", "nan,0.5"),
        ("gamma=0.5 c=1.0", "bias=0.0", "1.0,-inf"),
    ],
)
def test_non_finite_model_numbers_are_data_errors(tmp_path, header, pair, row):
    path = tmp_path / "model.svm"
    body = "".join(f"pair {a} {b} {pair} nsv=1\n{row}\n" for a, b in svm.PAIRS)
    path.write_text(f"svm v1 classes=4 {header} features=1\n" + body)
    with pytest.raises(DataFormatError):
        load_model(path)
