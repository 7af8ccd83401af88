import numpy as np
import pytest

from ecgemotion import evaluation, forest, knn, pso, svm
from ecgemotion.config import PipelineConfig
from ecgemotion.types import ParameterError
from ecgemotion.utils import distinct_rows

from oracles import distinct_rows_structured

# the PSO subsample draws codes 0-3 only, two rows each
TUNE_CFG = PipelineConfig(pso_subsample=8, pso_swarm_size=2, pso_iterations=0, pso_cv_folds=2, seed=0)

# each learner as (fit(x, codes) -> model, batch predictor or None)
LEARNERS = {
    "svm": (lambda x, codes: svm.train_multiclass((x, codes), svm.SvmParams(c=1.0, gamma=0.5)),
            svm.predict_multiclass_batch),
    "forest": (lambda x, codes: forest.train_forest(x, codes, num_trees=2), forest.predict_forest_batch),
    "knn": (lambda x, codes: knn.KnnModel(x, codes, 1), knn.predict_knn_batch),
    "pso": (lambda x, codes: pso.CvSvmFitness(x, codes, folds=2, seed=0), None),
    "tune": (lambda x, codes: evaluation.tune_svm((x, codes), TUNE_CFG), None),
}


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_learners_share_the_input_contract(name):
    fit, predict = LEARNERS[name]
    x = np.random.default_rng(0).normal(size=(12, 3))
    codes = np.arange(12) % 4
    poisoned = x.copy()
    poisoned[4, 1] = np.nan
    for bad_code in (7, -1):
        bad = codes.copy()
        bad[5] = bad_code
        with pytest.raises(ParameterError):
            fit(x, bad)
    # rows with no columns: an SVM used to train on them silently, the forest
    # to fail inside NumPy, and K-NN to predict class 0 for every row
    for rows, labels in ((poisoned, codes), (x, codes[:-1]), (x[:0], codes[:0]), (x[:, :0], codes)):
        with pytest.raises(ParameterError):
            fit(rows, labels)
    if name == "pso":
        for folds in (1, 0):  # one fold leaves no rows to fit on, zero no fold at all
            with pytest.raises(ParameterError, match="cv_folds"):
                pso.CvSvmFitness(x, codes, folds, seed=0)
    if predict is not None:
        model = fit(x, codes)
        assert predict(model, x[:2]).shape == (2,)
        for queries in (np.zeros((2, 4)), np.zeros((2, 2)), poisoned[3:6]):
            with pytest.raises(ParameterError):
                predict(model, queries)


def test_distinct_rows_first_occurrence_order_and_counts():
    x = np.array(
        [
            [3.0, 1.0],
            [0.0, 2.0],
            [3.0, 1.0],
            [-1.0, 5.0],
            [-0.0, 2.0],  # the same row as [0.0, 2.0]
            [3.0, 1.0],
            [-1.0, 5.0],
        ]
    )
    first, copy, counts = distinct_rows(x)
    assert first.tolist() == [0, 1, 3]
    assert copy.tolist() == [0, 1, 0, 2, 1, 0, 2]
    assert counts.tolist() == [3, 2, 2]
    assert np.array_equal(x[first][copy], x)


def _assert_same_groups(x):
    ours, reference = distinct_rows(x), distinct_rows_structured(x)
    for got, want in zip(ours, reference):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    first, copy, _ = ours
    assert np.array_equal(x[first][copy], x)


def test_distinct_rows_equals_structured_unique():
    rng = np.random.default_rng(3)
    for n, pool, d in ((4000, 1950, 75), (500, 7, 3), (60, 60, 2), (300, 1, 5)):
        # heavy duplication: n rows drawn from `pool` distinct ones
        base = rng.normal(size=(pool, d)).round(1)
        _assert_same_groups(base[rng.integers(0, pool, n)])
    # +-0.0 twins, in every position and both orders of first occurrence
    signs = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [-0.0, -1.0, -0.0],
                      [0.0, -1.0, 0.0], [-0.0, 1.0, -0.0], [2.0, 0.0, 0.0]])
    _assert_same_groups(signs)
    assert distinct_rows(signs)[2].tolist() == [4, 2, 1]
    # a column slice and a Fortran-order array, neither C-contiguous
    wide = rng.normal(size=(200, 9)).round(0)
    sliced = wide[:, 2:5]
    assert not sliced.flags.c_contiguous
    _assert_same_groups(sliced)
    fortran = np.asfortranarray(wide[:, :4])
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    _assert_same_groups(fortran)
    # one row
    _assert_same_groups(np.array([[1.5, -0.0, 3.0]]))
    assert [a.tolist() for a in distinct_rows(np.array([[1.5, -0.0]]))] == [[0], [0], [1]]
