"""Golden bytes of every table the package writes.

Each writer gets a tiny fixed input holding the values whose text is easy
to get wrong: an ``Emotion`` label (``str`` of an IntEnum differs between
Python 3.10 and 3.11), numpy integers, ``-0.0``, ``1e-05`` and ``0.1 + 0.2``.
The expected text is literal, so any change of layout or float formatting
fails here.
"""

import numpy as np

from ecgemotion import cli, evaluation, features, forest, knn, pso, svm, synthgen
from ecgemotion.types import Emotion, SignalRecord

TRICKY = [1e-05, 0.1 + 0.2, -0.0, 1.0]
ROWS = np.array([[1e-05, -0.0], [0.1 + 0.2, 1.0]])
LABELS = [Emotion.CALM, np.int64(3)]
FEATURES_TEXT = "label,f1,f2\n2,1e-05,-0.0\n3,0.30000000000000004,1.0\n"


def _report():
    return evaluation.RecognitionReport([TRICKY, [0.5, 0.25, 0.75, 1.0]])


def test_runs_csv_bytes():
    assert evaluation.runs_csv(_report()) == (
        "run,happy,exciting,calm,tense,overall\n"
        "0,1e-05,0.30000000000000004,-0.0,1.0,0.3250025\n"
        "1,0.5,0.25,0.75,1.0,0.625\n"
    )


def test_report_csv_bytes():
    assert evaluation.report_csv(_report()) == (
        "emotion,highest,lowest,average\n"
        "happy,0.5,1e-05,0.250005\n"
        "exciting,0.30000000000000004,0.25,0.275\n"
        "calm,0.75,-0.0,0.375\n"
        "tense,1.0,1.0,1.0\n"
        "overall,0.625,0.3250025,0.47500125000000004\n"
    )


def test_report_text_bytes():
    assert evaluation.report_text(_report()) == (
        "                             Happy  Exciting      Calm     Tense   Overall\n"
        "Highest recognition rate       50%       30%       75%      100%     62.5%\n"
        "Lowest recognition rate         0%       25%       -0%      100%     32.5%\n"
        "Average recognition rate       25%     27.5%     37.5%      100%     47.5%\n"
    )


def test_confusion_csv_bytes():
    cm = evaluation.ConfusionMatrix(np.arange(16, dtype=np.int64).reshape(4, 4))
    assert evaluation.confusion_csv(cm) == (
        "true_label,pred_0,pred_1,pred_2,pred_3\n"
        "0,0,1,2,3\n"
        "1,4,5,6,7\n"
        "2,8,9,10,11\n"
        "3,12,13,14,15\n"
    )


def test_curve_csv_bytes():
    points = [(np.int64(3), 0.1 + 0.2), (10, 1e-05)]
    assert evaluation.curve_csv("k", points) == "k,mean_rate\n3,0.30000000000000004\n10,1e-05\n"
    points = [(np.int64(30), -0.0), (40, 0.1 + 0.2)]
    assert evaluation.ge_curve_csv(points) == (
        "trees,mean_generalization_error\n30,-0.0\n40,0.30000000000000004\n"
    )


def test_pso_trace_csv_bytes():
    result = pso.PsoResult(1.0, 2.0, 0.5, trace=[(0, np.int64(1), 0.1 + 0.2, 1e-05, -0.0, 1.0)])
    assert evaluation.pso_trace_csv(result) == (
        "iteration,particle,c,gamma,fitness,global_best_fitness\n"
        "0,1,0.30000000000000004,1e-05,-0.0,1.0\n"
    )


def test_feature_csv_bytes(tmp_path):
    features.save_features(ROWS, LABELS, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_text() == FEATURES_TEXT


def test_knn_model_bytes(tmp_path):
    knn.save_model(knn.KnnModel(ROWS, LABELS, 1, "minkowski", 3), tmp_path / "m.knn")
    assert (tmp_path / "m.knn").read_text() == "knn v1 k=1 metric=minkowski p=3.0\n" + FEATURES_TEXT


def test_svm_model_bytes(tmp_path):
    pair = svm.BinarySvmModel(ROWS, np.array([1e-05, -0.0]), 0.1 + 0.2, None)
    model = svm.MulticlassSvmModel(dict.fromkeys(svm.PAIRS, pair), 2, svm.SvmParams(c=0.1 + 0.2, gamma=1e-05))
    svm.save_model(model, tmp_path / "m.svm")
    header = "svm v1 classes=4 gamma=1e-05 c=0.30000000000000004 features=2\n"
    assert (tmp_path / "m.svm").read_text() == header + "".join(
        f"pair {a} {b} bias=0.30000000000000004 nsv=2\n1e-05,1e-05,-0.0\n-0.0,0.30000000000000004,1.0\n"
        for a, b in svm.PAIRS
    )
    svm.save_model(svm.load_model(tmp_path / "m.svm"), tmp_path / "again.svm")
    assert (tmp_path / "again.svm").read_text() == (tmp_path / "m.svm").read_text()


FOREST_TEXT = (
    "tree 0 nodes=3\nn,1,-0.0,1,2\nl,1,0,0,0\nl,0,2,0,0\n"
    "tree 1 nodes=5\nn,0,1e-05,1,4\nn,1,0.30000000000000004,2,3\nl,0,0,3,0\nl,0,0,0,4\nl,1,1,0,0\n"
)


def _tree(feature, threshold, children, counts):
    left, right = np.array(children, dtype=np.int64).T
    return forest.DecisionTree(np.array(feature), np.array(threshold), left, right, np.array(counts))


def test_forest_model_bytes(tmp_path):
    trees = [
        _tree([1, -1, -1], [-0.0, np.nan, np.nan], [(1, 2), (-1, -1), (-1, -1)],
              [[0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0]]),
        _tree([0, 1, -1, -1, -1], [1e-05, 0.1 + 0.2, np.nan, np.nan, np.nan],
              [(1, 4), (2, 3), (-1, -1), (-1, -1), (-1, -1)],
              [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4], [1, 1, 0, 0]]),
    ]
    forest.save_model(forest.ForestModel(trees, 1, 2), tmp_path / "m.forest")
    expected = "forest v1 trees=2 features_per_split=1 dim=2\n" + FOREST_TEXT
    assert (tmp_path / "m.forest").read_text() == expected
    forest.save_model(forest.load_model(tmp_path / "m.forest"), tmp_path / "again.forest")
    assert (tmp_path / "again.forest").read_text() == expected


def test_signal_csv_bytes(tmp_path):
    record = SignalRecord([1e-05, -0.0, 0.1 + 0.2], 128, Emotion.CALM, np.int64(4))
    synthgen.save_record(record, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == (
        "label,subject,fs\n2,4,128.0\n1e-05\n-0.0\n0.30000000000000004\n"
    )


def test_prediction_csv_bytes(tmp_path):
    features.save_features(ROWS, LABELS, tmp_path / "f.csv")
    knn.save_model(knn.KnnModel(ROWS, LABELS, 1), tmp_path / "m.knn")
    argv = ["predict", "--model", str(tmp_path / "m.knn"), "--features", str(tmp_path / "f.csv")]
    assert cli.main(argv + ["--out", str(tmp_path / "p.csv")]) == 0
    assert (tmp_path / "p.csv").read_text() == "label\n2\n3\n"


def test_feature_csv_reads_back_contiguous(tmp_path):
    (tmp_path / "f.csv").write_text(FEATURES_TEXT)
    x, codes = features.load_features(tmp_path / "f.csv")
    assert x.tobytes() == ROWS.tobytes() and codes.tolist() == [2, 3]
    assert x.dtype == np.float64 and codes.dtype == np.int64
    assert x.flags.c_contiguous and codes.flags.c_contiguous
