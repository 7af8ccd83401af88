from pathlib import Path

import numpy as np
import pytest

import oracles
from ecgemotion import evaluation, forest, knn, pso, svm
from ecgemotion.evaluation import (
    ConfusionMatrix,
    FeatureCache,
    RecognitionReport,
    confusion,
    recognition_rates,
    report_csv,
    report_text,
    run_protocol,
    run_repeated,
    runs_csv,
    parse_runs_csv,
    sweep_features,
    sweep_k,
    sweep_trees,
)
from ecgemotion.config import PipelineConfig
from ecgemotion.types import DataFormatError, ParameterError
from ecgemotion.utils import derive_seed, fmt_percent

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_confusion_perfect_prediction():
    labels = np.array([0, 1, 2, 3, 0, 1])
    cm = confusion(labels, labels)
    assert np.array_equal(np.diag(cm.counts), [2, 2, 1, 1])
    assert cm.counts.sum() == 6
    assert (cm.counts - np.diag(np.diag(cm.counts)) == 0).all()


def test_confusion_all_predicted_happy():
    cm = confusion([0, 1, 2, 3], [0, 0, 0, 0])
    assert cm.counts[:, 0].sum() == 4
    assert cm.counts[:, 1:].sum() == 0


def test_confusion_hand_tally():
    true_labels = [0, 0, 1, 2, 2, 3, 3, 3]
    predicted = [0, 1, 1, 2, 0, 3, 3, 2]
    cm = confusion(true_labels, predicted)
    expected = np.zeros((4, 4), dtype=int)
    expected[0, 0] = 1
    expected[0, 1] = 1
    expected[1, 1] = 1
    expected[2, 2] = 1
    expected[2, 0] = 1
    expected[3, 3] = 2
    expected[3, 2] = 1
    assert np.array_equal(cm.counts, expected)
    assert cm.counts.sum() == len(true_labels)


def test_confusion_errors():
    with pytest.raises(ParameterError):
        confusion([0, 1], [0])
    with pytest.raises(ParameterError):
        confusion([], [])
    # codes outside [0, 4) would index past the matrix or wrap to class 3
    for true_labels, predicted in (([0, 3], [0, 7]), ([0, 3], [0, -1]), ([4, 0], [0, 0])):
        with pytest.raises(ParameterError):
            confusion(true_labels, predicted)


def test_recognition_rates_and_missing_rows():
    cm = confusion([0, 0, 1, 1, 2, 3], [0, 1, 1, 1, 2, 2])
    assert recognition_rates(cm).tolist() == [0.5, 1.0, 1.0, 0.0]
    with pytest.raises(DataFormatError, match="CALM, TENSE"):
        recognition_rates(confusion([0, 0, 1, 1], [0, 1, 1, 1]))


def test_accuracy_equals_weighted_rate_mean():
    rng = np.random.default_rng(0)
    true_labels = rng.integers(0, 4, 200)
    predicted = np.where(rng.random(200) < 0.7, true_labels, (true_labels + 1) % 4)
    cm = confusion(true_labels, predicted)
    rates = np.array(recognition_rates(cm), dtype=float)
    weights = cm.counts.sum(axis=1) / cm.counts.sum()
    assert cm.accuracy() == pytest.approx(float(np.sum(weights * rates)))
    assert cm.accuracy() == pytest.approx(np.trace(cm.counts) / cm.total)


def test_rate_formatting_matches_table_style():
    rates = (0.9251, 0.983, 0.8093, 0.9001)
    rendered = " ".join(fmt_percent(r) for r in rates)
    assert rendered == "92.51% 98.3% 80.93% 90.01%"


def test_report_summaries_ordered():
    rates = np.array(
        [
            [0.90, 0.95, 0.80, 0.88],
            [0.92, 0.99, 0.77, 0.91],
            [0.89, 0.97, 0.83, 0.90],
        ]
    )
    report = RecognitionReport(rates)
    assert (report.lowest() <= report.average()).all()
    assert (report.average() <= report.highest()).all()
    assert report.overall_average == pytest.approx(rates.mean())
    text = report_text(report)
    assert "Highest recognition rate" in text
    assert "Average recognition rate" in text
    csv = report_csv(report)
    assert csv.splitlines()[0] == "emotion,highest,lowest,average"
    assert len(csv.splitlines()) == 6  # header + four emotions + overall


def test_runs_csv_roundtrip():
    rates = np.array([[0.9, 0.8, 0.7, 0.6], [0.5, 0.4, 0.3, 0.2]])
    report = RecognitionReport(rates)
    parsed = parse_runs_csv(runs_csv(report))
    assert np.array_equal(parsed.rates, rates)


def test_parse_runs_csv_rejects_bad_header():
    with pytest.raises(DataFormatError):
        parse_runs_csv("nope\n1,2\n")


def _tiny_splits(blob_data):
    x_train, y_train, x_test, y_test = blob_data

    def splits(runs, seed):
        for run in range(runs):
            run_seed = derive_seed(seed, "run", run)
            idx = np.random.default_rng(run_seed).permutation(len(x_train))[:80]
            yield run_seed, (x_train[idx], y_train[idx]), (x_test[::2], y_test[::2])

    return splits


def test_run_repeated_deterministic(blob_data):
    splits = _tiny_splits(blob_data)
    cfg = PipelineConfig(classifier="knn")
    report_a, confusions_a = run_repeated(cfg, splits(runs=3, seed=5))
    report_b, confusions_b = run_repeated(cfg, splits(runs=3, seed=5))
    assert np.array_equal(report_a.rates, report_b.rates)
    for ca, cb in zip(confusions_a, confusions_b):
        assert np.array_equal(ca.counts, cb.counts)
    assert report_a.num_runs == 3
    for (_, train, (x_test, y_test)), cm in zip(splits(runs=3, seed=5), confusions_a):
        assert cm.total == 100  # every second test point
        model = knn.KnnModel(*train, cfg.knn_k)
        assert np.array_equal(cm.counts, confusion(y_test, knn.predict_knn_batch(model, x_test)).counts)


def test_run_repeated_requires_runs():
    with pytest.raises(ParameterError):
        run_repeated(PipelineConfig(classifier="knn"), [])


def test_splits_draw_each_run_from_its_derived_seed(mini_config, mini_corpus):
    cache = FeatureCache(mini_corpus, mini_config)
    splits = list(cache.splits(30, "sweep-k", 3))
    seed = mini_config.seed
    assert [run_seed for run_seed, _, _ in splits] == [derive_seed(seed, "sweep-k", run) for run in range(3)]
    for run_seed, train, test in splits:
        dataset = cache.dataset(30, run_seed)
        for got, want in ((train, dataset.train_arrays()), (test, dataset.test_arrays())):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    with pytest.raises(ParameterError):
        next(cache.splits(30, "sweep-k", 0))


def test_runs_below_one_fail_before_any_training(mini_config, mini_corpus, monkeypatch):
    calls = []

    def count(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(pso, "optimize", count("pso.optimize"))
    monkeypatch.setattr(evaluation, "train_classifier", count("train_classifier"))
    monkeypatch.setattr(forest, "train_forest", count("forest.train_forest"))
    monkeypatch.setattr(knn, "_distance_matrix", count("knn._distance_matrix"))
    cfg = mini_config.replace(runs=0, svm_tune=True)
    for entry in (run_protocol, sweep_features, sweep_trees, sweep_k):
        with pytest.raises(ParameterError, match="runs"):
            entry(cfg, records=mini_corpus)
    for sweep in (sweep_features, sweep_trees, sweep_k):
        with pytest.raises(ParameterError, match="runs"):
            sweep(mini_config, records=mini_corpus, runs=0)
    assert calls == []


def test_records_at_another_sample_rate_are_rejected(mini_config):
    # 256 Hz records under the 128 Hz config would be cut at half the time
    # scale; every library entry point builds a FeatureCache, which refuses
    records = evaluation.synth_corpus(mini_config.replace(sample_rate_hz=256.0))
    assert mini_config.sample_rate_hz == 128.0
    with pytest.raises(ParameterError, match="sample rate 256.0 != config's 128.0"):
        FeatureCache(records, mini_config)
    for entry in (run_protocol, sweep_features, sweep_trees, sweep_k):
        with pytest.raises(ParameterError, match="sample rate"):
            entry(mini_config, records=records)


def test_protocol_tunes_on_run_zero_split(mini_config, mini_corpus, monkeypatch):
    """Tuning takes run 0's split from the protocol's own draws: one draw per
    run, and the same (C, gamma) as tuning on a separately drawn run-0 split."""
    cfg = mini_config.replace(svm_tune=True, runs=3)
    drawn = []
    dataset = FeatureCache.dataset

    def counted(self, n, run_seed):
        drawn.append(run_seed)
        return dataset(self, n, run_seed)

    monkeypatch.setattr(FeatureCache, "dataset", counted)
    result = run_protocol(cfg, records=mini_corpus)
    assert drawn == [derive_seed(cfg.seed, "run", run) for run in range(cfg.runs)]
    assert result.report.num_runs == cfg.runs

    monkeypatch.undo()
    split = FeatureCache(mini_corpus, cfg).dataset(cfg.feature_count, derive_seed(cfg.seed, "run", 0))
    separate = evaluation.tune_svm(split.train_arrays(), cfg)
    assert (result.pso_result.c, result.pso_result.gamma) == (separate.c, separate.gamma)


def test_protocol_trains_every_run_at_the_tuned_point(mini_config, mini_corpus, monkeypatch):
    """The final models train at PSO's (C, gamma), the overlay that
    ``ecgemotion tune --params-out`` writes, not at the configured one."""
    cfg = mini_config.replace(svm_tune=True, runs=2)
    params = []
    train_multiclass = svm.train_multiclass

    def spy(train, p):
        params.append(p)
        return train_multiclass(train, p)

    monkeypatch.setattr(svm, "train_multiclass", spy)
    result = run_protocol(cfg, records=mini_corpus)
    assert len(params) == cfg.runs
    assert (result.pso_result.c, result.pso_result.gamma) != (cfg.svm_c, cfg.svm_gamma)
    for p in params:
        assert (p.c, p.gamma) == (result.pso_result.c, result.pso_result.gamma)
    tuned = cfg.replace(svm_c=result.pso_result.c, svm_gamma=result.pso_result.gamma, svm_tune=False)
    untuned = run_protocol(tuned, records=mini_corpus)
    assert untuned.pso_result is None
    assert np.array_equal(untuned.report.rates, result.report.rates)


def test_tune_svm_solves_the_fitness_duals_at_svm_tolerance(mini_config, mini_corpus):
    cfg = mini_config.replace(pso_subsample=0, pso_iterations=1)
    train = FeatureCache(mini_corpus, cfg).dataset(cfg.feature_count, 3).train_arrays()
    cfg = cfg.replace(seed=0)
    loose = cfg.replace(svm_tolerance=0.5)
    tuned = evaluation.tune_svm(train, loose)
    assert tuned.trace != evaluation.tune_svm(train, cfg).trace
    config = loose.pso_config(derive_seed(0, "pso"))
    expected = pso.optimize(config, pso.CvSvmFitness(*train, config.cv_folds, config.seed, tolerance=0.5))
    assert tuned.trace == expected.trace


def test_feature_cache_rows_are_dct_prefix(mini_config, mini_corpus):
    from ecgemotion.features import dct

    records = {(r.subject_id, r.label): r.samples for r in mini_corpus}
    cfg = mini_config
    length = cfg.segment_len
    n = cfg.feature_count
    dataset = FeatureCache(mini_corpus, cfg).dataset(n, 777)
    assert len(dataset.train) == cfg.train_size
    assert len(dataset.test) == cfg.test_size
    for side, subjects in ((dataset.train, cfg.train_subjects),
                           (dataset.test, cfg.test_subjects)):
        for fv in side:
            # consecutive, non-overlapping windows
            subject, start = fv.source
            assert subject in subjects and start % length == 0
            segment = records[(subject, fv.label)][start : start + length]
            assert len(segment) == length
            assert np.allclose(fv.values, dct(segment)[:n], rtol=0, atol=1e-12)


def test_sweep_features_points_and_determinism(mini_config, mini_corpus):
    cfg = mini_config.replace(classifier="knn", runs=1)
    curve_a = sweep_features(cfg, records=mini_corpus, values=[20, 25, 30], runs=1)
    curve_b = sweep_features(cfg, records=mini_corpus, values=[20, 25, 30], runs=1)
    assert curve_a.values() == [20, 25, 30]
    assert curve_a.points == curve_b.points
    best_rate = max(rate for _, rate in curve_a.points)
    assert dict(curve_a.points)[curve_a.best] == best_rate


def test_sweep_best_is_the_first_of_equal_rates():
    curve = evaluation._curve("k", [1, 2, 3, 4], np.array([0.5, 0.7, 0.7, 0.6]))
    assert curve.points == [(1, 0.5), (2, 0.7), (3, 0.7), (4, 0.6)]
    assert curve.best == 2


def test_sweep_features_validates_range(mini_config, mini_corpus, monkeypatch):
    with pytest.raises(ParameterError):
        sweep_features(mini_config, records=mini_corpus, values=[], runs=1)
    with pytest.raises(ParameterError):
        sweep_features(mini_config, records=mini_corpus, values=[500], runs=1)
    # a width past the 256-sample segment is rejected before any corpus is synthesized or cached
    for stage in ("synth_corpus", "FeatureCache"):
        monkeypatch.setattr(evaluation, stage, lambda *args, stage=stage: pytest.fail(f"{stage} reached"))
    with pytest.raises(ParameterError, match=r"feature count must lie in \[1, 256\]"):
        sweep_features(mini_config, values=[20, 500], runs=1)


@pytest.mark.parametrize("classifier", ["svm", "forest", "knn"])
def test_sweep_features_is_paired(mini_config, mini_corpus, classifier, monkeypatch):
    """Every width of a run trains on the same rows and codes, cut to the
    first n of the largest width's columns, and each point is the mean over
    runs of the protocol's rate at ``feature_count=n`` on the sweep's splits."""
    cfg = mini_config.replace(classifier=classifier)
    values, runs = [8, 20, 14], 2
    trained = []
    train_classifier = evaluation.train_classifier

    def spy(train, cfg, seed):
        trained.append((seed, *train))
        return train_classifier(train, cfg, seed)

    monkeypatch.setattr(evaluation, "train_classifier", spy)
    curve = sweep_features(cfg, records=mini_corpus, values=values, runs=runs)
    monkeypatch.undo()
    assert len(trained) == runs * len(values)
    by_run = {}
    for seed, x, codes in trained:
        by_run.setdefault(seed, {})[x.shape[1]] = (x, codes)
    assert len(by_run) == runs  # one run seed trains every width
    for widths in by_run.values():
        assert sorted(widths) == sorted(values)
        widest, codes = widths[max(values)]
        for n, (x, width_codes) in widths.items():
            assert np.array_equal(width_codes, codes)
            assert x.flags.c_contiguous and np.array_equal(x, widest[:, :n])

    cache = FeatureCache(mini_corpus, cfg)
    predict = evaluation.CLASSIFIERS[classifier][1]
    for n, point in curve.points:
        at_n = cfg.replace(feature_count=n)
        rates = [evaluation._overall_rate(y_test, predict(train_classifier(train, at_n, seed), x_test))
                 for seed, train, (x_test, y_test) in cache.splits(n, "sweep-features", runs)]
        assert point == np.mean(rates)


def test_sweep_trees_curves(mini_config, mini_corpus):
    cfg = mini_config.replace(classifier="forest")
    values = [5, 10, 15]
    rate_curve, ge_points = sweep_trees(cfg, records=mini_corpus, values=values, runs=1)
    assert rate_curve.values() == values
    assert [v for v, _ in ge_points] == values
    assert all(0.0 <= g <= 1.0 for _, g in ge_points)
    again, ge_again = sweep_trees(cfg, records=mini_corpus, values=values, runs=1)
    assert rate_curve.points == again.points and ge_points == ge_again


def test_sweep_trees_text_equals_per_feature_loop(mini_config, mini_corpus, monkeypatch):
    """Trees grown by the rank-keyed split search give the same curve text as
    trees grown with one stable argsort per sampled feature."""
    cfg = mini_config.replace(classifier="forest", feature_count=12)
    values = [1, 4, 2, 6]

    def render():
        rate_curve, ge_points = sweep_trees(cfg, records=mini_corpus, values=values, runs=1)
        return evaluation.curve_csv("trees", rate_curve.points) + evaluation.ge_curve_csv(ge_points)

    fast = render()
    monkeypatch.setattr(
        forest,
        "_grow_tree",
        lambda x, ranks, y, rows, weights, rng, features_per_split: oracles.grow_tree_loop(
            x[np.repeat(rows, weights)], y[np.repeat(rows, weights)], rng, features_per_split, None, 1
        ),
    )
    assert render() == fast


def test_sweep_k_points(mini_config, mini_corpus):
    cfg = mini_config.replace(classifier="knn")
    curve = sweep_k(cfg, records=mini_corpus, values=list(range(1, 11)), runs=1)
    assert curve.values() == list(range(1, 11))
    assert all(0.0 <= rate <= 1.0 for _, rate in curve.points)


def test_sweep_k_above_the_training_rows_is_rejected(mini_config, mini_corpus, monkeypatch):
    # a k past the 8 training rows would repeat the k = 8 vote under its own label
    cfg = mini_config.replace(classifier="knn", train_size=8, sweep_k_max=10)
    with pytest.raises(ParameterError, match=r"k must lie in \[1, 8\]"):
        sweep_k(cfg, records=mini_corpus, runs=1)
    # the range is rejected before any corpus is synthesized or cached
    with monkeypatch.context() as patched:
        for stage in ("synth_corpus", "FeatureCache"):
            patched.setattr(evaluation, stage, lambda *args, stage=stage: pytest.fail(f"{stage} reached"))
        with pytest.raises(ParameterError, match=r"k must lie in \[1, 8\]"):
            sweep_k(cfg, runs=1)
    assert sweep_k(cfg.replace(sweep_k_max=8), records=mini_corpus, runs=1).values() == list(range(1, 9))


@pytest.fixture(scope="module")
def reference_corpus():
    cfg = PipelineConfig.from_file(REPO_ROOT / "configs" / "reference.cfg")
    records, _ = evaluation.filter_corpus(evaluation.synth_corpus(cfg), cfg)
    return cfg, records


@pytest.mark.parametrize("metric,p", [("minkowski", 1.5), ("chisquare", 2.0)])
def test_sweep_k_text_equals_chunked_broadcast(reference_corpus, metric, p, monkeypatch):
    """On a reference-size split (4000/1200 rows drawn with replacement from
    2,400/600 segments), distances over the distinct rows give the same curve
    text as the chunked broadcast over every drawn row pair."""
    cfg, records = reference_corpus
    cfg = cfg.replace(classifier="knn", knn_metric=metric, knn_minkowski_p=p)

    def render():
        return evaluation.curve_csv("k", sweep_k(cfg, records=records, runs=1).points)

    fast = render()
    monkeypatch.setattr(
        knn,
        "_distance_matrix",
        lambda metric, queries, train, p: oracles.chunked_distance_matrix(
            metric, queries, train, p, batch_rows=8
        ),
    )
    assert render() == fast


def test_default_sweep_ranges(mini_config):
    assert len(mini_config.sweep_features_values()) == 13
    assert len(mini_config.sweep_trees_values()) == 8
    assert len(mini_config.sweep_k_values()) == 10


def test_confusion_matrix_validation():
    with pytest.raises(ParameterError):
        ConfusionMatrix(np.zeros((3, 3), dtype=int))
    with pytest.raises(ParameterError):
        ConfusionMatrix(-np.ones((4, 4), dtype=int))
