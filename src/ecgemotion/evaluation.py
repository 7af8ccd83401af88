"""Metrics, the repeated-run protocol, and the three sweep experiments.

The protocol mirrors the reference experiment: build a corpus of noisy
synthetic records, denoise, segment, extract DCT features, optionally tune
the SVM with PSO on the training side, then train and score repeatedly with
per-run seeds and aggregate highest/lowest/average recognition rates.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import dsp, features, forest, knn, pso, svm, synthgen
from .config import PipelineConfig
from .types import Dataset, DataFormatError, EMOTIONS, NUM_CLASSES, ParameterError
from .utils import csv_text, derive_seed, fmt_percent, read_rows, training_rows


@dataclass(eq=False)
class ConfusionMatrix:
    """Rows are true emotions, columns predicted emotions."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (NUM_CLASSES, NUM_CLASSES):
            raise ParameterError(f"confusion matrix must be {NUM_CLASSES}x{NUM_CLASSES}")
        if (self.counts < 0).any():
            raise ParameterError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)


def confusion(true_labels, predicted_labels) -> ConfusionMatrix:
    true_codes = np.asarray(true_labels, dtype=np.int64).ravel()
    pred_codes = np.asarray(predicted_labels, dtype=np.int64).ravel()
    if len(true_codes) != len(pred_codes):
        raise ParameterError("label sequences differ in length")
    if len(true_codes) == 0:
        raise ParameterError("label sequences are empty")
    for codes in (true_codes, pred_codes):
        if codes.min() < 0 or codes.max() >= NUM_CLASSES:
            raise ParameterError(f"emotion codes must lie in [0, {NUM_CLASSES})")
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (true_codes, pred_codes), 1)
    return ConfusionMatrix(counts)


def recognition_rates(cm: ConfusionMatrix) -> np.ndarray:
    """Per-emotion diagonal fraction. A class absent from the true labels
    has no rate, which is a DataFormatError."""
    row_sums = cm.counts.sum(axis=1)
    missing = [EMOTIONS[i].name for i in np.flatnonzero(row_sums == 0)]
    if missing:
        raise DataFormatError(
            f"test split has no samples for {', '.join(missing)}; recognition rate undefined"
        )
    return np.diag(cm.counts) / row_sums


@dataclass(eq=False)
class RecognitionReport:
    """Highest/lowest/average recognition rate per emotion over repeated runs."""

    rates: np.ndarray  # (runs, NUM_CLASSES)

    def __post_init__(self):
        self.rates = np.atleast_2d(np.asarray(self.rates, dtype=np.float64))
        if self.rates.shape[1] != NUM_CLASSES:
            raise ParameterError(f"rates must have {NUM_CLASSES} columns")

    @property
    def num_runs(self) -> int:
        return len(self.rates)

    def per_run_overall(self) -> np.ndarray:
        return self.rates.mean(axis=1)

    def highest(self) -> np.ndarray:
        return self.rates.max(axis=0)

    def lowest(self) -> np.ndarray:
        return self.rates.min(axis=0)

    def average(self) -> np.ndarray:
        return self.rates.mean(axis=0)

    @property
    def overall_average(self) -> float:
        return float(self.rates.mean())


def _overall_rate(y_test, labels) -> float:
    """Mean of the per-emotion recognition rates of one prediction."""
    return float(recognition_rates(confusion(y_test, labels)).mean())


def run_repeated(cfg: PipelineConfig, splits):
    """Train ``cfg.classifier`` and score it once per split.

    ``splits`` yields ``(run_seed, (x, codes), (x_test, codes_test))``, as
    ``FeatureCache.splits`` does. Returns the report plus the per-run
    confusion matrices.
    """
    predict = CLASSIFIERS[cfg.classifier][1]
    all_rates = []
    confusions = []
    for run_seed, train, (x_test, y_test) in splits:
        cm = confusion(y_test, predict(train_classifier(train, cfg, run_seed), x_test))
        confusions.append(cm)
        all_rates.append(recognition_rates(cm))
    if not confusions:
        raise ParameterError("runs must be >= 1")
    return RecognitionReport(np.stack(all_rates)), confusions


# ---------------------------------------------------------------------------
# pipeline stages


def synth_corpus(cfg: PipelineConfig) -> list:
    """Generate the noisy corpus: one record per (subject, emotion)."""
    profiles = cfg.profiles()
    records = []
    for subject in cfg.all_subjects():
        for emotion in EMOTIONS:
            clean = synthgen.generate_clean(
                profiles[emotion],
                cfg.record_duration_s,
                cfg.sample_rate_hz,
                derive_seed(cfg.seed, "synth", subject, int(emotion)),
                label=emotion,
                subject_id=subject,
            )
            spec = cfg.noise_spec(derive_seed(cfg.seed, "noise", subject, int(emotion)))
            records.append(synthgen.inject_noise(clean, spec))
    return records


def filter_corpus(records, cfg: PipelineConfig):
    fir = cfg.fir_filter()
    if fir.warning:
        warnings.warn(fir.warning, stacklevel=2)
    return [dsp.apply(fir, record) for record in records], fir


class FeatureCache:
    """Full-width DCT coefficients for every segment of a corpus.

    This is the one path from records to a train/test split. Feature
    extraction at width n is a prefix slice, and each run's dataset is just
    a fresh balanced sample of row indices, so sweeps and repeated runs
    share all of the transform work.
    """

    def __init__(self, records, cfg: PipelineConfig):
        self.cfg = cfg
        other_rates = {record.sample_rate_hz for record in records} - {cfg.sample_rate_hz}
        if other_rates:
            raise ParameterError(f"record sample rate {min(other_rates)} != config's {cfg.sample_rate_hz}")
        cuts = [dsp.segment(record, cfg.segment_len) for record in records]
        counts = [len(starts) for _, starts in cuts]
        if not sum(counts):
            raise ParameterError("corpus yielded no segments")
        # one temporary window matrix, freed as soon as it is transformed
        self.coeffs = np.concatenate([windows for windows, _ in cuts]) @ features.dct_matrix(cfg.segment_len).T
        self.labels = np.repeat(np.array([int(r.label) for r in records], dtype=np.int64), counts)
        self.subjects = np.repeat([r.subject_id for r in records], counts)
        self.starts = np.concatenate([starts for _, starts in cuts])
        self.sources = np.column_stack((self.subjects, self.starts)).astype(np.int64)
        # per side, one array of row indices per emotion, in corpus order
        self.pools = {}
        for side, subjects in (("train", cfg.train_subjects), ("test", cfg.test_subjects)):
            on_side = np.isin(self.subjects, subjects)
            self.pools[side] = [np.flatnonzero(on_side & (self.labels == int(e))) for e in EMOTIONS]

    def dataset(self, n: int, run_seed: int) -> Dataset:
        """The first n coefficients of a class-balanced train/test sample."""
        if not 1 <= n <= self.cfg.segment_len:
            raise ParameterError(f"feature count {n} outside [1, {self.cfg.segment_len}]")
        rng = np.random.default_rng(run_seed)
        train = features.sample_balanced(self.pools["train"], self.cfg.train_size, rng, "train")
        test = features.sample_balanced(self.pools["test"], self.cfg.test_size, rng, "test")
        x = self.coeffs[:, :n]
        return Dataset(x[train], self.labels[train], self.sources[train],
                       x[test], self.labels[test], self.sources[test])

    def splits(self, n: int, tag: str, runs: int):
        """Yield ``(run_seed, (x, codes), (x_test, codes_test))`` for runs
        0..runs-1, each drawn with ``run_seed = derive_seed(cfg.seed, tag, run)``."""
        if runs < 1:
            raise ParameterError("runs must be >= 1")
        for run in range(runs):
            run_seed = derive_seed(self.cfg.seed, tag, run)
            dataset = self.dataset(n, run_seed)
            yield run_seed, dataset.train_arrays(), dataset.test_arrays()


def tune_svm(train_arrays, cfg: PipelineConfig) -> pso.PsoResult:
    """PSO-tune (C, gamma) by cross-validated accuracy on the training split.

    When ``pso_subsample`` is positive the fitness runs on a seed-fixed
    stratified subsample of the training data, keeping the 600-evaluation
    swarm affordable; the final model always trains on the full split, so
    the full split must be a valid training set. Both draw from ``cfg.seed``.
    """
    x, codes = training_rows(*train_arrays)
    if cfg.pso_subsample and cfg.pso_subsample < len(codes):
        rng = np.random.default_rng(derive_seed(cfg.seed, "pso-subsample"))
        keep = []
        for code, want in enumerate(features.balanced_counts(cfg.pso_subsample)):
            idx = np.flatnonzero(codes == code)  # an empty class fails the fitness's fold check
            keep.append(rng.choice(idx, size=min(want, len(idx)), replace=False))
        keep = np.concatenate(keep)
        x, codes = x[keep], codes[keep]
    config = cfg.pso_config(derive_seed(cfg.seed, "pso"))
    return pso.optimize(config, pso.CvSvmFitness(x, codes, config.cv_folds, config.seed, cfg.svm_tolerance))


def _fit_svm(train, cfg: PipelineConfig, seed: int):
    params = svm.SvmParams(cfg.svm_c, cfg.svm_gamma, cfg.svm_tolerance)
    return svm.train_multiclass(train, params)


def _fit_forest(train, cfg: PipelineConfig, seed: int):
    return forest.train_forest(*train, num_trees=cfg.forest_trees, seed=derive_seed(seed, "forest"),
                               features_per_split=cfg.forest_features_per_split or None)


def _fit_knn(train, cfg: PipelineConfig, seed: int):
    return knn.KnnModel(*train, cfg.knn_k, cfg.knn_metric, cfg.knn_minkowski_p)


# classifier kind, also the first word of its model file -> (fit, predict,
# save, load); fit(train, cfg, seed) returns the model. The functions
# perfbench's span tracer wraps (svm.train_multiclass, forest.train_forest,
# svm.predict_multiclass_batch) are looked up at each call.
CLASSIFIERS = {
    "svm": (_fit_svm, lambda model, x: svm.predict_multiclass_batch(model, x), svm.save_model, svm.load_model),
    "forest": (_fit_forest, forest.predict_forest_batch, forest.save_model, forest.load_model),
    "knn": (_fit_knn, knn.predict_knn_batch, knn.save_model, knn.load_model),
}


def train_classifier(train, cfg: PipelineConfig, seed: int):
    """The configured classifier trained on ``(x, codes)``."""
    return CLASSIFIERS[cfg.classifier][0](train, cfg, seed)


@dataclass(eq=False)
class ProtocolResult:
    report: RecognitionReport
    confusions: list
    pso_result: pso.PsoResult | None = None


def _feature_cache(cfg: PipelineConfig, records=None) -> FeatureCache:
    """Feature cache of the given records, or of the synthesized and
    filtered corpus when none are given."""
    if records is None:
        records, _ = filter_corpus(synth_corpus(cfg), cfg)
    return FeatureCache(records, cfg)


def run_protocol(cfg: PipelineConfig, records=None) -> ProtocolResult:
    """The full reference experiment: synth -> filter -> features -> tune ->
    repeated train/score runs. PSO tunes on run 0's training split."""
    splits = _feature_cache(cfg, records).splits(cfg.feature_count, "run", cfg.runs)
    pso_result = None
    if cfg.classifier == "svm" and cfg.svm_tune:
        first = next(splits)
        pso_result = tune_svm(first[1], cfg)
        # the overlay ``ecgemotion tune --params-out`` writes
        cfg = cfg.replace(svm_c=pso_result.c, svm_gamma=pso_result.gamma)
        splits = itertools.chain([first], splits)
        del first  # held through the later runs' training, where memory peaks, it raises the peak
    report, confusions = run_repeated(cfg, splits)
    return ProtocolResult(report, confusions, pso_result)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(eq=False)
class SweepCurve:
    parameter: str
    points: list  # (value, mean rate)
    best: int

    def values(self) -> list:
        return [v for v, _ in self.points]


def _sweep_values(values, default, what: str, bound=None) -> list:
    """The swept values, ``default`` when None, checked before any synthesis."""
    values = list(default if values is None else values)
    if not values or min(values) < 1:
        raise ParameterError(f"{what} sweep range must contain positive counts")
    if bound is not None and max(values) > bound:
        raise ParameterError(f"{what} must lie in [1, {bound}]")
    return values


def _curve(parameter: str, values, rates) -> SweepCurve:
    """Points (value, rate); the best value is the first of the highest rate."""
    points = [(int(v), float(r)) for v, r in zip(values, rates)]
    return SweepCurve(parameter, points, max(points, key=lambda point: point[1])[0])


def _sweep(cfg: PipelineConfig, records, runs, n: int, tag: str, score) -> np.ndarray:
    """The mean over runs of ``score(run_seed, x, y, x_test, y_test)``, which
    rates every swept value on the run's one split of width ``n``: a paired curve."""
    splits = _feature_cache(cfg, records).splits(n, tag, cfg.runs if runs is None else runs)
    return np.mean([score(run_seed, *train, *test) for run_seed, train, test in splits], axis=0)


def sweep_features(cfg: PipelineConfig, records=None, values=None, runs=None) -> SweepCurve:
    """Mean recognition rate per feature count, classifier fixed at the
    configured hyperparameters. Each run draws its split at the largest
    count; count n trains and predicts on the first n columns of its rows."""
    values = _sweep_values(values, cfg.sweep_features_values(), "feature count", cfg.segment_len)

    def score(run_seed, x, y, x_test, y_test):
        widths = ((run_seed, (x[:, :n].copy(), y), (x_test[:, :n].copy(), y_test)) for n in values)
        return run_repeated(cfg, widths)[0].per_run_overall()

    return _curve("features", values, _sweep(cfg, records, runs, max(values), "sweep-features", score))


def sweep_trees(cfg: PipelineConfig, records=None, values=None, runs=None):
    """Rate and generalization-error curves over the learning-cycle counts.

    One forest per run is grown at the largest count; smaller counts are
    its prefix sub-ensembles (per-tree seeds make prefixes stable), voted
    from one prediction per tree."""
    values = _sweep_values(values, cfg.sweep_trees_values(), "tree")
    largest = cfg.replace(classifier="forest", forest_trees=max(values))

    def score(run_seed, x, y, x_test, y_test):
        votes = forest.vote_matrix(train_classifier((x, y), largest, run_seed), x_test, values)
        return [(_overall_rate(y_test, v.argmax(axis=1)), forest.vote_error(v, y_test)) for v in votes]

    rates, errors = _sweep(cfg, records, runs, cfg.feature_count, "sweep-trees", score).T
    return _curve("trees", values, rates), [(int(v), float(e)) for v, e in zip(values, errors)]


def sweep_k(cfg: PipelineConfig, records=None, values=None, runs=None) -> SweepCurve:
    """Mean recognition rate per neighbor count, each at most ``train_size``.

    Each run ranks each test row's nearest ``max(values)`` training rows
    once and votes the labels for every k in one pass (``knn.classify``)."""
    values = _sweep_values(values, cfg.sweep_k_values(), "k", cfg.train_size)

    def score(run_seed, x, y, x_test, y_test):
        dists = knn._distance_matrix(cfg.knn_metric, x_test, x, cfg.knn_minkowski_p)
        return [_overall_rate(y_test, labels) for labels in knn.classify(dists, y, values)]

    return _curve("k", values, _sweep(cfg, records, runs, cfg.feature_count, "sweep-k", score))


# ---------------------------------------------------------------------------
# report and file rendering


_RUNS_HEADER = ["run", *(e.name.lower() for e in EMOTIONS), "overall"]


def runs_csv(report: RecognitionReport) -> str:
    overall = report.per_run_overall()
    return csv_text(_RUNS_HEADER, ([run, *rates, overall[run]] for run, rates in enumerate(report.rates)))


def _run_rates(cells) -> list:
    """The emotion rates of a runs row, whose run index must be an integer
    and whose rates, overall included, must be finite and lie in [0, 1]."""
    int(cells[0])
    rates = [float(c) for c in cells[1:]]
    if not all(0.0 <= r <= 1.0 for r in rates):
        raise ValueError("rates must be finite and lie in [0, 1]")
    return rates[:NUM_CLASSES]


def parse_runs_csv(text: str, path="runs CSV") -> RecognitionReport:
    """The report in a runs CSV's ``text``; errors name ``path`` and the line."""
    lines = text.splitlines()
    expected = ",".join(_RUNS_HEADER)
    if not lines or lines[0].strip() != expected:
        raise DataFormatError(f"{path}: expected header {expected!r}")
    return RecognitionReport(read_rows(lines[1:], path, len(_RUNS_HEADER), _run_rates))


def _summary(report: RecognitionReport) -> list:
    """Highest, lowest and average rate: one row each, the emotions' rates
    then the overall one over the per-run means."""
    overall = report.per_run_overall()
    return [
        [*report.highest(), overall.max()],
        [*report.lowest(), overall.min()],
        [*report.average(), report.overall_average],
    ]


_SUMMARY_NAMES = [e.name.lower() for e in EMOTIONS] + ["overall"]


def report_csv(report: RecognitionReport) -> str:
    return csv_text(["emotion", "highest", "lowest", "average"], zip(_SUMMARY_NAMES, *_summary(report)))


def report_text(report: RecognitionReport) -> str:
    """Aligned table in the style of the recognition-rate summaries."""
    labels = [f"{kind} recognition rate" for kind in ("Highest", "Lowest", "Average")]
    names = [name.capitalize() for name in _SUMMARY_NAMES]
    label_width = max(len(label) for label in labels)
    col_width = max(len(name) for name in names) + 2
    lines = [" " * label_width + "".join(name.rjust(col_width) for name in names)]
    for label, values in zip(labels, _summary(report)):
        lines.append(label.ljust(label_width) + "".join(fmt_percent(v).rjust(col_width) for v in values))
    return "\n".join(lines) + "\n"


def confusion_csv(cm: ConfusionMatrix) -> str:
    header = ["true_label", *(f"pred_{int(e)}" for e in EMOTIONS)]
    return csv_text(header, ([i, *row] for i, row in enumerate(cm.counts)))


def curve_csv(parameter: str, points) -> str:
    return csv_text([parameter, "mean_rate"], points)


def pso_trace_csv(result: pso.PsoResult) -> str:
    """One row per fitness evaluation: iteration, particle, (C, gamma), its
    fitness and the swarm's best fitness after that iteration."""
    return csv_text(["iteration", "particle", "c", "gamma", "fitness", "global_best_fitness"], result.trace)


def ge_curve_csv(points) -> str:
    return csv_text(["trees", "mean_generalization_error"], points)
