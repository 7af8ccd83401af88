"""Command-line pipeline: synth -> filter -> extract -> tune -> train ->
predict -> evaluate, plus the sweep experiments and report rendering.

Every subcommand reads its declared inputs, writes its declared outputs, and
exits 0 on success. Failures print one machine-parsable line to stderr and
exit with a category code: 1 usage, 2 io, 3 data, 4 config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dsp, evaluation, features, synthgen
from .config import PipelineConfig
from .types import ConfigError, DataFormatError, Emotion, ParameterError
from .utils import csv_text, derive_seed, fmt_float, read_rows


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


# --config/--seed, shared by every command that reads a PipelineConfig and by the scripts
CONFIG_PARENT = argparse.ArgumentParser(add_help=False)
CONFIG_PARENT.add_argument("--config", action="append", help="config file; repeatable, later wins")
CONFIG_PARENT.add_argument("--seed", type=int, default=None, help="override the master seed")


def load_config(args) -> PipelineConfig:
    """The ``--config`` files layered in order, with ``--seed`` applied last."""
    cfg = PipelineConfig.from_files(args.config or [])
    return cfg if args.seed is None else cfg.replace(seed=args.seed)


def _signal_files(directory: Path) -> list:
    if not directory.is_dir():
        raise FileNotFoundError(f"signal directory {directory} does not exist")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise DataFormatError(f"no signal CSVs found in {directory}")
    return paths


def _load_signal(path, cfg: PipelineConfig):
    """The signal record at ``path``, which must be sampled at the config's rate."""
    record = synthgen.load_record(path)
    if record.sample_rate_hz != cfg.sample_rate_hz:
        raise DataFormatError(f"{path}: sample rate {record.sample_rate_hz} != config's {cfg.sample_rate_hz}")
    return record


def _load_corpus(directory: Path, cfg: PipelineConfig) -> list:
    """Signal records in the order ``evaluation.synth_corpus`` makes them:
    by subject, then emotion code."""
    records = [_load_signal(path, cfg) for path in _signal_files(directory)]
    return sorted(records, key=lambda r: (r.subject_id, int(r.label)))


def cmd_synth(args) -> int:
    cfg = load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = evaluation.synth_corpus(cfg)
    for record in records:
        name = f"s{record.subject_id}_e{int(record.label)}.csv"
        synthgen.save_record(record, out / name)
    print(f"wrote {len(records)} signal files to {out}")
    return 0


def cmd_filter(args) -> int:
    cfg = load_config(args)
    fir = cfg.fir_filter()
    if fir.warning:
        print(f"warning: {fir.warning}", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for path in _signal_files(Path(args.input)):
        synthgen.save_record(dsp.apply(fir, _load_signal(path, cfg)), out / path.name)
        count += 1
    if args.taps_out:
        dsp.save_taps(fir, args.taps_out)
    print(f"filtered {count} signal files into {out}")
    return 0


def cmd_extract(args) -> int:
    cfg = load_config(args)
    cache = evaluation.FeatureCache(_load_corpus(Path(args.input), cfg), cfg)
    dataset = cache.dataset(cfg.feature_count, derive_seed(cfg.seed, "run", args.run))
    features.save_features(*dataset.train_arrays(), args.train_out)
    features.save_features(*dataset.test_arrays(), args.test_out)
    print(
        f"wrote {len(dataset.codes_train)} train and {len(dataset.codes_test)} test vectors "
        f"({cfg.feature_count} features)"
    )
    return 0


def cmd_tune(args) -> int:
    cfg = load_config(args)
    result = evaluation.tune_svm(features.load_features(args.features), cfg)
    Path(args.trace_out).write_text(evaluation.pso_trace_csv(result))
    if args.params_out:
        Path(args.params_out).write_text(f"svm_c={fmt_float(result.c)}\nsvm_gamma={fmt_float(result.gamma)}\n")
    print(f"c={fmt_float(result.c)} gamma={fmt_float(result.gamma)} fitness={fmt_float(result.fitness)}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args)
    if args.classifier:
        cfg = cfg.replace(classifier=args.classifier)
    x, codes = features.load_features(args.features)
    model = evaluation.train_classifier((x, codes), cfg, derive_seed(cfg.seed, "train"))
    _, _, save, _ = evaluation.CLASSIFIERS[cfg.classifier]
    save(model, args.model)
    print(f"trained {cfg.classifier} on {len(codes)} vectors -> {args.model}")
    return 0


def _load_any_model(path):
    with open(path) as fh:
        kind = fh.readline().split(" ", 1)[0]
    if kind not in evaluation.CLASSIFIERS:
        raise DataFormatError(f"{path}: unrecognized model kind {kind!r}")
    _, predict, _, load = evaluation.CLASSIFIERS[kind]
    return load(path), predict


def cmd_predict(args) -> int:
    model, predict = _load_any_model(args.model)
    x, _ = features.load_features(args.features)
    codes = predict(model, x)
    Path(args.out).write_text(csv_text(["label"], ([int(code)] for code in codes)))
    print(f"wrote {len(codes)} predictions to {args.out}")
    return 0


def _load_predictions(path) -> np.ndarray:
    with open(path) as fh:
        if fh.readline().strip() != "label":
            raise DataFormatError(f"{path}: expected prediction header 'label'")
        return np.array(read_rows(fh, path, 1, lambda cells: int(Emotion.from_code(cells[0]))), dtype=np.int64)


def cmd_evaluate(args) -> int:
    x, truth = features.load_features(args.features)
    if args.predictions is not None:
        predicted = _load_predictions(args.predictions)
        if len(predicted) != len(truth):
            raise DataFormatError(
                f"{args.predictions}: {len(predicted)} predictions for {len(truth)} feature rows")
    else:
        model, predict = _load_any_model(args.model)
        predicted = predict(model, x)
    cm = evaluation.confusion(truth, predicted)
    report = evaluation.RecognitionReport(evaluation.recognition_rates(cm))
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.confusion.csv").write_text(evaluation.confusion_csv(cm))
    Path(f"{prefix}.rates.csv").write_text(evaluation.runs_csv(report))
    print(f"accuracy={fmt_float(cm.accuracy())} samples={cm.total}")
    return 0


def _sweep_records(args, cfg: PipelineConfig):
    """The records under ``--signals``, or None for the synthesized corpus."""
    return _load_corpus(Path(args.signals), cfg) if args.signals else None


def cmd_sweep(args) -> int:
    """sweep-features and sweep-k: ``args.sweep`` over ``args.axis``."""
    cfg = load_config(args)
    curve = args.sweep(cfg, records=_sweep_records(args, cfg))
    Path(args.out).write_text(evaluation.curve_csv(args.axis, curve.points))
    print(f"best {args.axis}={curve.best}")
    return 0


def cmd_sweep_trees(args) -> int:
    cfg = load_config(args)
    curve, ge_points = evaluation.sweep_trees(cfg, records=_sweep_records(args, cfg))
    Path(args.out).write_text(evaluation.curve_csv("trees", curve.points))
    if args.ge_out:
        Path(args.ge_out).write_text(evaluation.ge_curve_csv(ge_points))
    print(f"best trees={curve.best}")
    return 0


def cmd_report(args) -> int:
    report = evaluation.parse_runs_csv(Path(args.runs).read_text(), args.runs)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.csv").write_text(evaluation.report_csv(report))
    Path(f"{prefix}.txt").write_text(evaluation.report_text(report))
    print(evaluation.report_text(report), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ecgemotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    configured = [CONFIG_PARENT]

    p = sub.add_parser("synth", parents=configured, help="generate the synthetic signal corpus")
    p.add_argument("--out", required=True, help="output directory for signal CSVs")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("filter", parents=configured, help="FIR-filter a directory of signal CSVs")
    p.add_argument("--in", dest="input", required=True, help="input signal directory")
    p.add_argument("--out", required=True, help="output signal directory")
    p.add_argument("--taps-out", default=None, help="also export the filter taps CSV")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("extract", parents=configured, help="segment, transform, and sample a train/test split")
    p.add_argument("--in", dest="input", required=True, help="filtered signal directory")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--run", type=int, default=0, help="run index for seed derivation")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("tune", parents=configured, help="PSO-tune svm_c and svm_gamma on training features")
    p.add_argument("--features", required=True, help="training feature CSV")
    p.add_argument("--trace-out", required=True, help="per-evaluation trace CSV")
    p.add_argument("--params-out", default=None, help="write tuned keys as a config overlay")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", parents=configured, help="train the configured classifier")
    p.add_argument("--classifier", choices=tuple(evaluation.CLASSIFIERS), default=None)
    p.add_argument("--features", required=True, help="training feature CSV")
    p.add_argument("--model", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="prediction CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="confusion matrix and recognition rates")
    p.add_argument("--features", required=True, help="test feature CSV (carries truth)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model file to predict with")
    source.add_argument("--predictions", help="prediction CSV written by predict")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-features", parents=configured, help="recognition rate vs feature count")
    p.add_argument("--signals", default=None, help="filtered signal directory (default: synth)")
    p.add_argument("--out", required=True, help="curve CSV")
    p.set_defaults(func=cmd_sweep, sweep=evaluation.sweep_features, axis="features")

    p = sub.add_parser("sweep-trees", parents=configured, help="recognition rate vs learning cycles")
    p.add_argument("--signals", default=None)
    p.add_argument("--out", required=True, help="rate curve CSV")
    p.add_argument("--ge-out", default=None, help="generalization-error curve CSV")
    p.set_defaults(func=cmd_sweep_trees)

    p = sub.add_parser("sweep-k", parents=configured, help="recognition rate vs neighbor count")
    p.add_argument("--signals", default=None)
    p.add_argument("--out", required=True, help="curve CSV")
    p.set_defaults(func=cmd_sweep, sweep=evaluation.sweep_k, axis="k")

    p = sub.add_parser("report", help="render summary tables from stored run rates")
    p.add_argument("--runs", required=True, help="runs CSV written by evaluate")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return 4
    except DataFormatError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
