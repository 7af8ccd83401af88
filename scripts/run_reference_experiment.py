#!/usr/bin/env python3
"""Run the full reference experiment and store every artifact.

Synthesizes the 20-record corpus, denoises it, extracts DCT features,
PSO-tunes the SVM on the training side, then runs the repeated train/score
protocol and writes:

    out/runs.csv             per-run recognition rates
    out/report.csv           highest/lowest/average summary
    out/report.txt           aligned summary table
    out/confusion_run<r>.csv per-run confusion matrices
    out/pso_trace.csv        PSO fitness trace (when tuning ran)
    out/taps.csv             the FIR design actually applied

Two invocations with the same config and seed produce byte-identical CSVs.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecgemotion import dsp, evaluation
from ecgemotion.cli import CONFIG_PARENT, load_config
from ecgemotion.utils import fmt_float


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, parents=[CONFIG_PARENT])
    parser.add_argument("--out-dir", default="results/reference")
    args = parser.parse_args(argv)

    cfg = load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records, fir = evaluation.filter_corpus(evaluation.synth_corpus(cfg), cfg)
    dsp.save_taps(fir, out / "taps.csv")

    result = evaluation.run_protocol(cfg, records=records)

    (out / "runs.csv").write_text(evaluation.runs_csv(result.report))
    (out / "report.csv").write_text(evaluation.report_csv(result.report))
    (out / "report.txt").write_text(evaluation.report_text(result.report))
    for run, cm in enumerate(result.confusions):
        (out / f"confusion_run{run}.csv").write_text(evaluation.confusion_csv(cm))
    if result.pso_result is not None:
        (out / "pso_trace.csv").write_text(evaluation.pso_trace_csv(result.pso_result))
        print(
            f"tuned: c={fmt_float(result.pso_result.c)} gamma={fmt_float(result.pso_result.gamma)} "
            f"cv_fitness={fmt_float(result.pso_result.fitness)}"
        )
        print(
            f"pso duals: {result.pso_result.solves} solved, "
            f"{result.pso_result.capped} at the step cap, {result.pso_result.stalled} stalled"
        )

    print(evaluation.report_text(result.report), end="")
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
