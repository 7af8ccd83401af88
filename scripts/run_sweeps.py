#!/usr/bin/env python3
"""Run the three sweep experiments and write plot-ready curves.

    out/features_rate.csv   recognition rate vs feature count (20..80 step 5)
    out/trees_rate.csv      recognition rate vs learning cycles (30..100 step 10)
    out/trees_ge.csv        generalization error vs learning cycles
    out/k_rate.csv          recognition rate vs K (1..10)

The classifier hyperparameters stay fixed at the configured values across a
sweep; only the swept parameter changes. The sweeps are paired: each run
draws one train/test split and scores every value of the sweep on it. At the
default reference scale this is a long run; pass a smaller config for a quick
look.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecgemotion import evaluation
from ecgemotion.cli import CONFIG_PARENT, load_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, parents=[CONFIG_PARENT])
    parser.add_argument("--out-dir", default="results/sweeps")
    args = parser.parse_args(argv)

    cfg = load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records, _ = evaluation.filter_corpus(evaluation.synth_corpus(cfg), cfg)

    feature_curve = evaluation.sweep_features(cfg, records=records)
    (out / "features_rate.csv").write_text(
        evaluation.curve_csv("features", feature_curve.points)
    )

    tree_curve, ge_points = evaluation.sweep_trees(cfg, records=records)
    (out / "trees_rate.csv").write_text(evaluation.curve_csv("trees", tree_curve.points))
    (out / "trees_ge.csv").write_text(evaluation.ge_curve_csv(ge_points))

    k_curve = evaluation.sweep_k(cfg, records=records)
    (out / "k_rate.csv").write_text(evaluation.curve_csv("k", k_curve.points))

    print(
        f"best on this corpus: features={feature_curve.best} trees={tree_curve.best} "
        f"k={k_curve.best}"
    )
    print(
        f"reference configuration: features={cfg.feature_count} trees={cfg.forest_trees} "
        f"k={cfg.knn_k}"
    )
    print(f"curves in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
