"""The benchmark's workloads: one unit of work each, on a ready corpus.

Every workload keeps the reference problem size of ``configs/reference.cfg``
(4000/1200 split, 75 features, 120-row PSO subsample, 5 folds). Only the
amount of repeated work in one unit is scaled down, so that a unit takes a
few seconds and a run can repeat it:

- ``svm-tuned`` runs the reference protocol with two swarm iterations (60
  fitness evaluations of the full 20-particle swarm instead of 620) and one
  train/score run. PSO fitness is about 85% of the unit. Measured against a
  traced full swarm on two corpora, the mean and median evaluation time
  and the median dual-solve time agree within host noise (10%), and the
  swarm ends at the full swarm's (C, gamma). One iteration overweights the
  random initial positions; a smaller swarm run longer tunes toward small
  C, where fitness costs a third as much.
- ``svm-fixed`` runs the protocol at the configured (C, gamma) with one
  train/score run: six pair duals of about 2,000 points each.
- ``forest-sweep`` sweeps 6..20 trees in steps of 2, the reference sweep
  30..100 scaled by one fifth: the same eight prefix points, each tree grown
  on the full 4000-row bootstrap.
- ``knn-sweep`` sweeps K 1..10 once per distance metric, one run each.

``probe_pieces`` names the pieces of the host-speed probe (hostspeed.py)
that scale the workload's wall time. K-NN's time goes to passes over large
distance arrays, which slow less in busy phases than Python-bound work:
over ten seeds the distance piece alone followed its raw time with half
the residual of the four-piece mix (0.037 against 0.078 standard
deviation of the log ratio). The other workloads mix kinds of work and use
all four pieces.

A unit returns the report or curve text rendered by the package's own CSV
writers, the rate it reports, and the number of train/score runs or sweep
points it attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ecgemotion import evaluation, knn

TREE_COUNTS = tuple(range(6, 21, 2))


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # the public entry point the unit calls
    overrides: dict
    unit: Callable  # (cfg, records) -> (text, rate, ops)
    min_rate: float  # an overall rate below this is a wrong result
    probe_pieces: tuple | None = None  # None: all pieces


def _protocol(cfg, records):
    result = evaluation.run_protocol(cfg, records=records)
    report = result.report
    text = evaluation.runs_csv(report) + evaluation.report_csv(report)
    text += "".join(evaluation.confusion_csv(cm) for cm in result.confusions)
    return text, report.overall_average, report.num_runs


def _trees(cfg, records):
    curve, ge_points = evaluation.sweep_trees(cfg, records, values=TREE_COUNTS, runs=cfg.runs)
    text = evaluation.curve_csv(curve.parameter, curve.points) + evaluation.ge_curve_csv(ge_points)
    return text, _mean_rate(curve.points), len(curve.points) * cfg.runs


def _neighbors(cfg, records):
    text = ""
    points = []
    for metric in knn.METRICS:
        curve = evaluation.sweep_k(cfg.replace(knn_metric=metric), records, runs=cfg.runs)
        text += evaluation.curve_csv(f"k_{metric}", curve.points)
        points += curve.points
    return text, _mean_rate(points), len(points) * cfg.runs


def _mean_rate(points) -> float:
    return sum(rate for _, rate in points) / len(points)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("svm-tuned", "run_protocol", {"svm_tune": True, "pso_iterations": 2, "runs": 1}, _protocol, 0.85),
        Workload("svm-fixed", "run_protocol", {"svm_tune": False, "runs": 1}, _protocol, 0.85),
        Workload("forest-sweep", "sweep_trees", {"runs": 1}, _trees, 0.5),
        Workload("knn-sweep", "sweep_k", {"runs": 1}, _neighbors, 0.5, ("distance",)),
    )
}
