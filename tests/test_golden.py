"""The reference protocol at the CI chain's small config, pinned to files.

``tests/golden/tiny/`` holds the config the CI chain runs
(``tiny.cfg``: 24 s records, a 120/60 split, 30 features, one run, two
swarm iterations) and what ``scripts/run_reference_experiment.py`` wrote
for it: ``runs.csv``, ``report.csv``, ``confusion_run0.csv`` and
``pso_trace.csv``, plus the tuned (C, gamma) as ``ecgemotion tune
--params-out`` writes it (``tuned.cfg``). A change that means to move a
result updates these files and says why; every other change keeps them.
"""

from pathlib import Path

import numpy as np
import pytest

from ecgemotion import evaluation
from ecgemotion.config import PipelineConfig
from ecgemotion.utils import fmt_float

GOLDEN = Path(__file__).resolve().parent / "golden" / "tiny"


@pytest.fixture(scope="module")
def tiny_run():
    return evaluation.run_protocol(PipelineConfig.from_file(GOLDEN / "tiny.cfg"))


def test_tiny_reports_equal_golden(tiny_run):
    assert evaluation.runs_csv(tiny_run.report) == (GOLDEN / "runs.csv").read_text()
    assert evaluation.report_csv(tiny_run.report) == (GOLDEN / "report.csv").read_text()
    assert len(tiny_run.confusions) == 1
    assert evaluation.confusion_csv(tiny_run.confusions[0]) == (GOLDEN / "confusion_run0.csv").read_text()


def _columns(text):
    header, *rows = text.splitlines()
    return dict(zip(header.split(","), np.array([row.split(",") for row in rows]).T))


def test_tiny_pso_trace_and_tuned_point_equal_golden(tiny_run):
    """The swarm's best fitness per iteration and the tuned point must match
    exactly. The per-particle fitness may not: on other BLAS kernels and
    NumPy SIMD levels (ROADMAP Finding 7) 2-3 of 620 reference fitness
    values moved, all at gamma where the kernel is nearly the identity, so
    a decision value's sign follows rounding. A fitness is a mean of
    per-fold accuracies over 24 validation rows, so one flipped vote moves
    it by 1/120. Here at most 3 values may differ, each by at most 1/60."""
    pso_result = tiny_run.pso_result
    tuned = f"svm_c={fmt_float(pso_result.c)}\nsvm_gamma={fmt_float(pso_result.gamma)}\n"
    assert tuned == (GOLDEN / "tuned.cfg").read_text()

    got = _columns(evaluation.pso_trace_csv(pso_result))
    want = _columns((GOLDEN / "pso_trace.csv").read_text())
    assert list(got) == list(want)
    for name in ("iteration", "particle", "global_best_fitness"):
        assert got[name].tolist() == want[name].tolist()
    fitness, expected = got["fitness"].astype(float), want["fitness"].astype(float)
    assert len(fitness) == len(expected) == 60
    assert np.count_nonzero(fitness != expected) <= 3
    assert np.abs(fitness - expected).max() <= 1 / 60
