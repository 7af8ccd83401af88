"""The reference protocol and the forest, pinned to files.

``tests/golden/tiny/`` holds the config the CI chain runs
(``tiny.cfg``: 24 s records, a 120/60 split, 30 features, one run, two
swarm iterations) and what ``scripts/run_reference_experiment.py`` wrote
for it: ``runs.csv``, ``report.csv``, ``confusion_run0.csv`` and
``pso_trace.csv``, plus the tuned (C, gamma) as ``ecgemotion tune
--params-out`` writes it (``tuned.cfg``). ``tests/golden/tiny/forest/``
holds the same protocol's files with ``classifier=forest`` and what
``scripts/run_sweeps.py`` writes for the learning-cycle sweep at
``tiny.cfg`` (``trees_rate.csv``, ``trees_ge.csv``).
``tests/golden/reference/`` holds the seed-12345 run of the bundled
reference configuration: ``runs.csv``, ``report.csv``, the ten
confusions, ``pso_trace.csv`` and the tuned point. A change that means to move a result
updates these files and says why; every other change keeps them.
"""

from pathlib import Path

import numpy as np
import pytest

from ecgemotion import evaluation
from ecgemotion.config import PipelineConfig
from ecgemotion.utils import fmt_float

GOLDEN = Path(__file__).resolve().parent / "golden" / "tiny"
FOREST_GOLDEN = GOLDEN / "forest"
REFERENCE_GOLDEN = GOLDEN.parent / "reference"


@pytest.fixture(scope="module")
def tiny_run():
    return evaluation.run_protocol(PipelineConfig.from_file(GOLDEN / "tiny.cfg"))


def assert_reports_equal(result, golden, runs):
    assert evaluation.runs_csv(result.report) == (golden / "runs.csv").read_text()
    assert evaluation.report_csv(result.report) == (golden / "report.csv").read_text()
    assert len(result.confusions) == runs
    for run, cm in enumerate(result.confusions):
        assert evaluation.confusion_csv(cm) == (golden / f"confusion_run{run}.csv").read_text()


def tuned_text(pso_result):
    return f"svm_c={fmt_float(pso_result.c)}\nsvm_gamma={fmt_float(pso_result.gamma)}\n"


def test_tiny_reports_equal_golden(tiny_run):
    assert_reports_equal(tiny_run, GOLDEN, 1)


def test_tiny_forest_protocol_and_tree_sweep_equal_golden():
    cfg = PipelineConfig.from_file(GOLDEN / "tiny.cfg").replace(classifier="forest")
    assert_reports_equal(evaluation.run_protocol(cfg), FOREST_GOLDEN, 1)
    curve, ge_points = evaluation.sweep_trees(cfg)
    assert evaluation.curve_csv("trees", curve.points) == (FOREST_GOLDEN / "trees_rate.csv").read_text()
    assert evaluation.ge_curve_csv(ge_points) == (FOREST_GOLDEN / "trees_ge.csv").read_text()


def _columns(text):
    header, *rows = text.splitlines()
    return dict(zip(header.split(","), np.array([row.split(",") for row in rows]).T))


def assert_trace_equals_golden(pso_result, golden, rows, max_moved, max_step):
    """The swarm's iterations, particles and best fitness so far match
    ``golden/pso_trace.csv`` exactly, and at most ``max_moved`` of the
    ``rows`` per-particle fitness values differ, each by at most
    ``max_step``. The per-particle fitness may move on other BLAS kernels
    and NumPy SIMD levels (ROADMAP Finding 7): every value that moved sat at
    gamma where the kernel is nearly the identity, so a decision value's
    sign follows rounding. A fitness is a mean of per-fold accuracies over
    24 validation rows, so one flipped vote moves it by 1/120."""
    got = _columns(evaluation.pso_trace_csv(pso_result))
    want = _columns((golden / "pso_trace.csv").read_text())
    assert list(got) == list(want)
    for name in ("iteration", "particle", "global_best_fitness"):
        assert got[name].tolist() == want[name].tolist()
    fitness, expected = got["fitness"].astype(float), want["fitness"].astype(float)
    assert len(fitness) == len(expected) == rows
    assert np.count_nonzero(fitness != expected) <= max_moved
    assert np.abs(fitness - expected).max() <= max_step


def test_reference_run_equals_golden(reference_run):
    """The seed-12345 reference run: the runs, the report, the ten
    confusions and the tuned point match exactly; its PSO trace matches as
    ``assert_trace_equals_golden`` allows. Rerun under
    ``OPENBLAS_CORETYPE=SandyBridge`` or ``Prescott`` and
    ``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"`` (five
    combinations), at most 3 of the 620 fitness values moved, each by at
    most two votes (1/60); the bound is twice that: 6 values, each by at
    most 1/30. Its taps are not pinned: their last digits move with the
    BLAS kernel."""
    result, _ = reference_run
    assert_reports_equal(result, REFERENCE_GOLDEN, 10)
    assert tuned_text(result.pso_result) == (REFERENCE_GOLDEN / "tuned.cfg").read_text()
    assert_trace_equals_golden(result.pso_result, REFERENCE_GOLDEN, 620, 6, 1 / 30)


def test_tiny_pso_trace_and_tuned_point_equal_golden(tiny_run):
    """The tuned point matches exactly, and the trace as
    ``assert_trace_equals_golden`` allows: at most 3 of its 60 fitness
    values may differ, each by at most 1/60."""
    pso_result = tiny_run.pso_result
    assert tuned_text(pso_result) == (GOLDEN / "tuned.cfg").read_text()
    assert_trace_equals_golden(pso_result, GOLDEN, 60, 3, 1 / 60)
