"""Self-time arithmetic of the span recorder and the wrapper's KKT gap.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import itertools

import numpy as np
import pytest

import spans
from ecgemotion import svm


def _tracer_with_clock(ticks):
    clock = iter(ticks)
    return spans.Tracer(clock=lambda: next(clock))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 5]; root > c [7, 9]
    tracer = _tracer_with_clock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer.run = 0
    with tracer.span("root", "evaluation"):
        with tracer.span("a", "svm"):
            with tracer.span("b", "svm"):
                pass
        with tracer.span("c", "knn"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert spans.self_times(tracer.spans) == pytest.approx([3.0, 2.0, 3.0, 2.0])
    values, _ = spans.layer_metrics(tracer.spans, run=0, setup_run="setup")
    assert values["evaluation.self_s"] == pytest.approx(3.0)
    assert values["svm.self_s"] == pytest.approx(5.0)
    assert values["knn.self_s"] == pytest.approx(2.0)
    layer_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert layer_total == pytest.approx(tracer.spans[0].duration)


def test_busy_time_counts_nested_calls_of_a_layer_once():
    tracer = _tracer_with_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0])
    with tracer.span("root", "evaluation"):
        with tracer.span("outer", "pso"):
            with tracer.span("solve", "svm"):
                with tracer.span("inner", "pso"):
                    pass
    everything = range(len(tracer.spans))
    # outer [1, 6] holds inner [3, 4]; solve [2, 5]
    assert spans.busy_time(tracer.spans, everything, "pso") == pytest.approx(5.0)
    assert spans.busy_time(tracer.spans, everything, "svm") == pytest.approx(3.0)


def test_layer_metrics_keep_runs_apart():
    tracer = _tracer_with_clock(itertools.count())
    for run in (0, 1):
        tracer.run = run
        with tracer.span("root", "evaluation"):
            with tracer.span("knn._vote", "knn"):
                pass
    values, units = spans.layer_metrics(tracer.spans, run=1, setup_run="setup")
    assert values["knn.votes"] == 1
    assert values["knn.vote_s"] == pytest.approx(1.0)
    assert values["trace.spans"] == 2
    assert set(values) == set(units)


def test_wrappers_restore_originals_and_record_solves():
    original = svm.solve_dual
    tracer = spans.Tracer()
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.0], [0.9, 1.0]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    with spans.installed(tracer):
        assert svm.solve_dual is not original
        svm.train_binary(x, y, svm.SvmParams(c=1.0, gamma=0.5), seed=1)
    assert svm.solve_dual is original
    names = [s.name for s in tracer.spans]
    assert names == ["svm.train_binary", "svm.solve_dual", "trace.svm.solve_dual",
                     "trace.svm.train_binary"]
    solve = tracer.spans[1]
    # counter work hangs off the caller, outside the span it describes
    assert solve.parent == 0 and tracer.spans[2].parent == 0 and tracer.spans[3].parent is None
    assert solve.info["context"] == "train"
    assert tracer.spans[0].info["support_vectors"] > 0


@pytest.mark.parametrize("c, gamma, max_passes", [(1.0, 0.5, None), (50.0, 2.0, None), (10.0, 1.0, 3)])
def test_kkt_gap_matches_the_model_residual(c, gamma, max_passes):
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(0.0, 0.6, (20, 3)), rng.normal(1.0, 0.6, (20, 3))])
    y = np.repeat([1.0, -1.0], 20)
    params = svm.SvmParams(c=c, gamma=gamma, max_passes=max_passes)
    model = svm.train_binary(x, y, params, seed=5)
    kmat = svm.rbf_kernel_matrix(x, x, gamma)
    gap = spans.kkt_gap(kmat, y, c, model.alpha, model.bias)
    assert gap == pytest.approx(svm.kkt_max_violation(model, x, y), rel=1e-9, abs=1e-12)
    if max_passes == 3:
        assert gap > params.tolerance  # a capped solve shows up as unconverged
