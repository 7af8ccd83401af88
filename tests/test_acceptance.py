"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every threshold and
runtime budget is asserted here; nothing is deferred to later calibration.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ecgemotion import dsp, evaluation, features, forest, knn, pso, svm
from ecgemotion.config import PipelineConfig
from ecgemotion.utils import fmt_percent

from oracles import dft_magnitude, dual_objective, maximize_dual, naive_dct, rbf_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(number, name, elapsed, limit, detail=""):
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget: {elapsed:.2f}s"


def test_criterion_1_dct_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for n in range(1, 65):
        for _ in range(100):
            x = rng.normal(size=n) * 10.0
            ours = features.dct(x)
            reference = np.array(naive_dct(x))
            scale = np.maximum(np.abs(reference), 1e-30)
            assert (np.abs(ours - reference) / scale).max() <= 1e-9 or np.allclose(
                ours, reference, rtol=1e-9, atol=1e-9
            )
            assert np.sum(ours**2) == pytest.approx(np.sum(x**2), rel=1e-9)
    _report(1, "DCT oracle", time.perf_counter() - start, 5.0)


def test_criterion_2_fir_behavior():
    start = time.perf_counter()
    fir = dsp.design_bandpass(3, 100, 128, 257)
    assert fir.high_cut_hz == pytest.approx(57.6)
    stop = dft_magnitude(fir.taps, 0.3, 128)
    passband = dft_magnitude(fir.taps, 10.0, 128)
    assert stop <= 10 ** (-20 / 20), f"0.3 Hz attenuation only {-20*np.log10(stop):.1f} dB"
    assert 10 ** (-1 / 20) <= passband <= 10 ** (1 / 20)
    _report(
        2,
        "FIR behavior",
        time.perf_counter() - start,
        1.0,
        f"(0.3 Hz at {20*np.log10(stop):.1f} dB, 10 Hz at {20*np.log10(passband):+.2f} dB)",
    )


def test_criterion_3_svm_correctness(blob_data):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    instances = [
        (np.array([[0.0], [2.0]]), np.array([1.0, -1.0]), 10.0, 0.5),
        (
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([1.0, 1.0, -1.0, -1.0]),
            10.0,
            1.0,
        ),
        (rng.normal(size=(6, 2)), np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), 1.0, 0.7),
        (rng.normal(size=(6, 3)), np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]), 100.0, 0.2),
        (rng.normal(size=(5, 2)), np.array([1.0, 1.0, -1.0, -1.0, -1.0]), 0.5, 1.5),
    ]

    # (b) dual objective within 1e-4 of the brute-force oracle; (a) KKT <= 1e-3
    worst_gap = 0.0
    worst_kkt = 0.0
    for x, y, c, gamma in instances:
        model = svm.train_binary(x, y, svm.SvmParams(c=c, gamma=gamma))
        kmat = rbf_matrix(x, gamma)
        ours = dual_objective(model.alpha, kmat, y)
        reference = dual_objective(maximize_dual(kmat, y, c), kmat, y)
        worst_gap = max(worst_gap, abs(ours - reference))
        worst_kkt = max(worst_kkt, svm.kkt_max_violation(model, x, y))
        assert abs(ours - reference) <= 1e-4

    # (c) XOR with RBF reaches 100% training accuracy
    x_xor, y_xor = instances[1][0], instances[1][1]
    xor_model = svm.train_binary(x_xor, y_xor, svm.SvmParams(c=10.0, gamma=1.0))
    assert np.all(np.sign(svm.decision_values(xor_model, x_xor)) == y_xor)
    worst_kkt = max(worst_kkt, svm.kkt_max_violation(xor_model, x_xor, y_xor))

    # (a) also on realistically sized pairwise models
    x_train, y_train, _, _ = blob_data
    for a, b in ((0, 1), (1, 2), (2, 3)):
        mask = (y_train == a) | (y_train == b)
        y_pair = np.where(y_train[mask] == a, 1.0, -1.0)
        model = svm.train_binary(x_train[mask], y_pair, svm.SvmParams(c=10.0, gamma=1.0))
        worst_kkt = max(worst_kkt, svm.kkt_max_violation(model, x_train[mask], y_pair))
    assert worst_kkt <= 1e-3
    _report(
        3,
        "SVM correctness",
        time.perf_counter() - start,
        10.0,
        f"(max dual gap {worst_gap:.2e}, max KKT residual {worst_kkt:.2e})",
    )


def test_criterion_4_pso_sphere():
    start = time.perf_counter()
    target = np.array([1.5, -1.0])
    config = pso.PsoConfig(swarm_size=20, iterations=100, inertia=0.7, seed=11)
    result = pso.optimize(config, lambda p: -float(np.sum((p - target) ** 2)))
    best = np.array([np.log10(result.c), np.log10(result.gamma)])
    distance = float(np.linalg.norm(best - target))
    assert distance < 1e-2
    history = np.array(result.history)
    assert (np.diff(history) >= 0).all()
    _report(4, "PSO sphere benchmark", time.perf_counter() - start, 5.0, f"(distance {distance:.2e})")


def test_criterion_5_forest_knn_blobs(blob_data):
    start = time.perf_counter()
    x_train, y_train, x_test, y_test = blob_data

    model = forest.train_forest(x_train, y_train, num_trees=90, seed=3)
    forest_acc = float(np.mean(forest.predict_forest_batch(model, x_test) == y_test))
    assert forest_acc >= 0.97

    ge = forest.generalization_error(model, (x_test, y_test))
    margins = forest.margins(model, x_test, y_test)
    assert ge == float(np.mean(margins < 0))  # exact, by definition
    assert forest_acc >= 1.0 - ge

    knn_model = knn.KnnModel(x_train, y_train, 3)
    knn_acc = float(np.mean(knn.predict_knn_batch(knn_model, x_test) == y_test))
    assert knn_acc >= 0.97
    _report(
        5,
        "forest/K-NN blob sanity",
        time.perf_counter() - start,
        30.0,
        f"(forest {fmt_percent(forest_acc)}, knn {fmt_percent(knn_acc)}, GE {ge:.4f})",
    )


def test_criterion_6_end_to_end_pipeline(reference_run):
    # the bundled reference configuration's run, timed by the fixture
    result, elapsed = reference_run
    cfg = PipelineConfig()
    assert cfg.train_size == 4000 and cfg.test_size == 1200
    assert cfg.feature_count == 75 and cfg.runs == 10
    report = result.report
    assert result.pso_result is not None, "reference run must be PSO-tuned"
    per_emotion = report.average()
    overall = report.overall_average
    assert overall >= 0.85, f"overall average {fmt_percent(overall)} below 85%"
    assert (per_emotion >= 0.70).all(), f"per-emotion averages {per_emotion} dip below 70%"
    for cm in result.confusions:
        assert cm.total == 1200
    _report(
        6,
        "end-to-end PSO-SVM pipeline",
        elapsed,
        600.0,
        f"(overall {fmt_percent(overall)}, per-emotion "
        + " ".join(fmt_percent(v) for v in per_emotion)
        + f", tuned c={result.pso_result.c:.4g} gamma={result.pso_result.gamma:.4g})",
    )


@pytest.fixture(scope="module")
def sweep_config():
    return PipelineConfig(
        record_duration_s=40.0,
        train_size=240,
        test_size=120,
        feature_count=30,
        runs=2,
        svm_tune=False,
        svm_c=10.0,
        svm_gamma=0.05,
        classifier="knn",
        seed=404,
    )


@pytest.fixture(scope="module")
def sweep_corpus(sweep_config):
    records, _ = evaluation.filter_corpus(evaluation.synth_corpus(sweep_config), sweep_config)
    return records


def test_criterion_7_sweep_shapes(sweep_config, sweep_corpus):
    start = time.perf_counter()
    cfg = sweep_config

    feature_curve = evaluation.sweep_features(cfg, records=sweep_corpus, runs=1)
    assert feature_curve.values() == list(range(20, 81, 5))
    assert len(feature_curve.points) == 13

    forest_cfg = cfg.replace(classifier="forest", forest_trees=100)
    rate_curve, _ = evaluation.sweep_trees(forest_cfg, records=sweep_corpus, runs=1)
    assert rate_curve.values() == list(range(30, 101, 10))
    assert len(rate_curve.points) == 8

    k_curve = evaluation.sweep_k(cfg, records=sweep_corpus, runs=1)
    assert k_curve.values() == list(range(1, 11))
    assert len(k_curve.points) == 10

    # deterministic seed-fixed values
    again = evaluation.sweep_k(cfg, records=sweep_corpus, runs=1)
    assert again.points == k_curve.points

    # learning-cycle GE drops from 10 trees to 90 trees and then plateaus
    _, ge_points = evaluation.sweep_trees(
        forest_cfg, records=sweep_corpus, values=list(range(10, 101, 10)), runs=2
    )
    ge = dict(ge_points)
    assert ge[90] <= ge[10], f"GE(90)={ge[90]:.4f} > GE(10)={ge[10]:.4f}"
    _report(
        7,
        "sweep experiment shapes",
        time.perf_counter() - start,
        300.0,
        f"(GE(10)={ge[10]:.4f} -> GE(90)={ge[90]:.4f})",
    )


def test_criterion_8_reproducibility(tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(
        "record_duration_s=40\n"
        "train_size=240\n"
        "test_size=120\n"
        "feature_count=30\n"
        "runs=3\n"
        "pso_swarm_size=4\n"
        "pso_iterations=3\n"
        "pso_subsample=80\n"
        "seed=2718\n"
    )
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "run_reference_experiment.py"),
                "--config",
                str(cfg_path),
                "--out-dir",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_dir)

    for artifact in ("runs.csv", "report.csv", "report.txt", "confusion_run0.csv", "pso_trace.csv"):
        a = (outputs[0] / artifact).read_bytes()
        b = (outputs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"
    _report(8, "byte-identical reports", time.perf_counter() - start, 300.0)
