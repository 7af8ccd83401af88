from pathlib import Path

import numpy as np
import pytest

from ecgemotion import cli, svm
from ecgemotion.config import PipelineConfig
from ecgemotion.types import ConfigError
from ecgemotion.utils import derive_seed

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_reference_config_file_matches_defaults():
    cfg = PipelineConfig.from_file(REPO_ROOT / "configs" / "reference.cfg")
    assert cfg == PipelineConfig()


def test_reference_defaults_carry_reported_values():
    # the reported experiment settings ship as the bundled reference state
    cfg = PipelineConfig()
    assert (cfg.svm_c, cfg.svm_gamma) == (100.3, 0.016)
    assert cfg.feature_count == 75
    assert cfg.forest_trees == 90
    assert cfg.knn_k == 3
    assert (cfg.sample_rate_hz, cfg.record_duration_s) == (128.0, 300.0)
    assert (cfg.fir_low_hz, cfg.fir_high_hz) == (3.0, 100.0)
    assert (cfg.train_size, cfg.test_size, cfg.runs) == (4000, 1200, 10)


def test_unknown_key_rejected():
    # retired keys: trees grow to full size, every SVM dual stops at the
    # tolerance or 10 steps per drawn row, and the pipeline has one Hamming
    # filter, consecutive segments and unscaled DCT features
    for text in ("not_a_knob=1\n", "forest_max_depth=0\n", "forest_min_leaf=1\n", "svm_max_passes=0\n",
                 "fir_window=hamming\n", "segment_stride=256\n", "zscore=false\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            PipelineConfig.from_text(text)


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_text("runs=ten\n")
    # the retired zscore key: a line copied from an old config fails as unknown
    path = tmp_path / "old.cfg"
    path.write_text("zscore=maybe\n")
    with pytest.raises(ConfigError, match="unknown key"):
        PipelineConfig.from_file(path)
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    with pytest.raises(ConfigError):
        PipelineConfig.from_text("classifier=tree\n")
    for text in ("train_size=0\n", "train_size=-4\n", "test_size=0\n"):
        with pytest.raises(ConfigError):
            PipelineConfig.from_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "forest_trees=0\n",
        "forest_features_per_split=-3\n",
        "forest_features_per_split=500\n",  # above the 75 features
        "knn_k=-3\n",
        "feature_count=0\n",
        "feature_count=300\n",  # above the 256-sample segment
        "pso_iterations=-1\n",
        "pso_swarm_size=0\n",
        "pso_cv_folds=1\n",
        "pso_subsample=-1\n",
        "svm_c=-1\n",
        "svm_gamma=0\n",
        # non-finite settings, which the PSO, SVM and K-NN stages would run with
        "svm_c=inf\n",
        "svm_tolerance=inf\n",
        "pso_velocity_clamp=-1\n",
        "pso_velocity_clamp=0\n",
        "pso_velocity_clamp=nan\n",
        "pso_velocity_clamp=inf\n",
        "pso_inertia=nan\n",
        "pso_inertia=-inf\n",
        "pso_c1=nan\n",
        "pso_c2=inf\n",
        "pso_log10_c_max=inf\n",
        "pso_log10_gamma_min=-inf\n",
        "knn_metric=manhattan\n",
        "knn_metric=minkowski\nknn_minkowski_p=0.5\n",
        "knn_metric=minkowski\nknn_minkowski_p=inf\n",
        "profile_happy_hr=500\n",
        "profile_calm_hr_std=-1\n",
        "noise_baseline_amp=-1\n",
        # non-finite synthesis settings: a NaN length crashed synth, a NaN
        # amplitude dropped its noise source and a NaN spread fixed the heart rate
        "record_duration_s=nan\n",
        "record_duration_s=inf\n",
        "sample_rate_hz=inf\n",
        "noise_emg_amp=nan\n",
        "noise_baseline_amp=inf\n",
        "profile_happy_hr_std=nan\n",
        "profile_happy_qrs_scale=nan\n",
        "profile_happy_qrs_scale=inf\n",
        "fir_num_taps=4\n",
        "fir_low_hz=0\n",
        "segment_len=64\nfeature_count=30\n",  # below dsp.MIN_SEGMENT_LEN
        "sample_rate_hz=90\n",  # below the generator's 100 Hz
        "record_duration_s=0\n",
        "noise_powerline_hz=70\n",  # above the 64 Hz Nyquist of 128 Hz
        "noise_electrode_high_hz=80\n",
        "sweep_features_step=0\n",
        "sweep_trees_step=0\n",
        "sweep_features_min=90\n",  # above sweep_features_max
        "sweep_k_max=0\n",
        "sweep_features_max=300\n",  # above the 256-sample segment
        "train_subjects=\n",
        "test_subjects=\n",
        # retired keys: a line copied from an old config fails as unknown
        "forest_max_depth=-2\n",
        "forest_min_leaf=0\n",
        "svm_max_passes=-5\n",
        "fir_window=foo\n",
        "segment_stride=0\n",
    ],
)
def test_out_of_range_forest_settings_rejected(tmp_path, text):
    with pytest.raises(ConfigError):
        PipelineConfig.from_text(text)
    path = tmp_path / "forest.cfg"
    path.write_text(text)
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    # 0 still selects the default features per split
    PipelineConfig.from_text("forest_features_per_split=0\n")


@pytest.mark.parametrize("side", ["train_subjects", "test_subjects"])
def test_empty_subjects_rejected(side):
    # the config file's "train_subjects=" fails to parse; the API's empty tuple fails the check
    with pytest.raises(ConfigError):
        PipelineConfig(**{side: ()})


def test_overlapping_subjects_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig.from_text("train_subjects=1,2,5\ntest_subjects=5\n")


def test_layered_configs(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text("runs=3\nseed=7\n")
    overlay = tmp_path / "overlay.cfg"
    overlay.write_text("seed=11\n")
    cfg = PipelineConfig.from_files([base, overlay])
    assert cfg.runs == 3 and cfg.seed == 11


def test_comments_and_blank_lines():
    cfg = PipelineConfig.from_text("# comment\n\nruns=2  # trailing\n")
    assert cfg.runs == 2


@pytest.fixture(scope="module")
def mini_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(
        "record_duration_s=24\n"
        "train_size=120\n"
        "test_size=60\n"
        "feature_count=30\n"
        "runs=1\n"
        "svm_tune=false\n"
        "svm_c=10\n"
        "svm_gamma=0.05\n"
        "forest_trees=10\n"
        "seed=42\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory, mini_cfg_file):
    """Run synth + filter once; later tests reuse the directories."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw"
    filtered = root / "filtered"
    assert cli.main(["synth", "--config", mini_cfg_file, "--out", str(raw)]) == 0
    assert (
        cli.main(
            [
                "filter",
                "--config",
                mini_cfg_file,
                "--in",
                str(raw),
                "--out",
                str(filtered),
                "--taps-out",
                str(root / "taps.csv"),
            ]
        )
        == 0
    )
    return root, raw, filtered


def test_synth_writes_twenty_files(pipeline_dirs):
    _, raw, _ = pipeline_dirs
    files = sorted(p.name for p in raw.glob("*.csv"))
    assert len(files) == 20  # 5 subjects x 4 emotions
    assert "s1_e0.csv" in files and "s5_e3.csv" in files


def test_filter_outputs_and_taps(pipeline_dirs):
    root, raw, filtered = pipeline_dirs
    assert len(list(filtered.glob("*.csv"))) == 20
    taps = (root / "taps.csv").read_text().splitlines()
    assert taps[0].startswith("# fs=128.0,low=3.0,high=57.6")
    assert len(taps) == 1 + 257


def test_full_cli_chain(pipeline_dirs, mini_cfg_file, tmp_path):
    _, _, filtered = pipeline_dirs
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    model = tmp_path / "model.svm"
    preds = tmp_path / "preds.csv"
    assert (
        cli.main(
            [
                "extract",
                "--config",
                mini_cfg_file,
                "--in",
                str(filtered),
                "--train-out",
                str(train_csv),
                "--test-out",
                str(test_csv),
            ]
        )
        == 0
    )
    assert len(train_csv.read_text().splitlines()) == 121
    assert len(test_csv.read_text().splitlines()) == 61

    assert (
        cli.main(
            ["train", "--config", mini_cfg_file, "--features", str(train_csv), "--model", str(model)]
        )
        == 0
    )
    assert model.read_text().startswith("svm v1 classes=4")

    assert (
        cli.main(
            ["predict", "--model", str(model), "--features", str(test_csv), "--out", str(preds)]
        )
        == 0
    )
    lines = preds.read_text().splitlines()
    assert lines[0] == "label"
    assert len(lines) == 61

    prefix = tmp_path / "run0"
    assert (
        cli.main(
            [
                "evaluate",
                "--features",
                str(test_csv),
                "--predictions",
                str(preds),
                "--out-prefix",
                str(prefix),
            ]
        )
        == 0
    )
    confusion_lines = (tmp_path / "run0.confusion.csv").read_text().splitlines()
    assert confusion_lines[0] == "true_label,pred_0,pred_1,pred_2,pred_3"
    counts = np.array([[int(v) for v in line.split(",")[1:]] for line in confusion_lines[1:]])
    assert counts.sum() == 60

    report_prefix = tmp_path / "report"
    assert (
        cli.main(
            ["report", "--runs", str(tmp_path / "run0.rates.csv"), "--out-prefix", str(report_prefix)]
        )
        == 0
    )
    assert (tmp_path / "report.csv").exists()
    assert "Average recognition rate" in (tmp_path / "report.txt").read_text()


def test_evaluate_with_model_matches_predictions(pipeline_dirs, mini_cfg_file, tmp_path):
    _, _, filtered = pipeline_dirs
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    model = tmp_path / "model.knn"
    cli.main(
        [
            "extract",
            "--config",
            mini_cfg_file,
            "--in",
            str(filtered),
            "--train-out",
            str(train_csv),
            "--test-out",
            str(test_csv),
        ]
    )
    cli.main(
        [
            "train",
            "--config",
            mini_cfg_file,
            "--classifier",
            "knn",
            "--features",
            str(train_csv),
            "--model",
            str(model),
        ]
    )
    preds = tmp_path / "preds.csv"
    assert cli.main(["predict", "--model", str(model), "--features", str(test_csv), "--out", str(preds)]) == 0
    evaluate = ["evaluate", "--features", str(test_csv)]
    for source, name in ((["--model", str(model)], "knn"), (["--predictions", str(preds)], "preds")):
        assert cli.main([*evaluate, *source, "--out-prefix", str(tmp_path / name)]) == 0
    assert (tmp_path / "knn.confusion.csv").read_text() == (tmp_path / "preds.confusion.csv").read_text()
    # exactly one of --model and --predictions
    for source in ([], ["--model", str(model), "--predictions", str(preds)]):
        assert cli.main([*evaluate, *source, "--out-prefix", str(tmp_path / "none")]) == 1
    assert not (tmp_path / "none.confusion.csv").exists()


def test_tune_writes_trace(pipeline_dirs, mini_cfg_file, tmp_path):
    _, _, filtered = pipeline_dirs
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    cli.main(
        [
            "extract",
            "--config",
            mini_cfg_file,
            "--in",
            str(filtered),
            "--train-out",
            str(train_csv),
            "--test-out",
            str(test_csv),
        ]
    )
    trace = tmp_path / "trace.csv"
    params = tmp_path / "tuned.cfg"
    overlay = (
        "pso_swarm_size=3\npso_iterations=2\npso_subsample=60\npso_cv_folds=3\nseed=42\n"
    )
    overlay_path = tmp_path / "pso.cfg"
    overlay_path.write_text(overlay)
    assert (
        cli.main(
            [
                "tune",
                "--config",
                mini_cfg_file,
                "--config",
                str(overlay_path),
                "--features",
                str(train_csv),
                "--trace-out",
                str(trace),
                "--params-out",
                str(params),
            ]
        )
        == 0
    )
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,particle,c,gamma,fitness,global_best_fitness"
    assert len(lines) == 1 + 3 * 3  # header + swarm x (init + 2 iterations)
    tuned = PipelineConfig.from_file(params)
    assert tuned.svm_c > 0 and tuned.svm_gamma > 0


def test_exit_codes(tmp_path, mini_cfg_file, capsys):
    # 2: io (missing file)
    assert cli.main(["predict", "--model", str(tmp_path / "nope.svm"), "--features", "x", "--out", "y"]) == 2
    # 4: config violation
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense=1\n")
    assert cli.main(["synth", "--config", str(bad_cfg), "--out", str(tmp_path / "o")]) == 4
    empty_split = tmp_path / "empty_split.cfg"
    empty_split.write_text("train_size=0\n")
    assert cli.main(["synth", "--config", str(empty_split), "--out", str(tmp_path / "o")]) == 4
    # 3: malformed data file
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("wrong,header\n1,2\n")
    model = tmp_path / "m.knn"
    model.write_text("knn v1 k=1 metric=euclidean\nlabel,f1\n0,1.0\n")
    out = str(tmp_path / "p.csv")
    assert cli.main(["predict", "--model", str(model), "--features", str(bad_csv), "--out", out]) == 3
    bad_model = tmp_path / "bad.knn"
    bad_model.write_text("knn v1 k=3 metricX\nlabel,f1\n0,1.0\n")
    assert cli.main(["predict", "--model", str(bad_model), "--features", str(bad_csv), "--out", out]) == 3
    # malformed model body lines, and an svm model whose pairs are not the six
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("label,f1\n0,1.0\n")
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]
    wrong_pairs = "".join(f"pair {a} {b} bias=0.0 nsv=1\n1.0,0.5\n" for a, b in pairs)
    for name, text in (
        ("body.svm", "svm v1 classes=4 gamma=0.5 c=1.0 features=1\npair 0 1 bias nsv=0\n"),
        ("pairs.svm", "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n" + wrong_pairs),
        ("body.forest", "forest v1 trees=1 features_per_split=1 dim=1\ntree 0 nodes\n"),
        # the last block ends before its count of rows
        ("short.svm", "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n"
         + wrong_pairs.replace("3 4 bias=0.0 nsv=1", "2 3 bias=0.0 nsv=2")),
        ("short.forest",
         "forest v1 trees=1 features_per_split=1 dim=1\ntree 0 nodes=2\nl,1,0,0,0\n"),
        ("body.knn", "knn v1 k=1 metric=euclidean\nlabel,f1\nx,1.0\n"),
    ):
        (tmp_path / name).write_text(text)
        out = str(tmp_path / "p.csv")
        argv = ["predict", "--model", str(tmp_path / name), "--features", str(good_csv), "--out", out]
        assert cli.main(argv) == 3
    # forest node layouts that would loop forever or index past the features
    two_csv = tmp_path / "two.csv"
    two_csv.write_text("label,f1,f2\n0,1.0,2.0\n")
    forest_header = "forest v1 trees=1 features_per_split=1 dim={}\n"
    for name, text, rows in (
        ("loop.forest", forest_header.format(1) + "tree 0 nodes=1\nn,0,0.5,0,0\n", good_csv),
        ("feature.forest",
         forest_header.format(2) + "tree 0 nodes=3\nn,7,0.5,1,2\nl,1,0,0,0\nl,0,1,0,0\n", two_csv),
    ):
        (tmp_path / name).write_text(text)
        out = str(tmp_path / "p.csv")
        argv = ["predict", "--model", str(tmp_path / name), "--features", str(rows), "--out", out]
        assert cli.main(argv) == 3
    # a bad model body row is named by its file and line
    bad_sv = "".join(f"pair {a} {b} bias=0.0 nsv=1\n1.0,{'abc' if a else 0.5}\n" for a, b in svm.PAIRS)
    for name, text, line in (
        ("cell.svm", "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n" + bad_sv, 9),
        ("row.forest", forest_header.replace("trees=1", "trees=2").format(1)
         + "tree 0 nodes=1\nl,1,0,0,0\ntree 1 nodes=3\nn,0,0.5,1,2\nl,1,0,0,0\nx,0,1,0,0\n", 7),
        ("child.forest", forest_header.format(1) + "tree 0 nodes=3\nn,0,0.5,1,2\nn,0,0.5,0,2\nl,0,1,0,0\n", 4),
        ("leaf.forest", forest_header.format(1) + "tree 0 nodes=3\nn,0,0.5,1,2\nl,1,0,0,0\nl,0,0,0,0\n", 5),
        ("label.knn", "knn v1 k=1 metric=euclidean\nlabel,f1\nx,1.0\n", 3),
    ):
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        argv = ["predict", "--model", str(tmp_path / name), "--features", str(good_csv)]
        assert cli.main([*argv, "--out", str(tmp_path / "p.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error:data: {tmp_path / name}:{line}: ")
    # 3: signal CSVs with a non-finite sample or a rate that is not finite and positive
    signals = tmp_path / "signals"
    signals.mkdir()
    for fs, sample in (("128", "nan"), ("128", "inf"), ("0", "0.5"), ("nan", "0.5"), ("inf", "0.5")):
        (signals / "s1_e0.csv").write_text(f"label,subject,fs\n0,1,{fs}\n0.1\n{sample}\n")
        argv = ["sweep-k", "--config", mini_cfg_file, "--signals", str(signals)]
        assert cli.main([*argv, "--out", str(tmp_path / "k.csv")]) == 3
    # 3: a signal sampled at another rate than the config's, raw or filtered
    (signals / "s1_e0.csv").write_text("label,subject,fs\n0,1,256.0\n0.1\n0.2\n")
    out = tmp_path / "rate"
    for argv in (
        ["filter", "--in", str(signals), "--out", str(out)],
        ["extract", "--in", str(signals), "--train-out", str(out / "a.csv"), "--test-out", str(out / "b.csv")],
        ["sweep-k", "--signals", str(signals), "--out", str(out / "k.csv")],
        ["sweep-features", "--signals", str(signals), "--out", str(out / "f.csv")],
        ["sweep-trees", "--signals", str(signals), "--out", str(out / "t.csv")],
    ):
        capsys.readouterr()
        assert cli.main([*argv, "--config", mini_cfg_file]) == 3
        error = capsys.readouterr().err.splitlines()[-1]  # filter warns of its clamped cutoff first
        assert error == f"error:data: {signals / 's1_e0.csv'}: sample rate 256.0 != config's 128.0"
    argv = ["sweep-k", "--config", mini_cfg_file, "--signals", str(signals)]
    # a sample that is not a number is named by its file and line
    (signals / "s1_e0.csv").write_text("label,subject,fs\n0,1,128\n0.1\nabc\n")
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "k.csv")]) == 3
    assert capsys.readouterr().err.startswith(f"error:data: {signals / 's1_e0.csv'}:4: ")
    # 3: runs CSVs whose rates are not finite or lie outside [0, 1]
    runs_csv = tmp_path / "runs.csv"
    # or whose run index is not an integer or overall rate not a rate
    for row in (
        "0,nan,0.5,0.5,0.5,0.5",
        "0,0.5,2.0,0.5,0.5,0.5",
        "0,0.5,0.5,-1,0.5,0.5",
        "0,0.5,0.5,0.5,inf,0.5",
        "x,0.5,0.5,0.5,0.5,garbage",
        "0,0.5,0.5,0.5,0.5,garbage",
    ):
        runs_csv.write_text(f"run,happy,exciting,calm,tense,overall\n{row}\n")
        capsys.readouterr()
        assert cli.main(["report", "--runs", str(runs_csv), "--out-prefix", str(tmp_path / "report")]) == 3
        assert capsys.readouterr().err.startswith(f"error:data: {runs_csv}:2: ")
    runs_csv.write_text("run,happy\n0,0.5\n")
    assert cli.main(["report", "--runs", str(runs_csv), "--out-prefix", str(tmp_path / "report")]) == 3
    assert capsys.readouterr().err.startswith(f"error:data: {runs_csv}: expected header ")
    # 1: usage error, including --config/--seed on subcommands that read no config,
    # and valid svm and forest models asked about non-finite rows
    assert cli.main(["synth"]) == 1
    assert cli.main(["not-a-command"]) == 1
    for flags in (["--config", mini_cfg_file], ["--seed", "3"]):
        for argv in (
            ["predict", "--model", str(model), "--features", str(good_csv), "--out", str(tmp_path / "p.csv")],
            ["evaluate", "--model", str(model), "--features", str(good_csv),
             "--out-prefix", str(tmp_path / "e")],
            ["report", "--runs", str(runs_csv), "--out-prefix", str(tmp_path / "r")],
        ):
            assert cli.main([*argv, *flags]) == 1
    nan_csv = tmp_path / "nan_rows.csv"
    nan_csv.write_text("label,f1\n0,1.0\n1,nan\n2,-inf\n")
    six_pairs = "".join(f"pair {a} {b} bias=0.0 nsv=1\n1.0,0.5\n" for a, b in svm.PAIRS)
    for name, text in (
        ("ok.svm", "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n" + six_pairs),
        ("ok.forest", forest_header.format(1) + "tree 0 nodes=1\nl,1,0,0,0\n"),
    ):
        (tmp_path / name).write_text(text)
        out = tmp_path / f"{name}.csv"
        argv = ["predict", "--model", str(tmp_path / name), "--out", str(out)]
        assert cli.main([*argv, "--features", str(good_csv)]) == 0
        assert cli.main([*argv, "--features", str(nan_csv)]) == 1
    # 3: model files that name other keys or classes, repeat or misnumber a
    # block, or go on after the last block
    svm_header = "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n"
    for name, text in (
        ("keys.svm", svm_header + six_pairs.replace("bias=0.0 nsv=1", "foo=0.0 bar=1", 1)),
        ("classes.svm", svm_header.replace("classes=4", "classes=9") + six_pairs),
        ("seventh.svm", svm_header + six_pairs + "pair 0 1 bias=0.0 nsv=1\n1.0,0.5\n"),
        ("index.forest", forest_header.format(1) + "tree 7 size=1\nl,1,0,0,0\n"),
        ("tail.forest", forest_header.format(1) + "tree 0 nodes=1\nl,1,0,0,0\nl,0,1,0,0\n"),
    ):
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        argv = ["predict", "--model", str(tmp_path / name), "--features", str(good_csv)]
        assert cli.main([*argv, "--out", str(tmp_path / "p.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error:data: {tmp_path / name}")
    # 3: emotion codes outside [0, 4) in predictions or a knn model,
    # non-finite numbers in svm and forest models, and header values that
    # parse but lie out of range
    four_csv = tmp_path / "four.csv"
    four_csv.write_text("label,f1\n0,1.0\n1,2.0\n2,3.0\n3,4.0\n")
    for code, status in (("3", 0), ("7", 3), ("-1", 3), ("", 3)):
        predictions = tmp_path / f"pred{code}.csv"
        predictions.write_text(f"label\n0\n1\n2\n{code}\n" if code else "label\n")
        argv = ["evaluate", "--features", str(four_csv), "--predictions", str(predictions)]
        assert cli.main([*argv, "--out-prefix", str(tmp_path / "eval")]) == status
    # 3: predictions that do not match the feature rows in number
    predictions = tmp_path / "three.csv"
    predictions.write_text("label\n0\n1\n2\n")
    capsys.readouterr()
    argv = ["evaluate", "--features", str(four_csv), "--predictions", str(predictions)]
    assert cli.main([*argv, "--out-prefix", str(tmp_path / "eval")]) == 3
    assert capsys.readouterr().err.startswith(f"error:data: {predictions}: 3 predictions for 4 feature rows")
    six_pairs_nan = six_pairs.replace("1.0,0.5", "nan,0.5", 1)
    for name, text in (
        ("labels.knn", "knn v1 k=1 metric=euclidean\nlabel,f1\n7,0.0\n-2,5.0\n1,9.0\n"),
        ("gamma.svm", "svm v1 classes=4 gamma=nan c=1.0 features=1\n" + six_pairs),
        ("coef.svm", "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n" + six_pairs_nan),
        ("threshold.forest", forest_header.format(1) + "tree 0 nodes=3\nn,0,nan,1,2\nl,1,0,0,0\nl,0,1,0,0\n"),
        ("k.knn", "knn v1 k=5 metric=euclidean\nlabel,f1\n0,1.0\n"),
        ("p.knn", "knn v1 k=1 metric=minkowski p=nan\nlabel,f1\n0,1.0\n"),
        ("metric.knn", "knn v1 k=1 metric=manhattan\nlabel,f1\n0,1.0\n"),
        ("row.knn", "knn v1 k=1 metric=euclidean\nlabel,f1\n0,nan\n"),
        ("c.svm", "svm v1 classes=4 gamma=0.5 c=-1 features=1\n" + six_pairs),
        # models that load but could not predict
        ("nsv.svm",
         "svm v1 classes=4 gamma=0.5 c=1.0 features=1\n" + six_pairs.replace("nsv=1\n1.0,0.5\n", "nsv=0\n", 1)),
        ("trees.forest", "forest v1 trees=0 features_per_split=1 dim=1\n"),
        ("nodes.forest", forest_header.format(1) + "tree 0 nodes=0\n"),
        ("split0.forest", "forest v1 trees=1 features_per_split=0 dim=1\ntree 0 nodes=1\nl,1,0,0,0\n"),
        ("split2.forest", "forest v1 trees=1 features_per_split=2 dim=1\ntree 0 nodes=1\nl,1,0,0,0\n"),
    ):
        (tmp_path / name).write_text(text)
        out = str(tmp_path / "p.csv")
        argv = ["predict", "--model", str(tmp_path / name), "--features", str(good_csv), "--out", out]
        assert cli.main(argv) == 3


@pytest.mark.parametrize(
    "argv, code",
    [
        (["train", "--config", "{bad}", "--features", "{bad}", "--model", "{out}"], 4),
        (["predict", "--model", "{bad}", "--features", "{bad}", "--out", "{out}"], 3),
        (["evaluate", "--features", "{bad}", "--predictions", "{bad}", "--out-prefix", "{out}"], 3),
        (["report", "--runs", "{bad}", "--out-prefix", "{out}"], 3),
    ],
    ids=["train-config", "predict-model", "evaluate-features", "report-runs"],
)
def test_non_utf8_files_are_one_line_errors(tmp_path, capsys, argv, code):
    # a UTF-16 file with its byte-order mark
    bad = tmp_path / "utf16.csv"
    bad.write_bytes(b"\xff\xfe" + "label,f1\n0,1.0\n".encode("utf-16-le"))
    assert cli.main([arg.format(bad=bad, out=tmp_path / "out") for arg in argv]) == code
    error = capsys.readouterr().err
    assert len(error.splitlines()) == 1
    assert error.startswith(f"error:config: {bad}: not UTF-8 text" if code == 4 else "error:data: ")


def test_negative_counts_are_config_errors(mini_cfg_file, tmp_path, capsys):
    # the features file does not exist: exit 4, not 2, shows the config fails first
    missing = str(tmp_path / "missing.csv")
    for key, command in (
        ("pso_subsample=-5", ["tune", "--trace-out", str(tmp_path / "trace.csv")]),
        ("forest_trees=-1", ["train", "--classifier", "forest", "--model", str(tmp_path / "m.forest")]),
    ):
        overlay = tmp_path / "negative.cfg"
        overlay.write_text(key + "\n")
        configs = ["--config", mini_cfg_file, "--config", str(overlay)]
        assert cli.main([*command, *configs, "--features", missing]) == 4
        assert capsys.readouterr().err.startswith("error:config:")
    assert not (tmp_path / "m.forest").exists()


def test_sweeps_with_zero_runs_are_usage_errors(mini_cfg_file, tmp_path, capsys):
    overlay = tmp_path / "zero_runs.cfg"
    overlay.write_text("runs=0\n")
    for command in ("sweep-k", "sweep-trees"):
        out = tmp_path / f"{command}.csv"
        argv = [command, "--config", mini_cfg_file, "--config", str(overlay), "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error:usage:")
        assert not out.exists()


def test_forest_train_rejects_non_finite_features(tmp_path, mini_cfg_file):
    features_csv = tmp_path / "nan.csv"
    features_csv.write_text("label,f1,f2\n0,1.0,2.0\n1,nan,0.5\n2,3.0,1.0\n3,0.5,0.5\n")
    model = tmp_path / "m.forest"
    args = ["train", "--config", mini_cfg_file, "--classifier", "forest"]
    assert cli.main([*args, "--features", str(features_csv), "--model", str(model)]) == 1
    assert not model.exists()


def test_svm_train_rejects_non_finite_features(tmp_path, mini_cfg_file):
    features_csv = tmp_path / "nan.csv"
    features_csv.write_text("label,f1,f2\n0,1.0,2.0\n1,nan,0.5\n2,3.0,1.0\n3,0.5,0.5\n")
    model = tmp_path / "m.svm"
    args = ["train", "--config", mini_cfg_file, "--classifier", "svm"]
    assert cli.main([*args, "--features", str(features_csv), "--model", str(model)]) == 1
    assert not model.exists()


def test_tune_rejects_non_finite_features(tmp_path, mini_cfg_file, capsys):
    # three rows per class, enough for two folds: only the NaN cell is wrong
    rows = "".join(f"{i % 4},{i * 0.5},{1.0 - i}\n" for i in range(12)).replace("1.5,-2.0", "1.5,nan")
    features_csv = tmp_path / "nan.csv"
    features_csv.write_text("label,f1,f2\n" + rows)
    overlay = tmp_path / "pso.cfg"
    overlay.write_text("pso_swarm_size=2\npso_iterations=1\npso_cv_folds=2\n")
    trace = tmp_path / "trace.csv"
    argv = ["tune", "--config", mini_cfg_file, "--config", str(overlay), "--features", str(features_csv)]
    assert cli.main([*argv, "--trace-out", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error:usage:")
    assert not trace.exists()


def test_seed_flag_overrides_config(pipeline_dirs, mini_cfg_file, tmp_path):
    _, _, filtered = pipeline_dirs
    outs = []
    for seed_args in ([], ["--seed", "43"]):
        train_csv = tmp_path / f"train{len(outs)}.csv"
        test_csv = tmp_path / f"test{len(outs)}.csv"
        cli.main(
            [
                "extract",
                "--config",
                mini_cfg_file,
                *seed_args,
                "--in",
                str(filtered),
                "--train-out",
                str(train_csv),
                "--test-out",
                str(test_csv),
            ]
        )
        outs.append(train_csv.read_text())
    assert outs[0] != outs[1]


def test_extract_writes_the_protocol_split(tmp_path):
    # eleven subjects, so file-name order (s10 before s2) differs from the
    # corpus order of the in-process protocol
    from ecgemotion import evaluation, features

    text = (
        "record_duration_s=12\ntrain_subjects=1,2,3,4,5,6,7,8,9,10\ntest_subjects=11\n"
        "train_size=200\ntest_size=40\nfeature_count=30\nseed=5\n"
    )
    cfg_file = tmp_path / "eleven.cfg"
    cfg_file.write_text(text)
    cfg = PipelineConfig.from_text(text)
    raw, filtered = tmp_path / "raw", tmp_path / "filtered"
    assert cli.main(["synth", "--config", str(cfg_file), "--out", str(raw)]) == 0
    assert cli.main(["filter", "--config", str(cfg_file), "--in", str(raw), "--out", str(filtered)]) == 0
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    argv = ["extract", "--config", str(cfg_file), "--in", str(filtered), "--run", "2"]
    assert cli.main(argv + ["--train-out", str(train_csv), "--test-out", str(test_csv)]) == 0

    records, _ = evaluation.filter_corpus(evaluation.synth_corpus(cfg), cfg)
    run_seed = derive_seed(cfg.seed, "run", 2)
    dataset = evaluation.FeatureCache(records, cfg).dataset(cfg.feature_count, run_seed)
    for path, (x, codes) in ((train_csv, dataset.train_arrays()), (test_csv, dataset.test_arrays())):
        loaded_x, loaded_codes = features.load_features(path)
        assert np.array_equal(loaded_x, x) and np.array_equal(loaded_codes, codes)
