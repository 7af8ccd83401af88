"""Flat key=value pipeline configuration.

One knob per line, ``#`` starts a comment, unknown keys are rejected. The
defaults are the bundled reference configuration: 128 Hz sampling, 5-minute
records, 3/100 Hz cutoffs (clamped at design time), 256-sample segments,
75 features, a 4000/1200 split, and ten evaluation runs. All randomness
derives from the single ``seed`` key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import dsp, forest, knn, svm
from .pso import PsoConfig
from .synthgen import EmotionProfile, NoiseSpec, check_sampling
from .types import EMOTIONS, ConfigError, ParameterError


@dataclass
class PipelineConfig:
    # acquisition
    sample_rate_hz: float = 128.0
    record_duration_s: float = 300.0
    train_subjects: tuple = (1, 2, 3, 4)
    test_subjects: tuple = (5,)

    # per-emotion synthesis profiles
    profile_happy_hr: float = 75.0
    profile_happy_hr_std: float = 5.0
    profile_happy_qrs_scale: float = 1.0
    profile_happy_t_scale: float = 1.0
    profile_exciting_hr: float = 105.0
    profile_exciting_hr_std: float = 8.0
    profile_exciting_qrs_scale: float = 1.25
    profile_exciting_t_scale: float = 0.78
    profile_calm_hr: float = 65.0
    profile_calm_hr_std: float = 3.0
    profile_calm_qrs_scale: float = 0.9
    profile_calm_t_scale: float = 1.1
    profile_tense_hr: float = 88.0
    profile_tense_hr_std: float = 6.0
    profile_tense_qrs_scale: float = 1.12
    profile_tense_t_scale: float = 0.88

    # noise injection
    noise_baseline_amp: float = 0.12
    noise_baseline_hz: float = 0.3
    noise_powerline_amp: float = 0.04
    noise_powerline_hz: float = 50.0
    noise_emg_amp: float = 0.02
    noise_electrode_amp: float = 0.02
    noise_electrode_low_hz: float = 1.0
    noise_electrode_high_hz: float = 10.0

    # FIR denoising
    fir_low_hz: float = 3.0
    fir_high_hz: float = 100.0
    fir_num_taps: int = 257

    # segmentation and features
    segment_len: int = 256
    feature_count: int = 75

    # dataset sizes
    train_size: int = 4000
    test_size: int = 1200

    # classifier selection and hyperparameters
    classifier: str = "svm"  # svm | forest | knn
    svm_c: float = 100.3
    svm_gamma: float = 0.016
    svm_tolerance: float = 1e-3
    svm_tune: bool = True

    # PSO tuning
    pso_swarm_size: int = 20
    pso_iterations: int = 30
    pso_c1: float = 2.0
    pso_c2: float = 2.0
    pso_inertia: float = 1.0
    pso_log10_c_min: float = -1.0
    pso_log10_c_max: float = 3.0
    pso_log10_gamma_min: float = -4.0
    pso_log10_gamma_max: float = 1.0
    pso_velocity_clamp: float = 0.5
    pso_cv_folds: int = 5
    pso_subsample: int = 120  # 0 -> tune on the full training split

    # random forest
    forest_trees: int = 90
    forest_features_per_split: int = 0  # 0 -> ceil(sqrt(d))

    # K-NN
    knn_k: int = 3
    knn_metric: str = "euclidean"
    knn_minkowski_p: float = 2.0

    # evaluation protocol
    runs: int = 10
    seed: int = 12345

    # sweep ranges
    sweep_features_min: int = 20
    sweep_features_max: int = 80
    sweep_features_step: int = 5
    sweep_trees_min: int = 30
    sweep_trees_max: int = 100
    sweep_trees_step: int = 10
    sweep_k_min: int = 1
    sweep_k_max: int = 10

    def __post_init__(self):
        if self.classifier not in ("svm", "forest", "knn"):
            raise ConfigError(f"classifier must be svm, forest, or knn, not {self.classifier!r}")
        train, test = set(self.train_subjects), set(self.test_subjects)
        if not train or not test or train & test:
            raise ConfigError("train_subjects and test_subjects must be non-empty and disjoint")
        if min(self.train_size, self.test_size, self.knn_k) < 1:
            raise ConfigError("train_size, test_size and knn_k must be >= 1")
        if not 1 <= self.feature_count <= self.segment_len:
            raise ConfigError("feature_count must lie in [1, segment_len]")
        if self.pso_subsample < 0:
            raise ConfigError("pso_subsample must be >= 0 (0 for the full training split)")
        if self.segment_len < dsp.MIN_SEGMENT_LEN:
            raise ConfigError(f"segment_len must be >= {dsp.MIN_SEGMENT_LEN}")
        if min(self.sweep_features_step, self.sweep_trees_step) < 1 or not (
            1 <= self.sweep_features_min <= self.sweep_features_max <= self.segment_len
            and 1 <= self.sweep_trees_min <= self.sweep_trees_max
            and 1 <= self.sweep_k_min <= self.sweep_k_max
        ):
            raise ConfigError("sweeps need 1 <= min <= max, steps >= 1 and sweep_features_max <= segment_len")
        try:
            self.pso_config(self.seed)
            svm.SvmParams(self.svm_c, self.svm_gamma, self.svm_tolerance)
            self.profiles()
            check_sampling(self.record_duration_s, self.sample_rate_hz)
            self.noise_spec(self.seed).check(self.sample_rate_hz)
            self.fir_filter()
            forest.check_params(self.forest_trees, self.forest_features_per_split or None, self.feature_count)
            knn.check_metric(self.knn_metric, self.knn_minkowski_p)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    # -- derived views -----------------------------------------------------

    def all_subjects(self) -> list:
        return sorted(set(self.train_subjects) | set(self.test_subjects))

    def profiles(self) -> dict:
        fields = ("hr", "hr_std", "qrs_scale", "t_scale")
        return {
            emotion: EmotionProfile(*(getattr(self, f"profile_{emotion.name.lower()}_{f}") for f in fields))
            for emotion in EMOTIONS
        }

    def noise_spec(self, seed: int) -> NoiseSpec:
        return NoiseSpec(
            baseline_drift_amp=self.noise_baseline_amp,
            baseline_drift_hz=self.noise_baseline_hz,
            powerline_amp=self.noise_powerline_amp,
            powerline_hz=self.noise_powerline_hz,
            emg_amp=self.noise_emg_amp,
            electrode_amp=self.noise_electrode_amp,
            electrode_band_hz=(self.noise_electrode_low_hz, self.noise_electrode_high_hz),
            seed=seed,
        )

    def fir_filter(self) -> dsp.FirFilter:
        return dsp.design_bandpass(self.fir_low_hz, self.fir_high_hz, self.sample_rate_hz, self.fir_num_taps)

    def pso_config(self, seed: int) -> PsoConfig:
        return PsoConfig(
            swarm_size=self.pso_swarm_size,
            iterations=self.pso_iterations,
            c1=self.pso_c1,
            c2=self.pso_c2,
            inertia=self.pso_inertia,
            log10_c_bounds=(self.pso_log10_c_min, self.pso_log10_c_max),
            log10_gamma_bounds=(self.pso_log10_gamma_min, self.pso_log10_gamma_max),
            velocity_clamp=self.pso_velocity_clamp,
            seed=seed,
            cv_folds=self.pso_cv_folds,
        )

    def sweep_features_values(self) -> list:
        return list(range(self.sweep_features_min, self.sweep_features_max + 1, self.sweep_features_step))

    def sweep_trees_values(self) -> list:
        return list(range(self.sweep_trees_min, self.sweep_trees_max + 1, self.sweep_trees_step))

    def sweep_k_values(self) -> list:
        return list(range(self.sweep_k_min, self.sweep_k_max + 1))

    # -- serialization -----------------------------------------------------

    def replace(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def from_text(cls, text: str, base: "PipelineConfig | None" = None) -> "PipelineConfig":
        values = dataclasses.asdict(base) if base is not None else {}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        defaults = cls() if base is None else base
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_value(getattr(defaults, key), value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        try:
            return cls(**values)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path, base: "PipelineConfig | None" = None) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_text(fh.read(), base=base)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc

    @classmethod
    def from_files(cls, paths) -> "PipelineConfig":
        cfg = None
        for path in paths:
            cfg = cls.from_file(path, base=cfg)
        return cfg if cfg is not None else cls()


def _parse_value(default, text: str):
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {text!r}")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, tuple):
        return tuple(int(part.strip()) for part in text.split(","))
    return text
