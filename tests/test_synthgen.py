import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgemotion import evaluation
from ecgemotion.config import PipelineConfig
from ecgemotion.synthgen import (
    EmotionProfile,
    NoiseSpec,
    generate_clean,
    inject_noise,
    load_record,
    save_record,
)
from ecgemotion.types import Emotion, ParameterError, SignalRecord

from oracles import find_peaks, generate_clean_loop


def test_ten_peaks_at_60bpm():
    record = generate_clean(EmotionProfile(60, 0), 10, 128, seed=1)
    assert len(find_peaks(record.samples)) == 10


def test_generate_clean_equals_per_beat_loop():
    # 0.2 s holds a single beat, and bumps clip at both ends of every record
    grid = itertools.product((0, 6), (30, 75, 220), (0.2, 1, 12.5, 300), (100, 128, 500), (0, 7, 12345))
    for hr_std, hr, duration, fs, seed in grid:
        profile = EmotionProfile(hr, hr_std, qrs_amp_scale=1.1, t_amp_scale=0.9)
        fast = generate_clean(profile, duration, fs, seed).samples
        loop = generate_clean_loop(profile, duration, fs, seed).samples
        assert fast.tobytes() == loop.tobytes(), (hr_std, hr, duration, fs, seed)


def test_synth_corpus_equals_per_beat_loop(mini_config, monkeypatch):
    fast = evaluation.synth_corpus(mini_config)
    monkeypatch.setattr(evaluation.synthgen, "generate_clean", generate_clean_loop)
    loop = evaluation.synth_corpus(mini_config)
    assert len(fast) == len(loop) == 4 * len(mini_config.all_subjects())
    for a, b in zip(fast, loop):
        assert (a.label, a.subject_id) == (b.label, b.subject_id)
        assert a.samples.tobytes() == b.samples.tobytes(), (a.subject_id, a.label)


def test_determinism_bit_identical():
    a = generate_clean(EmotionProfile(80, 4), 30, 128, seed=7)
    b = generate_clean(EmotionProfile(80, 4), 30, 128, seed=7)
    assert np.array_equal(a.samples, b.samples)
    c = generate_clean(EmotionProfile(80, 4), 30, 128, seed=8)
    assert not np.array_equal(a.samples, c.samples)


def test_mean_rr_at_120bpm():
    record = generate_clean(EmotionProfile(120, 0), 60, 128, seed=3)
    peaks = find_peaks(record.samples)
    intervals = np.diff(peaks) / 128.0
    assert abs(intervals.mean() - 0.5) <= 1.0 / 128.0


def test_duration_and_metadata():
    record = generate_clean(
        EmotionProfile(70, 2), 12.5, 128, seed=0, label=Emotion.TENSE, subject_id=4
    )
    assert len(record) == 1600
    assert record.sample_rate_hz == 128.0
    assert record.label is Emotion.TENSE
    assert record.subject_id == 4


def test_generate_parameter_errors():
    with pytest.raises(ParameterError):
        generate_clean(EmotionProfile(60, 0), 0, 128, seed=0)
    with pytest.raises(ParameterError):
        generate_clean(EmotionProfile(60, 0), 10, 99, seed=0)
    with pytest.raises(ParameterError):
        EmotionProfile(20, 0)
    with pytest.raises(ParameterError):
        EmotionProfile(60, -1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            generate_clean(EmotionProfile(60, 0), bad, 128, seed=0)
        with pytest.raises(ParameterError):
            EmotionProfile(60, bad)
        with pytest.raises(ParameterError):
            EmotionProfile(60, 0, qrs_amp_scale=bad)
        with pytest.raises(ParameterError):
            EmotionProfile(60, 0, t_amp_scale=bad)
    with pytest.raises(ParameterError):
        generate_clean(EmotionProfile(60, 0), 10, np.inf, seed=0)


def test_inject_identity_when_all_zero():
    record = generate_clean(EmotionProfile(60, 3), 5, 128, seed=2)
    out = inject_noise(record, NoiseSpec(seed=11))
    assert np.array_equal(out.samples, record.samples)


def test_powerline_single_spectral_peak():
    zero = SignalRecord(np.zeros(256), 128, Emotion.HAPPY, 1)
    out = inject_noise(zero, NoiseSpec(powerline_amp=1.0, powerline_hz=50.0, seed=5))
    magnitude = np.abs(np.fft.rfft(out.samples))
    freqs = np.fft.rfftfreq(256, 1 / 128)
    peak = freqs[int(np.argmax(magnitude))]
    assert peak == pytest.approx(50.0)
    others = magnitude[np.abs(freqs - 50.0) > 1.0]
    assert others.max() < 1e-8 * magnitude.max()


def test_baseline_drift_peak_to_peak():
    zero = SignalRecord(np.zeros(128 * 20), 128, Emotion.HAPPY, 1)
    out = inject_noise(zero, NoiseSpec(baseline_drift_amp=1.0, baseline_drift_hz=0.3, seed=5))
    assert out.samples.max() - out.samples.min() == pytest.approx(2.0, abs=1e-3)


def test_injection_additive_across_amplitude_splits():
    record = generate_clean(EmotionProfile(75, 5), 8, 128, seed=4)
    kwargs = dict(baseline_drift_hz=0.3, powerline_hz=50.0, seed=21)
    a = NoiseSpec(baseline_drift_amp=0.1, powerline_amp=0.0, emg_amp=0.02, electrode_amp=0.0, **kwargs)
    b = NoiseSpec(baseline_drift_amp=0.05, powerline_amp=0.3, emg_amp=0.0, electrode_amp=0.04, **kwargs)
    combined = NoiseSpec(
        baseline_drift_amp=0.15, powerline_amp=0.3, emg_amp=0.02, electrode_amp=0.04, **kwargs
    )
    chained = inject_noise(inject_noise(record, a), b)
    direct = inject_noise(record, combined)
    assert np.allclose(chained.samples, direct.samples, rtol=0.0, atol=1e-12)


def test_band_validation():
    record = SignalRecord(np.zeros(256), 128, Emotion.HAPPY, 1)
    with pytest.raises(ParameterError):
        inject_noise(record, NoiseSpec(powerline_amp=1.0, powerline_hz=64.0, seed=0))
    with pytest.raises(ParameterError):
        inject_noise(record, NoiseSpec(electrode_amp=1.0, electrode_band_hz=(1.0, 70.0), seed=0))
    with pytest.raises(ParameterError):
        inject_noise(record, NoiseSpec(baseline_drift_amp=1.0, baseline_drift_hz=0.0, seed=0))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ParameterError):
            NoiseSpec(emg_amp=bad)


def test_default_profiles_separable_rr():
    means = {}
    for emotion, profile in PipelineConfig().profiles().items():
        record = generate_clean(profile, 60, 128, seed=13, label=emotion)
        peaks = find_peaks(record.samples)
        means[emotion] = float(np.mean(np.diff(peaks)) / 128.0)
    values = sorted(means.values())
    gaps = np.diff(values)
    assert (gaps >= 0.05).all(), means


def test_output_length_preserved():
    record = generate_clean(EmotionProfile(70, 3), 7, 128, seed=6)
    out = inject_noise(record, NoiseSpec(emg_amp=0.5, electrode_amp=0.2, seed=3))
    assert len(out) == len(record)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), amp=st.floats(0.01, 2.0))
def test_emg_component_rms_matches_amplitude(seed, amp):
    zero = SignalRecord(np.zeros(128 * 8), 128, Emotion.HAPPY, 1)
    out = inject_noise(zero, NoiseSpec(emg_amp=amp, seed=seed))
    rms = float(np.sqrt(np.mean(out.samples**2)))
    assert rms == pytest.approx(amp, rel=1e-9)


def test_signal_csv_roundtrip(tmp_path):
    record = generate_clean(
        EmotionProfile(77, 4), 3, 128, seed=9, label=Emotion.CALM, subject_id=3
    )
    path = tmp_path / "sig.csv"
    save_record(record, path)
    loaded = load_record(path)
    assert np.array_equal(loaded.samples, record.samples)
    assert loaded.label is Emotion.CALM
    assert loaded.subject_id == 3
    assert loaded.sample_rate_hz == 128.0
