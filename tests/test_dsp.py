import numpy as np
import pytest

from ecgemotion.dsp import (
    apply,
    design_bandpass,
    save_taps,
    segment,
)
from ecgemotion.synthgen import EmotionProfile, generate_clean
from ecgemotion.types import Emotion, ParameterError, SignalRecord

from oracles import dft_magnitude, find_peaks


def tone(freq_hz, duration_s=10.0, fs=128.0):
    t = np.arange(int(duration_s * fs)) / fs
    return SignalRecord(np.sin(2 * np.pi * freq_hz * t), fs, Emotion.HAPPY, 1)


def test_reference_design_clamps_to_57_6():
    fir = design_bandpass(3, 100, 128, 257)
    assert fir.high_cut_hz == pytest.approx(0.45 * 128)
    assert fir.warning is not None
    assert fir.num_taps == 257


@pytest.mark.parametrize(
    "low, high, taps",
    [pytest.param(3, 40, 101, id="hamming"),
     # high cutoffs clamped to 57.6 Hz: the reference design and the shortest filter
     pytest.param(3, 100, 257, id="reference"),
     pytest.param(0.5, 63.9, 3, id="three-taps")],
)
def test_taps_symmetric(low, high, taps):
    # the FirFilter invariants, which only design_bandpass establishes
    fir = design_bandpass(low, high, 128, taps)
    assert np.allclose(fir.taps, fir.taps[::-1], rtol=0.0, atol=1e-12)
    assert fir.num_taps == taps and fir.num_taps % 2 == 1 and fir.num_taps >= 3
    assert 0 < fir.low_cut_hz < fir.high_cut_hz < fir.sample_rate_hz / 2


def test_dc_blocked():
    fir = design_bandpass(3, 57.6, 128, 257)
    assert dft_magnitude(fir.taps, 0.0, 128) <= 0.01


def test_center_gain_unity():
    fir = design_bandpass(3, 57.6, 128, 257)
    center = np.sqrt(3 * 57.6)
    assert dft_magnitude(fir.taps, center, 128) == pytest.approx(1.0, abs=1e-3)


def test_design_parameter_errors():
    with pytest.raises(ParameterError):
        design_bandpass(3, 40, 128, 256)  # even taps
    with pytest.raises(ParameterError):
        design_bandpass(40, 3, 128, 257)  # inverted cutoffs
    with pytest.raises(ParameterError):
        design_bandpass(60, 100, 128, 257)  # low above clamped high


def test_apply_zero_signal():
    fir = design_bandpass(3, 57.6, 128)
    zero = SignalRecord(np.zeros(1000), 128, Emotion.HAPPY, 1)
    out = apply(fir, zero)
    assert np.array_equal(out.samples, np.zeros(1000))


def test_passband_10hz_rms():
    fir = design_bandpass(3, 57.6, 128)
    record = tone(10.0)
    out = apply(fir, record)
    ratio = np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(record.samples**2))
    assert 0.88 <= ratio <= 1.12


def test_stopband_0p3hz_rms():
    fir = design_bandpass(3, 57.6, 128)
    record = tone(0.3, duration_s=30.0)
    out = apply(fir, record)
    ratio = np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(record.samples**2))
    assert ratio <= 0.10


def test_group_delay_compensated_on_qrs():
    fir = design_bandpass(3, 57.6, 128)
    record = generate_clean(EmotionProfile(60, 0), 10, 128, seed=1)
    before = find_peaks(record.samples)
    after = find_peaks(apply(fir, record).samples)
    assert len(before) == len(after)
    assert max(abs(a - b) for a, b in zip(after, before)) <= 1


def test_apply_rate_mismatch():
    fir = design_bandpass(3, 57.6, 128)
    record = SignalRecord(np.zeros(100), 250, Emotion.HAPPY, 1)
    with pytest.raises(ParameterError):
        apply(fir, record)


def test_apply_shorter_than_taps():
    fir = design_bandpass(3, 57.6, 128, 257)
    record = SignalRecord(np.ones(100), 128, Emotion.HAPPY, 1)
    assert len(apply(fir, record)) == 100


def test_filter_linearity():
    fir = design_bandpass(3, 57.6, 128)
    rng = np.random.default_rng(0)
    x = rng.normal(size=512)
    y = rng.normal(size=512)
    a, b = 2.5, -1.25
    combined = apply(fir, SignalRecord(a * x + b * y, 128, Emotion.HAPPY, 1)).samples
    separate = a * apply(fir, SignalRecord(x, 128, Emotion.HAPPY, 1)).samples + b * apply(
        fir, SignalRecord(y, 128, Emotion.HAPPY, 1)
    ).samples
    assert np.allclose(combined, separate, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("window", ["hamming"])
def test_window_tapers_monotonically(window):
    # the taper the design puts on the ideal response, scaled to 1 at the center
    fir = design_bandpass(3, 40, 128, 101)
    center = 50
    k = np.arange(101) - center
    fl, fh = 3 / 128, 40 / 128
    ideal = 2 * fh * np.sinc(2 * fh * k) - 2 * fl * np.sinc(2 * fl * k)
    taper = fir.taps / ideal
    taper /= taper[center]
    assert np.allclose(taper, getattr(np, window)(101), rtol=1e-9, atol=0)
    first_half = taper[: center + 1]
    assert (np.diff(first_half) >= -1e-15).all()
    second_half = taper[center:]
    assert (np.diff(second_half) <= 1e-15).all()


def test_segment_counts():
    record = SignalRecord(np.zeros(38400), 128, Emotion.CALM, 2)
    assert len(segment(record, 256)[0]) == 150
    short = SignalRecord(np.zeros(255), 128, Emotion.CALM, 2)
    windows, starts = segment(short, 256)
    assert windows.shape == (0, 256) and starts.shape == (0,)


def test_segment_provenance_and_errors():
    from ecgemotion.config import PipelineConfig
    from ecgemotion.evaluation import FeatureCache

    record = SignalRecord(np.arange(600, dtype=float), 128, Emotion.TENSE, 7)
    windows, starts = segment(record, 256)
    # consecutive windows; the 88-sample tail is dropped
    assert starts.tolist() == [0, 256]
    assert windows.shape == (2, 256)
    assert np.array_equal(windows[1], np.arange(256, 512, dtype=float))
    # a read-only view of the record's samples, not a copy
    assert np.shares_memory(windows, record.samples) and not windows.flags.writeable
    # the record's label and subject reach every window's cache row
    cfg = PipelineConfig(segment_len=256, train_subjects=(7,), test_subjects=(8,))
    cache = FeatureCache([record], cfg)
    assert list(zip(cache.subjects.tolist(), cache.starts.tolist())) == [(7, 0), (7, 256)]
    assert all(Emotion(code) is Emotion.TENSE for code in cache.labels)
    with pytest.raises(ParameterError):
        segment(record, 64)  # below the minimum segment length


def test_taps_csv_roundtrip(tmp_path):
    fir = design_bandpass(3, 100, 128, 257)
    path = tmp_path / "taps.csv"
    save_taps(fir, path)
    header, *taps = path.read_text().splitlines()
    assert header == "# fs=128.0,low=3.0,high=57.6,window=hamming"
    assert np.array_equal([float(tap) for tap in taps], fir.taps)
