"""Emotion-conditioned synthetic ECG generation and additive noise injection.

Stands in for a wearable-sensor recording campaign. Each emotion has a
heart-rate profile; a record is a train of PQRST-like beats built from five
Gaussian bumps, and four additive noise sources (baseline drift, powerline,
EMG, electrode contact) can be mixed in reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Emotion, ParameterError, SignalRecord
from .utils import fmt_float

# One beat: (relative offset from the R peak [s], Gaussian width [s],
# amplitude [mV], which profile scale applies).
_BEAT_BUMPS = (
    (-0.200, 0.040, 0.120, "fixed"),  # P
    (-0.030, 0.012, -0.120, "qrs"),   # Q
    (0.000, 0.018, 1.000, "qrs"),     # R
    (0.030, 0.014, -0.220, "qrs"),    # S
    (0.220, 0.055, 0.300, "t"),       # T
)


@dataclass
class EmotionProfile:
    """Heart-rate statistics and waveform scaling for one emotion."""

    mean_hr_bpm: float
    hr_std_bpm: float
    qrs_amp_scale: float = 1.0
    t_amp_scale: float = 1.0

    def __post_init__(self):
        if not 30.0 <= self.mean_hr_bpm <= 220.0:
            raise ParameterError("mean_hr_bpm must lie in [30, 220]")
        if self.hr_std_bpm < 0:
            raise ParameterError("hr_std_bpm must be >= 0")
        if self.qrs_amp_scale <= 0 or self.t_amp_scale <= 0:
            raise ParameterError("amplitude scales must be positive")


@dataclass
class NoiseSpec:
    """Amplitudes and bands for the four additive noise sources.

    Sinusoid amplitudes (baseline drift, powerline) are peak values; the
    band-limited white-noise amplitudes (EMG, electrode) are RMS values.
    Each component derives its own sub-seed from ``seed``, so a component
    is a pure function of (seed, band) scaled by its amplitude.
    """

    baseline_drift_amp: float = 0.0
    baseline_drift_hz: float = 0.3
    powerline_amp: float = 0.0
    powerline_hz: float = 50.0
    emg_amp: float = 0.0
    electrode_amp: float = 0.0
    electrode_band_hz: tuple[float, float] = (1.0, 10.0)
    seed: int = 0

    # EMG is muscle activity, well above the cardiac band.
    EMG_BAND_HZ = (20.0, 60.0)

    def __post_init__(self):
        for name in ("baseline_drift_amp", "powerline_amp", "emg_amp", "electrode_amp"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")


def generate_clean(
    profile: EmotionProfile,
    duration_s: float,
    sample_rate_hz: float,
    seed: int,
    label: Emotion = Emotion.HAPPY,
    subject_id: int = 0,
) -> SignalRecord:
    """Generate one clean emotion-conditioned ECG record.

    Beat-to-beat intervals are drawn from the profile's heart-rate
    distribution; each beat adds five Gaussian bumps (P, Q, R, S, T).
    Deterministic for a fixed seed.
    """
    if duration_s <= 0:
        raise ParameterError("duration_s must be positive")
    if sample_rate_hz < 100:
        raise ParameterError("sample_rate_hz must be >= 100")

    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    samples = np.zeros(n)

    def next_interval() -> float:
        hr = profile.mean_hr_bpm
        if profile.hr_std_bpm > 0:
            hr = rng.normal(profile.mean_hr_bpm, profile.hr_std_bpm)
        return 60.0 / min(max(hr, 30.0), 220.0)

    scales = {"fixed": 1.0, "qrs": profile.qrs_amp_scale, "t": profile.t_amp_scale}
    r_time = 0.5 * next_interval()
    while r_time - 0.5 < duration_s:
        for offset, width, amp, kind in _BEAT_BUMPS:
            center = r_time + offset
            lo = max(0, int(np.floor((center - 4 * width) * sample_rate_hz)))
            hi = min(n, int(np.ceil((center + 4 * width) * sample_rate_hz)) + 1)
            if lo >= hi:
                continue
            window = t[lo:hi] - center
            samples[lo:hi] += amp * scales[kind] * np.exp(-0.5 * (window / width) ** 2)
        r_time += next_interval()

    return SignalRecord(samples, float(sample_rate_hz), label, subject_id)


def _unit_sinusoid(n: int, fs: float, freq_hz: float, sub_rng: np.random.Generator) -> np.ndarray:
    phase = sub_rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * freq_hz * np.arange(n) / fs + phase)


def _unit_band_noise(
    n: int, fs: float, band: tuple[float, float], sub_rng: np.random.Generator
) -> np.ndarray:
    """White noise restricted to a frequency band, normalized to unit RMS."""
    white = sub_rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    shaped = np.fft.irfft(spectrum, n)
    rms = np.sqrt(np.mean(shaped**2))
    if rms == 0.0:
        return np.zeros(n)
    return shaped / rms


def inject_noise(record: SignalRecord, spec: NoiseSpec) -> SignalRecord:
    """Add the configured noise components to a record.

    Output length equals input length; with all amplitudes zero the samples
    are returned unchanged. Components use independent sub-seeds derived
    from ``spec.seed``, so injection is additive across specs that share a
    seed and differ only in amplitudes.
    """
    fs = record.sample_rate_hz
    nyquist = fs / 2.0
    n = len(record.samples)
    out = record.samples.copy()

    if spec.baseline_drift_amp > 0:
        if not 0.0 < spec.baseline_drift_hz < nyquist:
            raise ParameterError(f"baseline drift frequency outside (0, {nyquist})")
        sub = np.random.default_rng(np.random.SeedSequence((spec.seed, 0)))
        out += spec.baseline_drift_amp * _unit_sinusoid(n, fs, spec.baseline_drift_hz, sub)

    if spec.powerline_amp > 0:
        if not 0.0 < spec.powerline_hz < nyquist:
            raise ParameterError(f"powerline frequency outside (0, {nyquist})")
        sub = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
        out += spec.powerline_amp * _unit_sinusoid(n, fs, spec.powerline_hz, sub)

    if spec.emg_amp > 0:
        lo, hi = NoiseSpec.EMG_BAND_HZ
        if not 0.0 < lo < hi < nyquist:
            raise ParameterError(f"EMG band ({lo}, {hi}) outside (0, {nyquist})")
        sub = np.random.default_rng(np.random.SeedSequence((spec.seed, 2)))
        out += spec.emg_amp * _unit_band_noise(n, fs, (lo, hi), sub)

    if spec.electrode_amp > 0:
        lo, hi = spec.electrode_band_hz
        if not 0.0 < lo < hi < nyquist:
            raise ParameterError(f"electrode band ({lo}, {hi}) outside (0, {nyquist})")
        sub = np.random.default_rng(np.random.SeedSequence((spec.seed, 3)))
        out += spec.electrode_amp * _unit_band_noise(n, fs, (lo, hi), sub)

    return SignalRecord(out, fs, record.label, record.subject_id)


def save_record(record: SignalRecord, path) -> None:
    """Write a record as a signal CSV: metadata header rows, then one sample per line."""
    with open(path, "w") as fh:
        fh.write("label,subject,fs\n")
        fh.write(f"{int(record.label)},{record.subject_id},{fmt_float(record.sample_rate_hz)}\n")
        for value in record.samples:
            fh.write(fmt_float(value) + "\n")


def load_record(path) -> SignalRecord:
    from .types import DataFormatError

    with open(path) as fh:
        header = fh.readline().strip()
        if header != "label,subject,fs":
            raise DataFormatError(f"{path}: expected signal header 'label,subject,fs'")
        meta = fh.readline().strip().split(",")
        if len(meta) != 3:
            raise DataFormatError(f"{path}: malformed metadata row")
        try:
            label = Emotion.from_code(int(meta[0]))
            subject = int(meta[1])
            fs = float(meta[2])
            samples = [float(line) for line in fh if line.strip()]
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if not samples:
        raise DataFormatError(f"{path}: no samples")
    samples = np.array(samples)
    if not (0 < fs < np.inf and np.isfinite(samples).all()):
        raise DataFormatError(f"{path}: fs must be finite and positive, and every sample finite")
    return SignalRecord(samples, fs, label, subject)
