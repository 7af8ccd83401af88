"""Emotion-conditioned synthetic ECG generation and additive noise injection.

Stands in for a wearable-sensor recording campaign. Each emotion has a
heart-rate profile; a record is a train of PQRST-like beats built from five
Gaussian bumps, and four additive noise sources (baseline drift, powerline,
EMG, electrode contact) can be mixed in reproducibly.

A record's bumps are computed as flat arrays and summed into the samples in
(beat, bump) order, starting from zero, so each sample gets the same float64
sum as adding one bump at a time; ``tests/oracles.generate_clean_loop`` is
that per-bump reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import DataFormatError, Emotion, ParameterError, SignalRecord
from .utils import csv_text, read_rows

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
        if not 0 <= self.hr_std_bpm < np.inf:  # also rejects NaN
            raise ParameterError("hr_std_bpm must be finite and >= 0")
        if not (0 < self.qrs_amp_scale < np.inf and 0 < self.t_amp_scale < np.inf):
            raise ParameterError("amplitude scales must be positive and finite")


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
            if not 0 <= getattr(self, name) < np.inf:  # also rejects NaN
                raise ParameterError(f"{name} must be finite and >= 0")

    def sources(self) -> tuple:
        """(name, amplitude, frequencies) per source in sub-seed order: a
        sinusoid's one frequency, or a band's (low, high) edges."""
        return (
            ("baseline drift", self.baseline_drift_amp, (self.baseline_drift_hz,)),
            ("powerline", self.powerline_amp, (self.powerline_hz,)),
            ("EMG", self.emg_amp, self.EMG_BAND_HZ),
            ("electrode", self.electrode_amp, self.electrode_band_hz),
        )

    def check(self, sample_rate_hz: float) -> None:
        """Reject a source with a positive amplitude whose frequencies do not
        rise strictly inside (0, Nyquist)."""
        nyquist = sample_rate_hz / 2.0
        for name, amp, freqs in self.sources():
            edges = (0.0, *freqs, nyquist)
            if amp > 0 and not all(a < b for a, b in zip(edges, edges[1:])):
                raise ParameterError(f"{name} frequencies {list(freqs)} Hz not inside (0, {nyquist})")


def check_sampling(duration_s: float, sample_rate_hz: float) -> None:
    """The record length and sampling rate the generator accepts."""
    if not 0 < duration_s < np.inf:  # also rejects NaN
        raise ParameterError("duration_s must be positive and finite")
    if not 100 <= sample_rate_hz < np.inf:
        raise ParameterError("sample_rate_hz must be finite and >= 100")


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
    Deterministic for a fixed seed. R times are running sums of the
    intervals and every sample sums its bumps in (beat, bump) order, so the
    record is bit-identical to adding the bumps one at a time.
    """
    check_sampling(duration_s, sample_rate_hz)
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz

    # Enough intervals to pass duration_s + 0.5 even at the 220 bpm clamp;
    # draws past the last beat are never used.
    draws = int(np.ceil((duration_s + 0.5) * 220.0 / 60.0)) + 2
    hr = np.full(draws, profile.mean_hr_bpm, dtype=float)
    if profile.hr_std_bpm > 0:
        hr = rng.normal(profile.mean_hr_bpm, profile.hr_std_bpm, draws)
    intervals = 60.0 / np.clip(hr, 30.0, 220.0)
    intervals[0] *= 0.5
    r_times = np.add.accumulate(intervals)
    r_times = r_times[r_times - 0.5 < duration_s]

    offsets, widths, amps, kinds = zip(*_BEAT_BUMPS)
    scales = {"fixed": 1.0, "qrs": profile.qrs_amp_scale, "t": profile.t_amp_scale}
    centers = (r_times[:, None] + np.array(offsets)).ravel()
    widths = np.tile(widths, len(r_times))
    gains = np.tile([amp * scales[kind] for amp, kind in zip(amps, kinds)], len(r_times))
    lo = np.maximum(0, np.floor((centers - 4 * widths) * sample_rate_hz).astype(np.int64))
    hi = np.minimum(n, np.ceil((centers + 4 * widths) * sample_rate_hz).astype(np.int64) + 1)
    lengths = np.maximum(hi - lo, 0)  # a bump with lo >= hi lies outside the record
    starts = np.cumsum(lengths) - lengths
    idx = np.arange(lengths.sum()) + np.repeat(lo - starts, lengths)
    window = (t[idx] - np.repeat(centers, lengths)) / np.repeat(widths, lengths)
    values = np.repeat(gains, lengths) * np.exp(-0.5 * window**2)
    samples = np.bincount(idx, weights=values, minlength=n)

    return SignalRecord(samples, float(sample_rate_hz), label, subject_id)


def _unit_noise(n: int, fs: float, freqs: tuple, sub_rng: np.random.Generator) -> np.ndarray:
    """A sinusoid of unit peak at one frequency with a random phase, or
    white noise restricted to a (low, high) band and normalized to unit RMS."""
    if len(freqs) == 1:
        phase = sub_rng.uniform(0.0, 2.0 * np.pi)
        return np.sin(2.0 * np.pi * freqs[0] * np.arange(n) / fs + phase)
    white = sub_rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    bins = np.fft.rfftfreq(n, 1.0 / fs)
    spectrum[(bins < freqs[0]) | (bins > freqs[1])] = 0.0
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
    spec.check(fs)
    n = len(record.samples)
    out = record.samples.copy()
    for index, (_, amp, freqs) in enumerate(spec.sources()):
        if amp > 0:
            sub = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
            out += amp * _unit_noise(n, fs, freqs, sub)

    return SignalRecord(out, fs, record.label, record.subject_id)


def save_record(record: SignalRecord, path) -> None:
    """Write a record as a signal CSV: metadata header rows, then one sample per line."""
    meta = [int(record.label), record.subject_id, float(record.sample_rate_hz)]
    with open(path, "w") as fh:
        fh.write(csv_text(["label", "subject", "fs"], [meta, *record.samples[:, None]]))


def load_record(path) -> SignalRecord:
    with open(path) as fh:
        if fh.readline().strip() != "label,subject,fs":
            raise DataFormatError(f"{path}: expected signal header 'label,subject,fs'")
        meta = fh.readline().strip().split(",")
        if len(meta) != 3:
            raise DataFormatError(f"{path}:2: malformed metadata row")
        try:
            label = Emotion.from_code(meta[0])
            subject = int(meta[1])
            fs = float(meta[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:2: {exc}") from exc
        samples = np.array(read_rows(fh, path, 1, lambda cells: float(cells[0]), first_line=3))
    if not (0 < fs < np.inf and np.isfinite(samples).all()):
        raise DataFormatError(f"{path}: fs must be finite and positive, and every sample finite")
    return SignalRecord(samples, fs, label, subject)
