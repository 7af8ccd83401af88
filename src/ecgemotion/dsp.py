"""Window-method FIR band-pass design, filtering, and segmentation.

The denoising stage: an ideal band-pass impulse response (difference of two
sinc low-passes) is shaped by a Hamming window, normalized to unit gain at the
band's geometric-mean frequency, and applied by zero-padded convolution with
the group delay compensated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ParameterError, SignalRecord
from .utils import fmt_float

DEFAULT_NUM_TAPS = 257
DEFAULT_SEGMENT_LEN = 256

# Designs requesting a high cutoff at or beyond this fraction of the sample
# rate are clamped so the transition band stays below Nyquist.
HIGH_CUT_CLAMP_FRACTION = 0.45

MIN_SEGMENT_LEN = 80  # must exceed the largest feature count in the sweeps


@dataclass(eq=False)
class FirFilter:
    """Linear-phase FIR band-pass; ``design_bandpass`` ensures odd symmetric taps and 0 < low < high < fs/2."""

    taps: np.ndarray
    low_cut_hz: float
    high_cut_hz: float
    sample_rate_hz: float
    warning: str | None = None

    @property
    def num_taps(self) -> int:
        return len(self.taps)


def frequency_response(taps: np.ndarray, freqs_hz, sample_rate_hz: float) -> np.ndarray:
    """Complex response H(f) = sum_n taps[n] exp(-j 2 pi f n / fs)."""
    taps = np.asarray(taps, dtype=np.float64)
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    n = np.arange(len(taps))
    phases = -2j * np.pi * np.outer(freqs, n) / sample_rate_hz
    return np.exp(phases) @ taps


def design_bandpass(
    low_hz: float,
    high_hz: float,
    sample_rate_hz: float,
    num_taps: int = DEFAULT_NUM_TAPS,
) -> FirFilter:
    """Design a Hamming-window band-pass filter.

    A high cutoff at or above 0.45*fs is clamped to 0.45*fs and the design
    carries a warning instead of failing, so configurations written for a
    higher-rate front end still produce a usable filter.
    """
    if num_taps < 3 or num_taps % 2 == 0:
        raise ParameterError("num_taps must be odd and >= 3")
    if sample_rate_hz <= 0:
        raise ParameterError("sample_rate_hz must be positive")
    if not 0.0 < low_hz < high_hz:
        raise ParameterError("cutoffs must satisfy 0 < low < high")

    warning = None
    clamp = HIGH_CUT_CLAMP_FRACTION * sample_rate_hz
    if high_hz >= clamp:
        warning = (
            f"high cutoff {high_hz:g} Hz is at or above {clamp:g} Hz "
            f"({HIGH_CUT_CLAMP_FRACTION:g} * fs); clamped to {clamp:g} Hz"
        )
        high_hz = clamp
    if low_hz >= high_hz:
        raise ParameterError(f"low cutoff {low_hz:g} Hz not below usable high cutoff {high_hz:g} Hz")

    mid = (num_taps - 1) // 2
    k = np.arange(num_taps) - mid
    fl = low_hz / sample_rate_hz
    fh = high_hz / sample_rate_hz
    ideal = 2.0 * fh * np.sinc(2.0 * fh * k) - 2.0 * fl * np.sinc(2.0 * fl * k)
    taps = ideal * np.hamming(num_taps)
    taps = 0.5 * (taps + taps[::-1])  # enforce exact symmetry

    center_hz = float(np.sqrt(low_hz * high_hz))
    gain = float(np.abs(frequency_response(taps, center_hz, sample_rate_hz))[0])
    taps = taps / gain

    return FirFilter(taps, float(low_hz), float(high_hz), float(sample_rate_hz), warning)


def apply(fir: FirFilter, record: SignalRecord) -> SignalRecord:
    """Filter a record: zero-padded convolution with group delay removed."""
    if record.sample_rate_hz != fir.sample_rate_hz:
        raise ParameterError(
            f"record sample rate {record.sample_rate_hz} != filter sample rate {fir.sample_rate_hz}"
        )
    mid = (fir.num_taps - 1) // 2
    full = np.convolve(record.samples, fir.taps, mode="full")
    out = full[mid : mid + len(record.samples)]
    return SignalRecord(out, record.sample_rate_hz, record.label, record.subject_id)


def segment(record: SignalRecord, length: int = DEFAULT_SEGMENT_LEN) -> tuple[np.ndarray, np.ndarray]:
    """Cut a record into consecutive fixed-length windows: a read-only
    (k, length) view of its samples and the k start offsets. A tail shorter
    than one window is dropped, so a record shorter than one window yields
    k = 0."""
    if length < MIN_SEGMENT_LEN:
        raise ParameterError(f"segment length must be >= {MIN_SEGMENT_LEN}")
    k = len(record.samples) // length
    windows = record.samples[: k * length].reshape(k, length)
    windows.flags.writeable = False
    return windows, np.arange(k) * length


def save_taps(fir: FirFilter, path) -> None:
    with open(path, "w") as fh:
        fh.write(
            f"# fs={fmt_float(fir.sample_rate_hz)},low={fmt_float(fir.low_cut_hz)},"
            f"high={fmt_float(fir.high_cut_hz)},window=hamming\n"
        )
        for tap in fir.taps:
            fh.write(fmt_float(tap) + "\n")
