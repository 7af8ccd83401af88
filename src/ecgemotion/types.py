"""Shared domain types and exceptions for the ECG emotion pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class ParameterError(ValueError):
    """An operation was called with arguments that violate its contract."""


class DataFormatError(ValueError):
    """A data file is malformed or internally inconsistent."""


class ConfigError(ValueError):
    """A configuration document contains unknown keys or invalid values."""


class Emotion(IntEnum):
    """The four emotion classes. Codes are stable across all file formats."""

    HAPPY = 0
    EXCITING = 1
    CALM = 2
    TENSE = 3

    @classmethod
    def from_code(cls, code) -> "Emotion":
        """The emotion of an integer code or of its decimal text."""
        try:
            return cls(int(code))
        except ValueError as exc:
            raise DataFormatError(f"unknown emotion code {code!r}") from exc


EMOTIONS: tuple[Emotion, ...] = tuple(Emotion)
NUM_CLASSES = len(EMOTIONS)


@dataclass(eq=False)
class SignalRecord:
    """A uniformly sampled amplitude sequence (millivolts) with provenance."""

    samples: np.ndarray
    sample_rate_hz: float
    label: Emotion
    subject_id: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ParameterError("samples must be a non-empty 1-D sequence")
        if not self.sample_rate_hz > 0:
            raise ParameterError("sample_rate_hz must be positive")
        self.label = Emotion(self.label)
        self.subject_id = int(self.subject_id)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(eq=False)
class FeatureVector:
    """Leading DCT coefficients of one segment, with its label and provenance."""

    values: np.ndarray
    label: Emotion
    source: tuple[int, int]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ParameterError("feature values must be a non-empty 1-D sequence")
        self.label = Emotion(self.label)
        self.source = (int(self.source[0]), int(self.source[1]))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class Dataset:
    """A train/test split held as arrays, three per side: the rows (float64,
    ``(n, d)``), their emotion codes (int64, ``(n,)``) and their
    ``(subject, start)`` sources (int64, ``(n, 2)``).

    Train and test provenance never overlap because they are drawn from
    disjoint subject groups. ``train`` and ``test`` are per-row
    ``FeatureVector`` views, built each time they are read.
    """

    x_train: np.ndarray
    codes_train: np.ndarray
    sources_train: np.ndarray
    x_test: np.ndarray
    codes_test: np.ndarray
    sources_test: np.ndarray

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x_train, self.codes_train

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x_test, self.codes_test

    @property
    def train(self) -> list:
        return _vectors(self.x_train, self.codes_train, self.sources_train)

    @property
    def test(self) -> list:
        return _vectors(self.x_test, self.codes_test, self.sources_test)


def _vectors(x, codes, sources) -> list:
    return [FeatureVector(*row) for row in zip(x, codes, sources)]
