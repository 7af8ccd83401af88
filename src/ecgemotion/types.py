"""Shared domain types and exceptions for the ECG emotion pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Labeled feature vectors split into training and test sides.

    Train and test provenance never overlap because they are drawn from
    disjoint subject groups.
    """

    train: list = field(default_factory=list)
    test: list = field(default_factory=list)
    feature_count: int = 0
    emotions: tuple[Emotion, ...] = EMOTIONS

    def __post_init__(self):
        for fv in list(self.train) + list(self.test):
            if len(fv) != self.feature_count:
                raise ParameterError(
                    f"feature vector length {len(fv)} != feature_count {self.feature_count}"
                )

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _to_arrays(self.train, self.feature_count)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _to_arrays(self.test, self.feature_count)


def _to_arrays(vectors, feature_count: int) -> tuple[np.ndarray, np.ndarray]:
    if not vectors:
        return np.empty((0, feature_count)), np.empty(0, dtype=np.int64)
    x = np.stack([fv.values for fv in vectors])
    y = np.array([int(fv.label) for fv in vectors], dtype=np.int64)
    return x, y
