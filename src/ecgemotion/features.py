"""DCT features, class-balanced sampling and the feature CSV format.

The transform is the orthonormal DCT-II:

    y(k) = w(k) * sum_{n=1..N} x(n) * cos(pi * (2n - 1) * (k - 1) / (2N))

with w(1) = 1/sqrt(N) and w(k) = sqrt(2/N) for k >= 2. It is energy
preserving, and its leading coefficients carry decreasing energy for
smooth signals, so truncating to the first n coefficients is the feature
extraction step. Coefficients are kept in natural index order; a
per-segment magnitude sort would destroy alignment across segments.
"""

from __future__ import annotations

import warnings

import numpy as np

from .types import DataFormatError, Emotion, EMOTIONS, ParameterError
from .utils import csv_text, read_rows

_BASIS_CACHE: dict[int, np.ndarray] = {}


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis; row k is the k-th cosine basis vector."""
    if n < 1:
        raise ParameterError("transform length must be >= 1")
    cached = _BASIS_CACHE.get(n)
    if cached is not None:
        return cached
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    basis = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    basis[0] *= 1.0 / np.sqrt(n)
    basis[1:] *= np.sqrt(2.0 / n)
    basis.setflags(write=False)
    _BASIS_CACHE[n] = basis
    return basis


def dct(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("dct input must be a non-empty 1-D sequence")
    return dct_matrix(len(x)) @ x


def balanced_counts(total: int, classes: int = len(EMOTIONS)) -> list[int]:
    """Split a total across classes, lower class codes taking the remainder."""
    base, rem = divmod(total, classes)
    return [base + (1 if i < rem else 0) for i in range(classes)]


def sample_balanced(pools, total: int, rng: np.random.Generator, side: str) -> np.ndarray:
    """Class-balanced sample of pool entries, shuffled.

    ``pools`` holds one array of row indices per emotion, in code order. A
    pool shorter than its share is resampled with replacement.
    """
    chosen = []
    for emotion, want, pool in zip(EMOTIONS, balanced_counts(total), pools):
        if want == 0:
            continue
        if len(pool) == 0:
            raise ParameterError(f"no {side} segments available for emotion {emotion.name}")
        replace = len(pool) < want
        if replace:
            warnings.warn(
                f"{side} pool for {emotion.name} has {len(pool)} segments; "
                f"sampling {want} with replacement",
                stacklevel=2,
            )
        chosen.append(pool[rng.choice(len(pool), size=want, replace=replace)])
    chosen = np.concatenate(chosen)
    return chosen[rng.permutation(len(chosen))]


def features_csv(x, codes) -> str:
    """Feature rows as CSV: header label,f1..fn then one row per vector."""
    if len(x) == 0:
        raise ParameterError("no feature vectors to write")
    header = ["label"] + [f"f{i}" for i in range(1, x.shape[1] + 1)]
    return csv_text(header, ([int(code), *values] for code, values in zip(codes, x)))


def save_features(x, codes, path) -> None:
    with open(path, "w") as fh:
        fh.write(features_csv(x, codes))


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and emotion codes of a CSV written by ``save_features``."""
    with open(path) as fh:
        return read_features(fh, path, 1)


def _feature_row(cells) -> tuple:
    return int(Emotion.from_code(cells[0])), [float(c) for c in cells[1:]]


def read_features(fh, path, header_line) -> tuple[np.ndarray, np.ndarray]:
    """Parse the rest of an open text file as a feature CSV. Errors name
    ``path`` and the line, counting the CSV's header as line ``header_line``."""
    header = fh.readline().strip().split(",")
    if len(header) < 2 or header[0] != "label" or header[1] != "f1":
        raise DataFormatError(f"{path}: expected feature header 'label,f1..fn'")
    codes, rows = zip(*read_rows(fh, path, len(header), _feature_row, first_line=header_line + 1))
    return np.array(rows), np.array(codes, dtype=np.int64)
