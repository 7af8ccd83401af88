"""Seed derivation, the learners' input contract, the squared-distance
kernel, text formatting, the one CSV writer and row reader, and the
model-file header writer and reader shared across the pipeline."""

from __future__ import annotations

import hashlib
import re

import numpy as np

from .types import DataFormatError, NUM_CLASSES, ParameterError


def derive_seed(master: int, *tags) -> int:
    """Derive a child seed from a master seed and a tag path.

    All randomness in the pipeline flows from one master seed through this
    function, so any stage can be re-run in isolation and reproduce its
    stream exactly. SHA-256 keeps the mapping stable across platforms.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for tag in tags:
        h.update(b"/")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def check_finite(x: np.ndarray, what: str) -> None:
    """Reject NaN and infinite entries, which every classifier would turn
    into a silent answer or an error far from their cause."""
    if not np.isfinite(x).all():
        raise ParameterError(f"{what} contain non-finite values")


def training_rows(x, codes) -> tuple[np.ndarray, np.ndarray]:
    """A training set as a contiguous float64 ``(n, d)`` array and int64
    emotion codes: at least one row and one column, one code per row,
    finite values and codes in ``[0, NUM_CLASSES)``, or a ParameterError."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.int64).ravel()
    if x.ndim != 2 or not x.size or len(x) != len(codes):
        raise ParameterError("training data must be (n, d), n >= 1 and d >= 1, with one label per row")
    check_finite(x, "training rows")
    if codes.min() < 0 or codes.max() >= NUM_CLASSES:
        raise ParameterError(f"emotion codes must lie in [0, {NUM_CLASSES})")
    return x, codes


def query_rows(x, dim: int) -> np.ndarray:
    """Rows to predict as a float64 ``(m, dim)`` array of finite values, or a
    ParameterError; ``dim`` is a trained model's, so at least 1."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != dim:
        raise ParameterError(f"input dimension {x.shape[-1]} != training dimension {dim}")
    check_finite(x, "query rows")
    return x


def distinct_rows(x: np.ndarray):
    """The distinct rows of a 2-D array of at least one column, in order of
    first occurrence: the index of each one's first row, the distinct index
    of every row (so ``x[first][copy]`` equals ``x``), and how often each row
    occurs. Rows that differ only in the sign of a zero count as one."""
    # adding 0.0 turns -0.0 into 0.0; then equal rows are equal bytes, and
    # each contiguous row is one void item that a 1-D unique can group
    x = np.ascontiguousarray(x, dtype=np.float64) + 0.0
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse], counts[order]


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def fmt_float(x: float) -> str:
    """Shortest decimal text that round-trips the exact float64 value."""
    return repr(float(x))


def fmt_percent(rate: float) -> str:
    """Render a rate in [0, 1] the way the report tables print it.

    0.9251 -> '92.51%', 0.983 -> '98.3%', 1.0 -> '100%'.
    """
    return f"{round(rate * 100, 2):g}%"


def csv_text(header, rows) -> str:
    """CSV text of a header and rows of cells, one line each: cells joined
    by commas, floats written by ``fmt_float`` and every other cell by
    ``str``. Labels must arrive as ``int``, as ``str`` of an ``IntEnum``
    differs between Python versions."""
    lines = (",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row) for row in rows)
    return "\n".join([",".join(header), *lines]) + "\n"


def read_rows(fh, path, width, parse, first_line=2) -> list:
    """``parse`` of the cells of each non-blank line left in ``fh``, the
    first of which is line ``first_line`` of the file (2: the line after a
    CSV header). A line of other than ``width`` cells, a ``parse`` that
    raises ValueError, and no rows at all are DataFormatErrors naming
    ``path`` and the line."""
    rows = []
    for lineno, line in enumerate(fh, start=first_line):
        if not line.strip():
            continue
        cells = line.strip().split(",")
        if len(cells) != width:
            raise DataFormatError(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
        try:
            rows.append(parse(cells))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return rows


def write_model(path, kind, body: str, **fields) -> None:
    """Write the header ``<kind> v1 key=value ...`` of ``fields``, then ``body``."""
    with open(path, "w") as fh:
        fh.write(" ".join([kind, "v1", *(f"{key}={value}" for key, value in fields.items())]) + "\n" + body)


def read_model(path, kind, parse):
    """``parse(fh, path, fields)`` for the model file at ``path``: ``fh`` is
    past the header ``<kind> v1 key=value ...`` and ``fields`` is its dict.
    A KeyError, IndexError, OverflowError or other ValueError from parsing
    becomes a DataFormatError naming ``path``, as does a non-blank line
    after those ``parse`` reads."""
    with open(path) as fh:
        words = fh.readline().split()
        if words[:2] != [kind, "v1"]:
            raise DataFormatError(f"{path}: not a {kind} v1 model file")
        try:
            model = parse(fh, path, dict(word.split("=", 1) for word in words[2:]))
        except DataFormatError:
            raise
        except (KeyError, IndexError, OverflowError, ValueError) as exc:
            raise DataFormatError(f"{path}: malformed {kind} model: {exc}") from exc
        if any(line.strip() for line in fh):
            raise DataFormatError(f"{path}: text after the last {kind} model block")
        return model


def block_values(fh, path, lineno, template: str) -> tuple:
    """The values of the next line of ``fh``, line ``lineno`` of a model file,
    which must read ``template`` with one value in place of each ``...``;
    any other line is a DataFormatError naming ``path:lineno``."""
    line = next(fh, "")
    match = re.fullmatch(re.escape(template).replace(r"\.\.\.", r"(\S+)"), " ".join(line.split()))
    if match is None:
        raise DataFormatError(f"{path}:{lineno}: expected {template!r}, got {line.strip()!r}")
    return match.groups()
