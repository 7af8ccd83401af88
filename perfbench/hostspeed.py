"""How fast the host runs right now, sampled while the program runs.

On a shared machine the same work can take up to twice as long from one
minute to the next, because other tenants contend for the cores, caches
and memory. A wall time alone then measures the neighbours as much as the
program. ``Probe`` samples the host's speed during a timed region: a timer
signal interrupts the region every ``period_s`` seconds and runs a small
fixed reference task, whose duration says how slow the host is at that
moment. The program's time between two probes is divided by the host's
slowdown around it, and these add up to the region's time in reference
seconds: the time it would take on a host that runs the reference task at
its ``REFERENCE_MS`` speed. The probes' own time is left out.

Contention does not slow every kind of work alike, so the reference task
is four pieces, each like one kind of work the package's layers do: a
Python loop of small NumPy updates (the SMO solver on PSO's 48-point
problems), a stable sort with a running sum (tree growing), an RBF kernel
block (the SVM) and a broadcast chi-square distance block (K-NN). The
slowdown is the geometric mean of the four pieces' slowdowns (each piece's
median time over ``WINDOW`` probes on either side, over its reference
time), so that each
kind of work counts the same whatever its duration. A region whose work is
of one kind can count that piece alone.
The task never calls the package, so a change to the package cannot move
it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median duration of each piece while svm-tuned runs, on a 2-core x86-64
# virtual machine with OpenBLAS on one thread. Run on its own, the distance
# piece takes twice as long, so the constants come from probes in a run.
REFERENCE_MS = {"smo": 1.5, "sort": 0.5, "kernel": 0.19, "distance": 1.5}
PERIOD_S = 0.1  # wall time between probes; the probes add about 5% to a run
# Probes on either side of a stretch of program time that give its slowdown:
# with 0.1 s periods, host changes over about a second are followed.
WINDOW = 5


@dataclass(frozen=True)
class Sample:
    start: float
    end: float
    times: dict  # piece name -> seconds


def slowdown(samples, reference_ms) -> float:
    """Geometric mean over the pieces of median time over reference time."""
    logs = [
        math.log(statistics.median(s.times[name] for s in samples) * 1e3 / reference)
        for name, reference in reference_ms.items()
    ]
    return math.exp(sum(logs) / len(logs))


def reference_seconds(start: float, end: float, region, reference_ms, window: int = WINDOW) -> float:
    """Program time in ``[start, end]`` in reference seconds. ``region`` holds
    the probe taken just before ``start`` and then every probe inside; the
    program ran from ``start`` to the first inside probe, between probes,
    and from the last probe to ``end``."""
    edges = [start] + [t for s in region[1:] for t in (s.start, s.end)] + [end]
    total = 0.0
    for i in range(len(region)):
        around = region[max(0, i - window) : i + window + 1]
        total += (edges[2 * i + 1] - edges[2 * i]) / slowdown(around, reference_ms)
    return total


class ReferenceTask:
    """Fixed pieces of work of a few milliseconds each; every piece returns
    a checksum."""

    reference_ms = REFERENCE_MS

    def __init__(self):
        rng = np.random.default_rng(0)
        self.kernel_rows = rng.standard_normal((48, 48))
        self.labels = np.where(rng.random(48) < 0.5, -1.0, 1.0)
        self.column = rng.standard_normal(4000)
        self.block = rng.standard_normal((120, 40))
        self.queries = rng.standard_normal((1, 1, 75))
        self.points = rng.standard_normal((1, 1500, 75))
        self.pieces = {"smo": self.smo, "sort": self.sort, "kernel": self.kernel, "distance": self.distance}

    def smo(self) -> float:
        y, rows = self.labels, self.kernel_rows
        alpha = np.zeros(len(y))
        e = -y.copy()
        total = 0.0
        for _ in range(60):
            up = (y > 0) & (alpha < 1.0)
            i = int(np.argmax(np.where(up, -e, -np.inf)))
            j = int(np.argmax(np.where(~up, e, -np.inf)))
            e += 1e-3 * rows[i] - 1e-3 * rows[j]
            alpha[i] = min(alpha[i] + 1e-3, 1.0)
            total += e[j] - e[i]
        return total

    def sort(self) -> float:
        order = np.argsort(self.column, kind="stable")
        return float(np.cumsum(self.column[order])[-1])

    def kernel(self) -> float:
        return float(np.exp(-0.01 * (self.block @ self.block.T)).sum())

    def distance(self) -> float:
        diff = self.queries - self.points
        denom = np.abs(self.queries) + np.abs(self.points) + 1e-10
        return float(np.sum(diff * diff / denom))


class Probe:
    """Samples the reference task every ``period_s`` seconds of wall time
    while a region runs; use ``measure`` around each region.

    The timer signal is handled in the main thread between bytecodes, so a
    probe never runs inside a single NumPy call; it only delays the
    program. Only one probe may be active at a time.
    """

    def __init__(self, period_s: float = PERIOD_S, task=None):
        self.period_s = period_s
        self.task = task or ReferenceTask()
        self.samples: list[Sample] = []
        self._sample()  # warm up before the first sample counts
        self.samples.clear()

    def _sample(self) -> None:
        times = {}
        first = time.perf_counter()
        for name, piece in self.task.pieces.items():
            start = time.perf_counter()
            piece()
            times[name] = time.perf_counter() - start
        self.samples.append(Sample(first, time.perf_counter(), times))

    def _on_timer(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def measure(self, fn, pieces=None):
        """Run ``fn``; return (wall seconds without the probes, the same in
        reference seconds, result). One probe runs before ``fn``, so that
        every region has at least one sample. ``pieces`` names the pieces
        whose slowdown counts, all of them by default."""
        first = len(self.samples)
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.period_s)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        region = self.samples[first:]
        took = end - start - sum(s.end - s.start for s in region[1:])
        reference = {k: v for k, v in self.task.reference_ms.items() if pieces is None or k in pieces}
        return took, reference_seconds(start, end, region, reference), result
