"""In-memory spans around ecgemotion's layer functions, and their analysis.

A span is (name, layer, start, end, parent, run): ``parent`` is the index
of the enclosing span in the tracer's list, ``run`` the identifier of the
repetition that caused it. Spans are kept in memory and written out once,
when the benchmark ends.

The wrappers are installed from here, around the module-level functions
(and a few methods) that the layers call through; nothing in the package is
edited. Work the wrappers do themselves to derive counters, such as the KKT
gap of a dual solve, runs in spans of the ``trace`` layer, so it is charged
to tracing overhead and not to the layer that made the call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from ecgemotion import dsp, evaluation, forest, knn, pso, svm, synthgen, types

# (layer, owner, attribute) of every traced callable. The layers are the
# package modules on a hot path; FeatureCache and the Dataset-to-array
# conversion belong to ``features``.
TARGETS = (
    ("synthgen", synthgen, "generate_clean"),
    ("synthgen", synthgen, "inject_noise"),
    ("dsp", dsp, "apply"),
    ("features", evaluation.FeatureCache, "__init__"),
    ("features", evaluation.FeatureCache, "dataset"),
    ("features", types.Dataset, "train_arrays"),
    ("features", types.Dataset, "test_arrays"),
    ("pso", pso, "optimize"),
    ("pso", pso.CvSvmFitness, "__call__"),
    ("svm", svm, "solve_dual"),
    ("svm", svm, "train_binary"),
    ("svm", svm, "train_multiclass"),
    ("svm", svm, "predict_multiclass_batch"),
    ("forest", forest, "train_forest"),
    ("forest", forest, "_grow_tree"),
    ("forest", forest, "vote_matrix"),
    ("knn", knn, "_distance_matrix"),
    ("knn", knn, "_vote"),
)


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float | None = None
    parent: int | None = None  # index of the enclosing span
    run: object = None
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``run`` tags each new span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = None
        self._open: list[int] = []

    def begin(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, self.clock(), parent=parent, run=self.run))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = self.begin(name, layer)
        try:
            yield index
        finally:
            self.end(index)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def ancestors(spans, index: int):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


# ---------------------------------------------------------------------------
# counters derived from a call's inputs and outputs


def kkt_gap(kmat, y, c: float, alpha, bias: float) -> float:
    """Largest KKT residual of a dual solution, as ``svm.kkt_max_violation``
    measures it, computed from the precomputed kernel instead of a model."""
    y = np.asarray(y, dtype=np.float64)
    margin = y * (kmat @ (alpha * y) + bias)
    residual = np.where(
        alpha <= svm._EPS,
        np.maximum(0.0, 1.0 - margin),
        np.where(alpha >= c - svm._EPS, np.maximum(0.0, margin - 1.0), np.abs(margin - 1.0)),
    )
    return float(residual.max(initial=0.0))


def _solve_info(tracer, index, args, result):
    kmat, y, c, tolerance = args[:4]
    alpha, bias = result
    in_pso = any(span.layer == "pso" for span in ancestors(tracer.spans, index))
    return {"context": "pso" if in_pso else "train",
            "kkt_gap": kkt_gap(kmat, y, c, alpha, bias), "tolerance": float(tolerance)}


def _dataset_info(tracer, index, args, result):
    info = {}
    for side, vectors in (("train", result.train), ("test", result.test)):
        # (label, subject, start): (subject, start) alone repeats across the
        # four emotion records of one subject
        unique = {(int(fv.label),) + fv.source for fv in vectors}
        info[side] = [len(vectors), len(unique)]
    return info


# Counters read off a call's arguments and result, keyed by span name.
COUNTERS = {
    "svm.solve_dual": _solve_info,
    "svm.train_binary": lambda tracer, index, args, result: {"support_vectors": result.num_support},
    "evaluation.FeatureCache.dataset": _dataset_info,
    "forest._grow_tree": lambda tracer, index, args, result: {"nodes": result.num_nodes},
    "knn._distance_matrix": lambda tracer, index, args, result: {"metric": args[0], "rows": len(args[1])},
}


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if count is not None:
            with tracer.span("trace." + name, "trace"):
                tracer.spans[index].info = count(tracer, index, args, result)
        return result

    return traced


def _target_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every target with a span-recording wrapper; restore on exit."""
    saved = []
    try:
        for layer, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, _target_name(owner, attr), layer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest strictly, so children never overlap and their
    durations add up.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def busy_time(spans, picked, layer: str) -> float:
    """Summed duration of the outermost ``layer`` spans among ``picked``:
    time the layer was on the stack, its calls into itself counted once."""
    return sum(
        (spans[i].duration for i in picked
         if spans[i].layer == layer and all(a.layer != layer for a in ancestors(spans, i))),
        0.0,
    )


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


WALL_LAYERS = ("evaluation", "features", "pso", "svm", "forest", "knn", "trace")


def layer_metrics(spans, run, setup_run) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, plus the busy time of
    the set-up layers from the traced set-up; returns (values, units)."""
    own = self_times(spans)
    picked = [i for i, s in enumerate(spans) if s.run == run]
    values: dict = {}
    units: dict = {}

    def put(name, value, unit):
        values[name] = value
        units[name] = unit

    def named(name):
        return [spans[i] for i in picked if spans[i].name == name]

    def total(name):
        return sum((s.duration for s in named(name)), 0.0)

    for layer in WALL_LAYERS:
        put(f"{layer}.self_s", sum((own[i] for i in picked if spans[i].layer == layer), 0.0), "s")
    setup = [i for i, s in enumerate(spans) if s.run == setup_run]
    put("synthgen.busy_s", busy_time(spans, setup, "synthgen"), "s")
    put("dsp.busy_s", busy_time(spans, setup, "dsp"), "s")

    put("features.cache_s", total("evaluation.FeatureCache.__init__"), "s")
    put("features.dataset_s", total("evaluation.FeatureCache.dataset"), "s")
    datasets = named("evaluation.FeatureCache.dataset")
    for side in ("train", "test"):
        drawn = sum(s.info[side][0] for s in datasets)
        unique = sum(s.info[side][1] for s in datasets)
        put(f"features.rows_drawn.{side}", drawn, "count")
        put(f"features.rows_unique.{side}", unique, "count")
        put(f"features.unique_ratio.{side}", unique / drawn if drawn else 0.0, "fraction")

    evals = [s.duration * 1e3 for s in named("pso.CvSvmFitness.__call__")]
    put("pso.busy_s", busy_time(spans, picked, "pso"), "s")
    put("pso.evals", len(evals), "count")
    put("pso.eval_ms_p50", _percentile(evals, 50), "ms")
    put("pso.eval_ms_p98", _percentile(evals, 98), "ms")

    solves = named("svm.solve_dual")
    for context in ("pso", "train"):
        mine = [s for s in solves if s.info["context"] == context]
        ms = [s.duration * 1e3 for s in mine]
        put(f"svm.solve_calls.{context}", len(mine), "count")
        put(f"svm.solve_ms_p50.{context}", _percentile(ms, 50), "ms")
        if context == "pso":
            put("svm.solve_ms_p99.pso", _percentile(ms, 99), "ms")
        put(
            f"svm.unconverged.{context}",
            sum(s.info["kkt_gap"] > s.info["tolerance"] for s in mine),
            "count",
        )
    put("svm.train_s", total("svm.train_multiclass"), "s")
    put("svm.predict_s", total("svm.predict_multiclass_batch"), "s")
    put("svm.support_vectors", sum(s.info["support_vectors"] for s in named("svm.train_binary")), "count")

    trees = named("forest._grow_tree")
    grow_s = sum((s.duration for s in trees), 0.0)
    nodes = sum(s.info["nodes"] for s in trees)
    put("forest.grow_s", grow_s, "s")
    put("forest.trees", len(trees), "count")
    put("forest.nodes", nodes, "count")
    put("forest.nodes_per_s", nodes / grow_s if grow_s else 0.0, "1/s")
    put("forest.vote_s", total("forest.vote_matrix"), "s")

    distances = named("knn._distance_matrix")
    for metric in knn.METRICS:
        mine = [s for s in distances if s.info["metric"] == metric]
        seconds = sum((s.duration for s in mine), 0.0)
        rows = sum(s.info["rows"] for s in mine)
        put(f"knn.distance_s.{metric}", seconds, "s")
        put(f"knn.distance_rows_per_s.{metric}", rows / seconds if seconds else 0.0, "1/s")
    put("knn.vote_s", total("knn._vote"), "s")
    put("knn.votes", len(named("knn._vote")), "count")
    put("trace.spans", len(picked), "count")
    return values, units
