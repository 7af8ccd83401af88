#!/usr/bin/env python3
"""Benchmark of the ecgemotion pipeline at the reference problem size.

    python3 perfbench/run.py --workload svm-tuned --seed 12345 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout. Each run builds two corpora from ``--seed`` (the master seed
of ``configs/reference.cfg`` for the first), then repeats the workload's
unit of work on them in turn for about ``--seconds`` seconds and checks
that every repetition on a corpus renders byte-identical report or curve
text.

``--trace 0`` prints the end-to-end metrics, its timings in reference
seconds (see ``hostspeed.py``). ``--trace 1`` runs untraced and
traced repetitions in adjacent pairs, with span wrappers installed around
the layers for the traced one, and prints the per-layer metrics; the spans
go to ``.bench_out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# glibc raises its mmap threshold as it frees large blocks, so without a
# fixed value peak memory depends on the order of earlier frees (svm-fixed
# peaked at 134 or 158 MB at random); 32 MB is that threshold's ceiling.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024
SETUPS = 5  # corpus builds per run; setup_s is their median
# Corpora per run, made from the seed; the repetitions alternate between
# them. svm-tuned's cost follows the data (about 0.08 standard deviation of
# the log time from one corpus to the next), so one run measures two.
CORPORA = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "overall_rate": "fraction", "peak_rss_mb": "MB"}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_malloc() -> str:
    """Fix glibc's mmap threshold; a no-op on other C libraries."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default"
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return "default"
    return f"mmap_threshold={MMAP_THRESHOLD}"


def import_package():
    """Import ecgemotion from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ecgemotion

    if not Path(ecgemotion.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ecgemotion was imported from {ecgemotion.__file__}, not {src}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_stamp(workload: str, seed: int, malloc: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "malloc": malloc,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def corpus_seeds(seed: int) -> list[int]:
    """The seed itself, then seeds derived from it for the other corpora."""
    import numpy as np

    return [seed] + [int(np.random.SeedSequence([seed, k]).generate_state(1)[0]) for k in range(1, CORPORA)]


def ready_corpus(cfg):
    from ecgemotion import evaluation

    records, _ = evaluation.filter_corpus(evaluation.synth_corpus(cfg), cfg)
    return records


def same_corpus(a, b) -> bool:
    import numpy as np

    return len(a) == len(b) and all(
        (r.label, r.subject_id) == (s.label, s.subject_id) and np.array_equal(r.samples, s.samples)
        for r, s in zip(a, b)
    )


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def repeat(step, budget_s: float, min_steps: int) -> list:
    """Call ``step`` at least ``min_steps`` times, and again while another
    call as long as the last one still fits in ``budget_s``; the results."""
    results = []
    start = time.perf_counter()
    while True:
        took, result = timed(step)
        results.append(result)
        if len(results) >= min_steps and time.perf_counter() - start + took > budget_s:
            return results


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    malloc = pin_malloc()
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1

    from ecgemotion.config import PipelineConfig

    import hostspeed
    import spans
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    # The seed makes the input, the corpora. The protocol keeps the reference
    # configuration's own seed, so the swarm starts from the same positions
    # on every corpus, and the folds and samples are drawn the same way.
    cfg = PipelineConfig.from_file(ROOT / "configs" / "reference.cfg").replace(**workload.overrides)
    corpus_cfgs = [cfg.replace(seed=seed) for seed in corpus_seeds(args.seed)]
    host = host_stamp(workload.name, args.seed, malloc)
    print("host " + json.dumps(host))

    probe = hostspeed.Probe()
    setup_times = []
    setup_ref = []

    def build(k):
        took, ref, corpus = probe.measure(lambda: ready_corpus(corpus_cfgs[k]))
        setup_times.append(took)
        setup_ref.append(ref)
        return corpus

    corpora = [build(k) for k in range(CORPORA)]
    corpus_ok = all(same_corpus(corpora[i % CORPORA], build(i % CORPORA)) for i in range(CORPORA, SETUPS))

    def unit(k):
        return workload.unit(cfg, corpora[k])

    # a repetition is (corpus, seconds, (text, rate, ops)); they take the
    # corpora in turn
    turn = itertools.count()
    if not args.trace:

        def probed_step():
            k = next(turn) % CORPORA
            took, ref, result = probe.measure(lambda: unit(k), workload.probe_pieces)
            return k, took, ref, result

        probed = repeat(probed_step, args.seconds, min_steps=CORPORA)
        plain = [(k, took, result) for k, took, _, result in probed]
        traced = []
    else:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            tracer.run = "setup"
            with tracer.span("setup", "evaluation"):
                corpus_ok &= same_corpus(corpora[0], ready_corpus(corpus_cfgs[0]))
        run_ids = itertools.count()

        def traced_unit(k):
            tracer.run = next(run_ids)
            with spans.installed(tracer), tracer.span(f"evaluation.{workload.entry}", "evaluation"):
                return unit(k)

        # untraced and traced repetitions of one corpus in adjacent pairs,
        # alternating which goes first, so that their difference sees the
        # same host
        def step():
            i = next(turn)
            k = i % CORPORA
            if (i // CORPORA) % 2:
                traced_rep = (k, *timed(lambda: traced_unit(k)))
                plain_rep = (k, *timed(lambda: unit(k)))
            else:
                plain_rep = (k, *timed(lambda: unit(k)))
                traced_rep = (k, *timed(lambda: traced_unit(k)))
            return plain_rep, traced_rep

        pairs = repeat(step, args.seconds, min_steps=1)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]

    # every repetition of a corpus must render the text of its first one
    texts = {}
    rates = {}
    attempted = failed = 0
    for k, _, (text, rate, rep_ops) in plain + traced:
        attempted += rep_ops
        rates.setdefault(k, rate)
        if text != texts.setdefault(k, text) or rate < workload.min_rate:
            failed += rep_ops
    ops = plain[0][2][2]
    report = "".join(texts[k] for k in sorted(texts))
    wall_raw_s = statistics.median(took for _, took, _ in plain)
    print(f"ops {ops} per repetition; repetitions {len(plain)} untraced, {len(traced)} traced")
    print(f"ops_failed {failed} of {attempted}")
    print(f"report_sha256 {hashlib.sha256(report.encode()).hexdigest()} over corpora {sorted(texts)}")
    print(f"setup seconds {setup_times!r}")
    print(f"repetition seconds {[took for _, took, _ in plain]!r}")

    correct = corpus_ok and failed == 0
    if not args.trace:
        # both timings in reference seconds (hostspeed.py)
        wall_ref = [ref for _, _, ref, _ in probed]
        slowdown = hostspeed.slowdown(probe.samples, probe.task.reference_ms)
        print(f"host slowdown {slowdown!r} over {len(probe.samples)} probes")
        pieces = {name: 1e3 * statistics.median(s.times[name] for s in probe.samples) for name in probe.task.pieces}
        print(f"probe ms per piece {pieces!r}")
        print(f"wall_s samples {wall_ref!r}")
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(wall_ref),
            "overall_rate": statistics.mean(rates.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        emit(correct, attempted, failed, metrics, END_TO_END_UNITS)
        return 0

    print(f"trace.wall_s samples {[took for _, took, _ in traced]!r}")
    # per-layer numbers come from the traced repetition of median wall time
    order = sorted(range(len(traced)), key=lambda i: traced[i][1])
    chosen = order[(len(order) - 1) // 2]
    metrics, units = spans.layer_metrics(tracer.spans, run=chosen, setup_run="setup")
    metrics["trace.wall_s"] = traced[chosen][1]
    metrics["trace.overhead_s"] = statistics.median(t[1] - p[1] for p, t in zip(plain, traced))
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    # the layer self times add up to trace.wall_s by construction; how far
    # that lies from the untraced wall_s is the tracing overhead
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print(f"trace.accounted_s {accounted!r} (sum of layer self times); untraced {wall_raw_s!r} s")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl", host)
    emit(correct, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
