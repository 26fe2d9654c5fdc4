"""One benchmark run: repeated setup, closed-loop timed passes, optional traced passes.

A run of workload W at seed S sets W up at least `SETUP_REPS` times, and
more until the set-ups add up to `SETUP_MIN_S` (median is `setup_s`). It then
runs passes back to back, each into a fresh directory, until the next pass
would end after the time budget (at least `MIN_PASSES`). Each
pass is checked and its artifacts hashed; every pass of one run must give the
same digest. With tracing on, passes alternate between plain and traced (span
tracer installed); the traced ones give the per-layer numbers, and the
difference of the two medians is `trace.overhead_s`.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import BENCH_SCALE, WORKLOADS, PassResult

SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 15
MIN_PASSES = 2


def _guarded(what: str, fn, *args):
    """(fn(*args), None), or (None, failure line) with the traceback on stderr."""
    try:
        return fn(*args), None
    except Exception:  # a failing pass is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None, f"{what} raised " + traceback.format_exc(limit=1).splitlines()[-1]


def timed_passes(workload, ctx, workdir: Path, seconds: float, tracer=None):
    """Closed loop of passes within `seconds`; returns [(traced, wall seconds, PassResult)].

    With a tracer, plain and traced passes alternate, so drift in machine speed
    hits both alike. Every pass writes to the same path, emptied in between:
    mjlab's config hash, and so report.json, covers the output directory.
    """
    modes = (False,) if tracer is None else (False, True)
    done = []
    began = time.perf_counter()
    out_dir = workdir / "pass"
    while True:
        traced = modes[len(done) % len(modes)]
        if traced:
            tracer.install(spans.mjlab_probes())
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            outcome, failure = _guarded("pass", workload.run_pass, ctx, out_dir)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if failure is None:
            result, failure = _guarded("check", workload.check, ctx, out_dir, outcome)
        if failure is not None:
            result = PassResult(failures=[failure])
        shutil.rmtree(out_dir, ignore_errors=True)
        done.append((traced, wall, result))
        if len(done) >= MIN_PASSES * len(modes) and len(done) % len(modes) == 0:
            if time.perf_counter() - began + statistics.median(w for _, w, _ in done) > seconds:
                return done


def per_layer_metrics(tracer: spans.Tracer, plain_walls: list[float], traced_walls: list[float]):
    """Median over traced passes of every span total and counter, plus derived ratios."""
    rows, errors = spans.pass_totals(tracer)
    for row in rows:
        backward = row["tensor.backward.calls"]
        row["tensor.tape_nodes_per_backward"] = row["tensor.tape_nodes"] / backward if backward else 0.0
        ema = row["router.ema_update.calls"]
        row["router.ema_fired_ratio"] = row["router.ema_update.fired"] / ema if ema else 0.0
    metrics = {k: float(statistics.median(row[k] for row in rows)) for k in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return metrics, errors


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, scale: dict = BENCH_SCALE) -> dict:
    """Set up, measure and check one workload; returns metrics, counts and records."""
    workload = WORKLOADS[name]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    setup_times, contexts = [], []
    while len(setup_times) < SETUP_REPS or (sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
        shutil.rmtree(workdir / "setup", ignore_errors=True)
        t0 = time.perf_counter()
        contexts.append(workload.setup(seed, workdir / "setup", scale))
        setup_times.append(time.perf_counter() - t0)
    ctx = contexts[-1]
    errors = []
    if len({c.digest for c in contexts}) != 1:
        errors.append("set-up artifacts differ between set-up repetitions")

    metrics = {"setup_s": statistics.median(setup_times)}
    tracer = spans.Tracer() if trace else None
    passes = timed_passes(workload, ctx, workdir, seconds, tracer)
    plain_walls = [w for traced, w, _ in passes if not traced]
    metrics["wall_s"] = statistics.median(plain_walls)
    if tracer is not None:
        traced_walls = [w for traced, w, _ in passes if traced]
        layer_metrics, span_errors = per_layer_metrics(tracer, plain_walls, traced_walls)
        metrics.update(layer_metrics)
        errors += span_errors
        tracer.save(workdir / "spans.npz")

    first_digest = passes[0][2].digest
    failed = 0
    for _, _, result in passes:
        if result.digest != first_digest:
            result.failures.append(f"artifact digest {result.digest[:12]} != first pass {first_digest[:12]}")
        failed += bool(result.failures)
    metrics["val_accuracy"] = statistics.median(r.val_accuracy for _, _, r in passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["error_rate"] = failed / len(passes)
    shutil.rmtree(workdir / "setup", ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": len(passes),
        "failed": failed,
        "errors": errors,
        "failures": [f for _, _, r in passes for f in r.failures],
        "walls": [w for _, w, _ in passes],
        "traced": [t for t, _, _ in passes],
        "setup_times": setup_times,
        "digest": first_digest,
        "metrics": metrics,
        "env": environment(seed),
    }


def environment(seed: int) -> dict:
    """Where and how the numbers were taken."""
    return {
        "git_rev": _git_rev(Path(__file__).resolve().parent.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MJLAB_THREADS")},
        "workload_seed": seed,
        "cpu_model": _cpu_model(),
    }


def _git_rev(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
