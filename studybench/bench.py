"""Run one workload with one seed and reduce it to the benchmark's metrics.

A run sets its workload up once, cold: ``setup_s`` is the import of the
package plus that set-up.  It then runs whole cycles of the request list
in a closed loop with one client until ``seconds`` have passed.

Each request's latency is its fastest op in the run (best of run, as
``timeit`` reports it), and ``op_best_ms`` is the mean of those over the
request list.  On a shared host, slow phases of seconds to minutes move
every percentile of a run, but rarely its best op.  ``peak_rss_mb`` is
the process's peak resident set over the timed loop alone, because the
kernel's peak count is reset after set-up.

A traced run sets up with tracing on, then runs every request twice per
cycle, untraced and traced, alternating which goes first; so
``trace.overhead`` compares the two under the same host conditions.
Both kinds of op pass the same checks.

Every run records the host (usable cores, Python, numpy and BLAS
versions) and a fixed matmul probe at its start and end: a probe that
moved shows a run taken while the shared host drifted.
"""

from __future__ import annotations

import gc
import os
import platform
import sys
import time
import traceback

import numpy as np

from studybench.metrics import UNITS
from studybench.tracing import (
    Tracer,
    bare_gemm_seconds,
    kernel_shapes,
    layer_metrics,
)
from studybench.workloads import WORKLOADS, Mismatch

def host_fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def matmul_probe(size: int = 384, repeats: int = 9) -> float:
    """GFLOP/s of a fixed float64 square matmul (median of ``repeats``)."""
    a = np.random.default_rng(0).standard_normal((size, size))
    a @ a
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - start)
    return 2.0 * size**3 / float(np.median(times)) / 1e9


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (``VmHWM``) at the current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak resident set since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM")


def best_ms(latencies) -> list[float]:
    """Each request's fastest op, in ms."""
    return [1e3 * min(ops) for ops in latencies]


def attempt(workload, index: int, tracer: Tracer | None = None, op=None):
    """Run and check one op: ``(seconds, outcome, error or None)``."""
    if tracer is not None:
        tracer.op = op
        tracer.install()
        mark = len(tracer.spans)
    start = time.perf_counter()
    try:
        outcome, error = workload.op(index), None
    except Exception as exc:  # a failed op is counted, not fatal
        outcome, error = None, exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    if error is None:
        try:
            workload.check(index, outcome)
            if tracer is not None and workload.transform_free:
                calls = sum(
                    span.name == "transforms.transform"
                    for span in tracer.spans[mark:]
                )
                if calls:
                    raise Mismatch(f"request {index}: {calls} transform calls")
        except Mismatch as exc:
            error = exc
    return seconds, outcome, error


def _setup(name, seed, workdir, scale, tracer):
    """Build the workload and set it up; returns it and the seconds taken."""
    workload = WORKLOADS[name](seed, workdir, scale=scale)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload, time.perf_counter() - start


def _report_error(errors: list, index: int, error: BaseException) -> None:
    text = "".join(traceback.format_exception_only(type(error), error)).strip()
    errors.append({"request": index, "error": text})
    print(f"op failed: request {index}: {text}", file=sys.stderr)


def _untraced_loop(workload, seconds: float, errors: list):
    """Per-request op seconds over whole cycles lasting ``seconds``."""
    latencies = [[] for _ in workload.requests]
    start = time.perf_counter()
    while True:
        for index in range(len(workload.requests)):
            elapsed, _, error = attempt(workload, index)
            latencies[index].append(elapsed)
            if error is not None:
                _report_error(errors, index, error)
        if time.perf_counter() - start >= seconds:
            return latencies


def _traced_loop(workload, tracer: Tracer, seconds: float, errors: list):
    """Like :func:`_untraced_loop`, each request once untraced, once traced."""
    untraced = [[] for _ in workload.requests]
    traced = [[] for _ in workload.requests]
    winners, op, cycle = {}, 0, 0
    start = time.perf_counter()
    while True:
        for index in range(len(workload.requests)):
            for with_trace in ((False, True) if cycle % 2 == 0 else (True, False)):
                if with_trace:
                    elapsed, outcome, error = attempt(workload, index, tracer, op)
                    traced[index].append(elapsed)
                    if outcome is not None:
                        winners[op] = workload.winner(outcome)
                    op += 1
                else:
                    elapsed, _, error = attempt(workload, index)
                    untraced[index].append(elapsed)
                if error is not None:
                    _report_error(errors, index, error)
        cycle += 1
        if time.perf_counter() - start >= seconds:
            return untraced, traced, winners


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        import_seconds: float = 0.0,
        scale: float | None = None) -> tuple[dict, dict]:
    """Run one workload; returns ``(result line, full run record)``.

    ``scale`` overrides the workload's dataset scale (tests use it to
    stay fast); ``import_seconds`` is added to ``setup_s``.
    """
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "host": host_fingerprint(),
        "probe_start_gflop_per_s": matmul_probe(),
    }
    tracer = Tracer() if trace else None
    errors: list = []
    workload = None
    try:
        workload, setup_seconds = _setup(name, seed, workdir, scale, tracer)
        gc.collect()
        reset_peak_rss()
        if trace:
            untraced, traced, winners = _traced_loop(
                workload, tracer, seconds, errors
            )
            attempted = sum(map(len, untraced + traced))
            metrics = layer_metrics(
                tracer.spans, ops=sum(map(len, traced)), winners=winners,
                bare=bare_gemm_seconds(kernel_shapes(tracer.spans)),
            )
            metrics["trace.overhead"] = (
                float(np.mean(best_ms(traced)) / np.mean(best_ms(untraced)))
                - 1.0
            )
            spans_path = os.path.join(workdir, f"{name}-seed{seed}.spans.jsonl")
            tracer.write(spans_path)
            record["spans"] = spans_path
        else:
            latencies = _untraced_loop(workload, seconds, errors)
            peak_mb = peak_rss_mb()
            attempted = sum(map(len, latencies))
            metrics = {
                "setup_s": import_seconds + setup_seconds,
                "op_best_ms": float(np.mean(best_ms(latencies))),
                "peak_rss_mb": peak_mb,
            }
            record["import_seconds"] = import_seconds
            record["setup_seconds"] = setup_seconds
            record["latency_ms"] = [
                [1e3 * value for value in ops] for ops in latencies
            ]
    finally:
        if workload is not None:
            workload.close()
    record["probe_end_gflop_per_s"] = matmul_probe()
    record["errors"] = errors
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            key: {"value": value, "unit": UNITS[key]}
            for key, value in metrics.items()
        },
    }
    record["result"] = result
    return result, record
