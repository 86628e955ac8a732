"""Staged-engine benchmark: serial vs thread backends + warm EmbeddingStore.

Measures, on a >= 8-arm catalog run:

- wall-clock of the serial and thread execution backends (the reports
  must be bit-identical — only wall-clock may differ), with the
  per-backend store hit rate recorded alongside,
- the EmbeddingStore hit rate and the wall-clock of a *second* strategy
  run over a warm store, which must perform **zero** ``transform``
  calls.

The thread speedup over serial is recorded, not asserted: it depends on
the host's free cores (numpy's BLAS kernels release the GIL, so the
thread backend needs real cores to overlap arm pulls) and flips from
run to run.  The recorded results always state the worker/core count.

Marked ``slow``: deselect with ``-m "not slow"`` to keep tier-1 fast.
"""

from __future__ import annotations

import time

import pytest

from conftest import write_result
from repro.core.engine import default_max_workers
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.datasets import load
from repro.reporting.tables import render_table
from repro.transforms.catalog import catalog_for
from repro.transforms.store import EmbeddingStore

pytestmark = pytest.mark.slow

#: Larger than the shared bench fixtures so wall-clocks dominate noise.
BENCH_SCALE = 0.08


@pytest.fixture(scope="module")
def bench_dataset():
    return load("cifar10", scale=BENCH_SCALE, seed=0)


@pytest.fixture(scope="module")
def bench_catalog(bench_dataset):
    return catalog_for(bench_dataset, seed=0, max_embeddings=6).fit(
        bench_dataset.train_x
    )


def _fingerprint(report):
    return (
        report.best_transform,
        report.ber_estimate,
        tuple(
            (r.transform_name, r.samples_used, r.one_nn_error)
            for r in report.per_transform
        ),
    )


def _count_transform_calls(catalog):
    counter = {"calls": 0}
    for transform in catalog:
        original = transform.transform

        def counting(x, _original=original):
            counter["calls"] += 1
            return _original(x)

        transform.transform = counting
    return counter


def _timed_run(catalog, dataset, backend, store, strategy="uniform"):
    config = SnoopyConfig(
        strategy=strategy,
        seed=0,
        execution_backend=backend,
        embedding_cache_bytes=None if store is not None else 0,
    )
    system = Snoopy(catalog, config, store=store)
    started = time.perf_counter()
    report = system.run(dataset, target_accuracy=0.9)
    return time.perf_counter() - started, report


def test_engine_parallel_and_warm_store(bench_dataset, bench_catalog):
    cifar10 = bench_dataset
    catalog = bench_catalog
    num_arms = len(catalog)
    assert num_arms >= 8, "benchmark needs a >= 8-arm catalog"
    workers = default_max_workers()

    # Cold runs, one fresh store per backend: bit-identical reports.
    times: dict[str, float] = {}
    reports = {}
    backend_stats = {}
    for backend in ("serial", "thread"):
        with EmbeddingStore() as store:
            elapsed, report = _timed_run(catalog, cifar10, backend, store)
            backend_stats[backend] = store.stats
        times[backend] = elapsed
        reports[backend] = report
    assert _fingerprint(reports["thread"]) == _fingerprint(reports["serial"])

    # Warm store: a full-coverage run, then a second strategy over the
    # same store must embed nothing at all.
    store = EmbeddingStore()
    cold_elapsed, _ = _timed_run(
        catalog, cifar10, "serial", store, strategy="full"
    )
    counter = _count_transform_calls(catalog)
    warm_elapsed, warm_report = _timed_run(catalog, cifar10, "serial", store)
    zero_calls = counter["calls"]
    assert zero_calls == 0, (
        f"warm store must serve every chunk; saw {zero_calls} transform calls"
    )
    assert (
        _fingerprint(warm_report) == _fingerprint(reports["serial"])
    ), "warm run must reproduce the cold report exactly"
    stats = store.stats
    store.close()

    def _rate(backend):
        s = backend_stats[backend]
        return f"{s.hit_rate:.3f}"

    rows = [
        [
            "serial (cold store)", f"{times['serial']:.3f}", "1.00x",
            _rate("serial"),
        ],
        [
            "thread (cold store)",
            f"{times['thread']:.3f}",
            f"{times['serial'] / times['thread']:.2f}x",
            _rate("thread"),
        ],
        [
            "serial (warm store)",
            f"{warm_elapsed:.3f}",
            f"{times['serial'] / warm_elapsed:.2f}x",
            f"{stats.hit_rate:.3f}",
        ],
    ]
    table = render_table(
        ["configuration", "wall seconds", "speedup vs serial", "hit rate"],
        rows,
        title=(
            f"Staged engine on {cifar10.name}: {num_arms} arms, "
            f"{cifar10.num_train} train / {cifar10.num_test} test, "
            f"{workers} worker(s) available"
        ),
    )
    lines = [
        table,
        "",
        f"uniform allocation, seed 0; full-coverage warm-up run took "
        f"{cold_elapsed:.3f}s (strategy 'full').",
        f"EmbeddingStore (warm serial): hit_rate={stats.hit_rate:.3f} "
        f"({stats.hits} hits / {stats.misses} misses, "
        f"{stats.current_bytes / 2**20:.1f} MiB cached); "
        f"warm re-run transform calls: {zero_calls}.",
        "Reports are bit-identical across serial/thread backends.",
    ]
    if workers == 1:
        lines.append(
            "NOTE: single CPU core available — thread parallelism "
            "cannot beat serial here; rerun on a multi-core host for the "
            "wall-clock speedup."
        )
    write_result("engine_parallel", "\n".join(lines))
