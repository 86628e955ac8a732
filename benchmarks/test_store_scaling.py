"""Two-tier EmbeddingStore benchmark: spill persistence + hot-cap scaling.

Exercises the in-memory/disk store architecture end to end on a real
feasibility study and records three configurations:

1. **cold populate** — serial study against an empty ``store_dir``;
   every chunk embedding is computed once and written through to the
   spill tier.
2. **warm restart** — the same study run in a *freshly forked process*
   (fresh store instance, nothing hot) against the populated
   ``store_dir``: the content-addressed spill tier must serve every
   chunk, i.e. **zero** transform calls after a process restart.
3. **hot-capped** — a corpus bigger than the hot budget: the store is
   capped far below the study's working set, so blocks spill under LRU
   pressure; a second pass over the capped store must still complete
   with zero transform calls (evicted blocks promote back from disk)
   and reproduce the uncapped report bit-for-bit.

Transform calls are counted through a file-logging wrapper rather than
an in-memory counter: a mutable counter attribute would be lost across
the fork *and* would perturb the store's content-derived transform
token, while an append to a log file counts calls made in any process.

The assertions are correctness invariants only (zero calls,
bit-identical reports); wall-clock and samples/s are recorded.

Marked ``slow``: deselect with ``-m "not slow"`` to keep tier-1 fast.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from conftest import write_result
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.datasets import load
from repro.reporting.tables import render_table
from repro.transforms.base import FeatureTransform, FittedCatalog
from repro.transforms.catalog import catalog_for
from repro.transforms.store import EmbeddingStore

pytestmark = pytest.mark.slow

#: Large enough that the study working set (~20 MiB of embeddings)
#: dwarfs the capped hot budget below.
BENCH_SCALE = 0.08

#: Hot-tier cap for the bigger-than-budget configuration.
HOT_BUDGET = 4 * 2**20


class CallLoggingTransform(FeatureTransform):
    """Wrapper that appends one log line per ``transform`` call.

    Picklable and content-stable: the wrapper's pickled state is
    ``(inner transform, log path)``, both fixed for the benchmark's
    lifetime, so the store derives the same content token for it in
    every process — the cold run and the forked restart hit the same
    spill files, and calls from either land in the same log.
    """

    def __init__(self, inner: FeatureTransform, log_path: str):
        super().__init__()
        self.inner = inner
        self.log_path = str(log_path)
        self.name = inner.name
        self.output_dim = inner.output_dim
        self.cost_per_sample = inner.cost_per_sample
        self._fitted = inner.fitted

    def fit(self, x):
        self.inner.fit(x)
        self._fitted = True
        return self

    def transform(self, x):
        with open(self.log_path, "a") as fh:
            fh.write(f"{os.getpid()}:{len(x)}\n")
        return self.inner.transform(x)


def _call_count(log_path) -> int:
    if not os.path.exists(log_path):
        return 0
    with open(log_path) as fh:
        return sum(1 for _ in fh)


def _fingerprint(report):
    return (
        report.best_transform,
        report.ber_estimate,
        tuple(
            (r.transform_name, r.samples_used, r.one_nn_error)
            for r in report.per_transform
        ),
    )


def _samples(report) -> int:
    return sum(r.samples_used for r in report.per_transform)


def _timed_run(catalog, dataset, store, strategy="uniform"):
    config = SnoopyConfig(
        strategy=strategy,
        seed=0,
        embedding_cache_bytes=None,
    )
    system = Snoopy(catalog, config, store=store)
    started = time.perf_counter()
    report = system.run(dataset, target_accuracy=0.9)
    return time.perf_counter() - started, report


@pytest.fixture(scope="module")
def bench_dataset():
    return load("cifar10", scale=BENCH_SCALE, seed=0)


@pytest.fixture(scope="module")
def logged_catalog(bench_dataset, tmp_path_factory):
    log_path = str(tmp_path_factory.mktemp("store-bench") / "calls.log")
    inner = catalog_for(bench_dataset, seed=0, max_embeddings=6).fit(
        bench_dataset.train_x
    )
    wrapped = FittedCatalog(
        [CallLoggingTransform(t, log_path) for t in inner]
    )
    return wrapped, log_path


def _restarted_run(catalog, dataset, store_dir, result_path):
    """Run the study in a forked child: a genuine process restart as far
    as the store is concerned — nothing hot, only the disk tier."""

    def child():
        store = EmbeddingStore(store_dir=store_dir)
        try:
            elapsed, report = _timed_run(catalog, dataset, store)
            stats = store.stats
        finally:
            store.close()
        result_path.write_text(json.dumps({
            "elapsed": elapsed,
            "samples": _samples(report),
            "fingerprint": repr(_fingerprint(report)),
            "spill_hits": stats.spill_hits,
            "misses": stats.misses,
        }))

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(300)
    assert process.exitcode == 0, "restarted study failed"
    return json.loads(result_path.read_text())


def test_store_scaling(bench_dataset, logged_catalog, tmp_path):
    catalog, log_path = logged_catalog
    spill_dir = str(tmp_path / "spill")

    # 1. Cold populate: compute everything once, write through to disk.
    calls_start = _call_count(log_path)
    with EmbeddingStore(store_dir=spill_dir) as store:
        cold_elapsed, cold_report = _timed_run(catalog, bench_dataset, store)
        cold_stats = store.stats
    cold_calls = _call_count(log_path) - calls_start
    assert cold_calls > 0, "cold run must actually call the transforms"
    assert cold_stats.spill_writes > 0, "cold run must populate the spill tier"

    # 2. Warm restart: a forked child with a fresh store on the same
    # dir must be served entirely from disk — zero transform calls.
    calls_before = _call_count(log_path)
    warm = _restarted_run(
        catalog, bench_dataset, spill_dir, tmp_path / "restart.json"
    )
    restart_calls = _call_count(log_path) - calls_before
    assert restart_calls == 0, (
        f"warm-from-disk restart made {restart_calls} transform calls"
    )
    assert warm["fingerprint"] == repr(_fingerprint(cold_report))
    assert warm["spill_hits"] > 0

    # 3. Bigger-than-budget corpus: hot tier capped far below the
    # working set; the study completes, evicts under LRU pressure, and a
    # second pass resolves every evicted block from disk.
    capped_dir = str(tmp_path / "capped")
    with EmbeddingStore(max_bytes=HOT_BUDGET, store_dir=capped_dir) as store:
        _, _ = _timed_run(catalog, bench_dataset, store, strategy="full")
        mid_stats = store.stats
        assert mid_stats.evictions > 0, "capped store must evict"
        assert mid_stats.spill_current_bytes > HOT_BUDGET, (
            "spilled working set must exceed the hot budget"
        )
        calls_before = _call_count(log_path)
        capped_elapsed, capped_report = _timed_run(
            catalog, bench_dataset, store
        )
        capped_stats = store.stats
    capped_calls = _call_count(log_path) - calls_before
    assert capped_calls == 0, (
        f"capped second pass made {capped_calls} transform calls"
    )
    assert capped_stats.spill_hits > mid_stats.spill_hits, (
        "second pass must promote evicted blocks back from disk"
    )
    assert _fingerprint(capped_report) == _fingerprint(cold_report), (
        "hot cap must never change results, only placement"
    )

    rows = [
        [
            "cold populate (serial)",
            f"{cold_elapsed:.3f}",
            f"{_samples(cold_report) / cold_elapsed:,.0f}",
            str(cold_calls),
        ],
        [
            "warm restart (serial)",
            f"{warm['elapsed']:.3f}",
            f"{warm['samples'] / warm['elapsed']:,.0f}",
            str(restart_calls),
        ],
        [
            f"hot cap {HOT_BUDGET // 2**20} MiB, 2nd pass",
            f"{capped_elapsed:.3f}",
            f"{_samples(capped_report) / capped_elapsed:,.0f}",
            str(capped_calls),
        ],
    ]
    table = render_table(
        ["configuration", "wall seconds", "samples/s", "transform calls"],
        rows,
        title=(
            f"EmbeddingStore tiers on {bench_dataset.name}: "
            f"{len(catalog)} arms, {bench_dataset.num_train} train / "
            f"{bench_dataset.num_test} test"
        ),
    )
    lines = [
        table,
        "",
        f"cold run: {cold_stats.spill_writes} spill write(s), "
        f"{cold_stats.spill_current_bytes / 2**20:.1f} MiB on disk; "
        f"warm restart: {warm['spill_hits']} spill hit(s), "
        f"{warm['misses']} misses.",
        f"hot-capped store ({HOT_BUDGET / 2**20:.0f} MiB): "
        f"{mid_stats.evictions} eviction(s), "
        f"{mid_stats.spill_current_bytes / 2**20:.1f} MiB spilled — "
        f"working set exceeds the hot budget, results bit-identical.",
        "All three configurations produce bit-identical study reports; "
        "warm configurations perform zero transform calls in any "
        "process.",
    ]
    write_result("store_scaling", "\n".join(lines))
