"""Micro-benchmark: exact kNN search, float32 vs float64.

Tracks, at n=10k, the brute-force ``kneighbors`` throughput of the
dtype-aware distance kernels in both compute dtypes, and the
float32-over-float64 gain (single-precision BLAS + halved memory
traffic) in the ``f32/f64`` column.  ``recall@k`` is the share of the
float64 neighbors that the float32 search returns too.

Results land in ``benchmarks/fresh/knn_hot_paths.txt``.

Marked ``slow``: deselect with ``-m "not slow"`` to keep tier-1 fast.
"""

import time

import numpy as np
import pytest
from conftest import write_result

from repro.knn.brute_force import BruteForceKNN
from repro.reporting.tables import render_table

pytestmark = pytest.mark.slow

N_CORPUS = 10_000
DIM = 64
N_QUERIES = 1_000
KS = (1, 5)
DTYPES = ("float64", "float32")


def _time(func, repeats=3):
    best, result = np.inf, None
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return best, result


def _run():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(N_CORPUS, DIM))
    y = rng.integers(0, 10, N_CORPUS)
    queries = rng.normal(size=(N_QUERIES, DIM))
    indexes = {dtype: BruteForceKNN(dtype=dtype).fit(x, y) for dtype in DTYPES}
    rows, recalls = [], {}
    for k in KS:
        seconds, found = {}, {}
        for dtype in DTYPES:
            index = indexes[dtype]
            # Warm the lazily built corpus kernel outside the timing.
            index.kneighbors(queries[:2], k=k)
            seconds[dtype], (_, found[dtype]) = _time(
                lambda: index.kneighbors(queries, k=k)
            )
            recall = np.sum(
                found[dtype][:, :, None] == found["float64"][:, None, :]
            ) / (N_QUERIES * k)
            recalls[k, dtype] = recall
            rows.append([
                k,
                dtype,
                round(seconds[dtype] * 1e3, 1),
                round(N_QUERIES / seconds[dtype]),
                f"{seconds['float64'] / seconds[dtype]:.1f}x"
                if dtype == "float32"
                else "1.0x (ref)",
                round(recall, 3),
            ])
    return rows, recalls


def test_knn_hot_paths(benchmark):
    rows, recalls = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = render_table(
        ["k", "dtype", "brute ms", "brute q/s", "f32/f64", "recall@k"],
        rows,
        title=f"kNN hot paths: n={N_CORPUS}, d={DIM}, q={N_QUERIES}",
    )
    write_result("knn_hot_paths", text)
    # Speed is only recorded; the invariant is that float32 finds the
    # float64 neighbors, up to swaps between near-tied candidates.
    assert all(recall >= 0.99 for recall in recalls.values())
