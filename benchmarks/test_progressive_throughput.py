"""Micro-benchmark: ProgressiveOneNN partial_fit throughput.

Measures the win of the bound distance kernel over the historical
recompute-everything path (reproduced inline as the reference): the
legacy loop recomputed the test-side squared norms and took the square
root of the full test-by-batch distance matrix on EVERY ``partial_fit``
call, both pure overhead for a 1NN argmin, and formed the distance
block in several full passes where the kernel's fused block makes one.
The comparison runs at **float64**, so the recorded speedup is
attributable to bind-once norm caching, deferred sqrt and the fused
block alone — and the 1NN error curve is asserted identical.  A float32
row records the additional single-precision gain.  Speedups are recorded
columns, not asserted: they depend on the host.

The relative win grows as pulls get smaller (the recomputed test-norm
term is amortized over fewer batch rows), so the benchmark sweeps the
pull size; the small-pull regime is exactly where the bandit's
fine-grained allocation and the cleaning loop live.

Results land in ``benchmarks/fresh/progressive_throughput.txt``.
Marked ``slow``: deselect with ``-m "not slow"`` to keep tier-1 fast.
"""

import time

import numpy as np
import pytest
from conftest import write_result

from repro.knn.metrics import pairwise_distances
from repro.knn.progressive import ProgressiveOneNN
from repro.reporting.tables import render_table

pytestmark = pytest.mark.slow

N_TEST = 4_000
DIM = 256
N_TRAIN = 4_800
PULL_SIZES = (16, 64, 256)
REPEATS = 3


class _LegacyProgressive:
    """The historical partial_fit hot loop, verbatim (float64 only)."""

    def __init__(self, test_x, test_y):
        self._test_x = np.array(test_x, dtype=np.float64)
        self._test_y = np.array(test_y, dtype=np.int64)
        self._nn_dist = np.full(len(test_x), np.inf)
        self._nn_label = np.full(len(test_x), -1, dtype=np.int64)
        self._train_seen = 0

    def partial_fit(self, batch_x, batch_y):
        dist = pairwise_distances(self._test_x, batch_x)
        local = np.argmin(dist, axis=1)
        local_dist = dist[np.arange(len(self._test_x)), local]
        improved = local_dist < self._nn_dist
        self._nn_dist[improved] = local_dist[improved]
        self._nn_label[improved] = batch_y[local[improved]]
        self._train_seen += len(batch_x)
        return float(np.mean(self._nn_label != self._test_y))


def _stream(evaluator, train_x, train_y, pull_size):
    errors = []
    for start in range(0, len(train_x), pull_size):
        errors.append(
            evaluator.partial_fit(
                train_x[start : start + pull_size],
                train_y[start : start + pull_size],
            )
        )
    return errors


def _best_of(factories, train_x, train_y, pull_size):
    """Best-of-REPEATS wall time per factory, repeats interleaved.

    Interleaving (legacy, kernel, legacy, kernel, ...) instead of
    back-to-back blocks keeps allocator/BLAS warm-up drift from
    systematically favoring whichever path runs last.
    """
    best = [np.inf] * len(factories)
    errors = [None] * len(factories)
    for _ in range(REPEATS):
        for i, factory in enumerate(factories):
            evaluator = factory()
            started = time.perf_counter()
            errors[i] = _stream(evaluator, train_x, train_y, pull_size)
            best[i] = min(best[i], time.perf_counter() - started)
    return best, errors


def _run():
    rng = np.random.default_rng(0)
    test_x = rng.normal(size=(N_TEST, DIM))
    test_y = rng.integers(0, 10, N_TEST)
    train_x = rng.normal(size=(N_TRAIN, DIM))
    train_y = rng.integers(0, 10, N_TRAIN)
    rows = []
    for pull_size in PULL_SIZES:
        num_pulls = -(-N_TRAIN // pull_size)
        (legacy_s, bound_s, f32_s), (legacy_errors, bound_errors, f32_errors) = (
            _best_of(
                [
                    lambda: _LegacyProgressive(test_x, test_y),
                    lambda: ProgressiveOneNN(test_x, test_y, dtype=None),
                    lambda: ProgressiveOneNN(test_x, test_y, dtype="float32"),
                ],
                train_x, train_y, pull_size,
            )
        )
        # Float64 vs float64: the bound kernel must not change a single
        # error reading — the speedup is pure caching, not precision.
        assert bound_errors == legacy_errors, "bound kernel changed errors"
        for label, seconds, errors in (
            ("legacy f64", legacy_s, legacy_errors),
            ("kernel f64", bound_s, bound_errors),
            ("kernel f32", f32_s, f32_errors),
        ):
            rows.append([
                pull_size,
                label,
                round(seconds * 1e3, 1),
                round(num_pulls / seconds, 1),
                round(N_TRAIN / seconds),
                f"{legacy_s / seconds:.2f}x",
                round(errors[-1], 4),
            ])
    return rows


def test_progressive_throughput(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = render_table(
        [
            "pull",
            "path",
            "total ms",
            "pulls/s",
            "samples/s",
            "speedup",
            "final 1nn err",
        ],
        rows,
        title=(
            f"ProgressiveOneNN partial_fit: test={N_TEST}, d={DIM}, "
            f"train={N_TRAIN} (f64 speedup = bind-once caching + fused block; "
            f"errors identical)"
        ),
    )
    write_result("progressive_throughput", text)
