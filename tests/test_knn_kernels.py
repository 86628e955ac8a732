"""Tests for the dtype-aware distance-kernel subsystem.

Four layers:

- unit tests for the kernel primitives (bind-once state, fused blocked
  argmin/top-k, dtype resolution);
- a parity suite proving the fused block (one GEMM, one chunked
  selection pass, exact winners) returns exactly what the unfused
  ``_cross`` expansion returns, in both dtypes, and pinning its tie and
  zero-row rules;
- a float64 regression suite proving the bound-kernel paths agree with
  the legacy recompute-everything paths bit-for-bit;
- a float32 parity suite: hypothesis cases asserting the float32
  compute path matches float64 within tolerance (errors, top-k indices
  modulo ties) on the brute-force index and the progressive evaluator,
  and a recall check on a search that runs several query blocks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataValidationError
from repro.knn import kernels
from repro.knn.brute_force import BruteForceKNN
from repro.knn.kernels import (
    DEFAULT_COMPUTE_DTYPE,
    CosineKernel,
    EuclideanKernel,
    _slice_state,
    iter_blocks,
    make_kernel,
    resolve_dtype,
)
from repro.knn.metrics import cosine_distances, euclidean_distances
from repro.knn.progressive import ProgressiveOneNN

#: Tolerances for float32-vs-float64 agreement on O(1)-scale gaussians.
F32_RTOL, F32_ATOL = 1e-4, 1e-5


class TestResolveDtype:
    def test_none_is_strict_float64(self):
        assert resolve_dtype(None) == np.dtype(np.float64)

    @pytest.mark.parametrize("spec", ["float32", np.float32, np.dtype("float32")])
    def test_float32_specs(self, spec):
        assert resolve_dtype(spec) == np.dtype(np.float32)

    @pytest.mark.parametrize("spec", ["float16", "int64", "double precision", 7])
    def test_rejects_everything_else(self, spec):
        with pytest.raises(DataValidationError, match="compute dtype"):
            resolve_dtype(spec)

    def test_default_is_float32(self):
        assert resolve_dtype(DEFAULT_COMPUTE_DTYPE) == np.dtype(np.float32)

    def test_index_fails_fast_on_bad_dtype(self):
        with pytest.raises(DataValidationError, match="compute dtype"):
            BruteForceKNN(dtype="float16")


class TestKernelConstruction:
    def test_unknown_metric_raises(self, rng):
        with pytest.raises(DataValidationError, match="unknown metric"):
            make_kernel("manhattan", rng.normal(size=(4, 2)))

    def test_rejects_1d_bound(self):
        with pytest.raises(DataValidationError):
            make_kernel("euclidean", np.zeros(3))

    def test_metric_classes(self, rng):
        x = rng.normal(size=(6, 3))
        assert isinstance(make_kernel("euclidean", x), EuclideanKernel)
        assert isinstance(make_kernel("cosine", x), CosineKernel)

    def test_bound_cast_and_cached(self, rng):
        x = rng.normal(size=(6, 3))
        kernel = make_kernel("euclidean", x, dtype="float32")
        assert kernel.bound.dtype == np.float32
        assert kernel.compute_dtype == np.dtype(np.float32)
        assert kernel.num_bound == 6
        assert kernel.dim == 3
        np.testing.assert_allclose(
            kernel._bound_state,
            np.sum(x * x, axis=1).astype(np.float32),
            rtol=1e-6,
        )

    def test_dimension_mismatch_raises(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(5, 4)))
        with pytest.raises(DataValidationError, match="dimension mismatch"):
            kernel.topk(rng.normal(size=(2, 3)), k=1)


class TestFusedPrimitives:
    def test_nearest_among_empty_other_raises(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(3, 2)))
        with pytest.raises(DataValidationError):
            kernel.nearest_among(np.zeros((0, 2)))

    def test_topk_validates_k(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(5, 2)))
        with pytest.raises(DataValidationError, match="k must be >= 1"):
            kernel.topk(rng.normal(size=(2, 2)), k=0)
        with pytest.raises(DataValidationError, match="exceeds corpus"):
            kernel.topk(rng.normal(size=(2, 2)), k=6)

    @pytest.mark.parametrize(
        "shape", [(4,), (0,), (0, 3)], ids=["1-d", "empty-1-d", "empty-3-wide"]
    )
    def test_topk_checks_query_shape_before_blocking(self, rng, shape):
        # An empty query set runs no block, so the check cannot wait
        # for the per-block cast.
        kernel = make_kernel("euclidean", rng.normal(size=(5, 4)))
        with pytest.raises(DataValidationError):
            kernel.topk(np.zeros(shape), k=1)

    def test_cosine_zero_vectors_maximally_dissimilar(self):
        bound = np.array([[0.0, 0.0], [1.0, 0.0]])
        kernel = make_kernel("cosine", bound, dtype=None)
        dist, idx = kernel.topk(np.array([[2.0, 0.0], [0.0, 0.0]]), k=2)
        # Query 0: parallel to bound row 1 (distance 0), zero row at 1.
        assert idx[0, 0] == 1
        assert dist[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert dist[0, 1] == pytest.approx(1.0)
        # A zero query is at distance 1 from everything.
        np.testing.assert_allclose(dist[1], 1.0)


class TestBlockBudget:
    """``topk`` caps each block's GEMM product at ``_BLOCK_BYTES``."""

    def test_peak_memory_stays_under_the_budget(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 4 << 20)
        x = np.random.default_rng(0).normal(size=(3000, 8))
        kernel = make_kernel("euclidean", x, dtype=None)
        tracemalloc.start()
        try:
            kernel.topk(x, 5, exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 2,048-row block would be 49 MB.  Besides the capped
        # product, the call holds the scaled queries, the outputs and
        # one chunk of key scratch: about 1 MB here.
        assert peak < kernels._BLOCK_BYTES + (2 << 20)

    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_queries_are_prepared_per_block(self, dtype):
        # A leave-one-out search at feebee-zoo's shape: a whole-set -2Q
        # operand, or a whole-set cast to float32, would add X.nbytes or
        # X.nbytes / 2 on top of the 16 MiB product.
        x = np.random.default_rng(0).normal(size=(6000, 75))
        kernel = make_kernel("euclidean", x, dtype=dtype)
        tracemalloc.start()
        try:
            kernel.topk(x, 5, exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kernels._BLOCK_BYTES + x.nbytes / 2

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_nonpositive_block_size_raises(self, rng, block_size):
        x = rng.normal(size=(20, 3))
        with pytest.raises(DataValidationError, match="block_size"):
            make_kernel("euclidean", x).topk(x, 2, block_size=block_size)


def _unfused_nearest_among(kernel, other, block_size=2048):
    """``DistanceKernel.nearest_among`` before fusion, verbatim."""
    other = kernel._cast_other(other)
    if len(other) == 0:
        raise DataValidationError("other must contain at least one row")
    state = kernel._state(other)
    best_cmp = np.full(kernel.num_bound, np.inf, dtype=kernel._dtype)
    best_idx = np.zeros(kernel.num_bound, dtype=np.int64)
    for block in iter_blocks(len(other), block_size):
        cmp = kernel._cross(
            kernel._bound,
            kernel._bound_state,
            other[block],
            _slice_state(state, block),
        )
        local = np.argmin(cmp, axis=1)
        local_cmp = np.take_along_axis(cmp, local[:, None], axis=1)[:, 0]
        improved = local_cmp < best_cmp
        best_cmp[improved] = local_cmp[improved]
        best_idx[improved] = local[improved] + block.start
    return best_idx, best_cmp


def _unfused_topk(kernel, queries, k, block_size=2048, exclude_self=False):
    """``DistanceKernel.topk`` before fusion, verbatim."""
    queries = kernel._cast_other(queries)
    effective_k = k + 1 if exclude_self else k
    if k < 1:
        raise DataValidationError(f"k must be >= 1, got {k}")
    if effective_k > kernel.num_bound:
        raise DataValidationError(
            f"k={k} (effective {effective_k}) exceeds corpus size "
            f"{kernel.num_bound}"
        )
    n = len(queries)
    state = kernel._state(queries)
    all_dist = np.empty((n, k))
    all_idx = np.empty((n, k), dtype=np.int64)
    for block in iter_blocks(n, block_size):
        cmp = kernel._cross(
            queries[block],
            _slice_state(state, block),
            kernel._bound,
            kernel._bound_state,
        )
        if exclude_self:
            cmp[
                np.arange(block.stop - block.start),
                np.arange(block.start, block.stop),
            ] = np.inf
        part = np.argpartition(cmp, kth=k - 1, axis=1)[:, :k]
        part_cmp = np.take_along_axis(cmp, part, axis=1)
        order = np.argsort(part_cmp, axis=1)
        all_idx[block] = np.take_along_axis(part, order, axis=1)
        all_dist[block] = kernel.to_distance(
            np.take_along_axis(part_cmp, order, axis=1)
        )
    return all_dist, all_idx


def _assert_nearest_matches_unfused(kernel, other, block_size=2048):
    idx, cmp = kernel.nearest_among(other, block_size=block_size)
    ref_idx, ref_cmp = _unfused_nearest_among(kernel, other, block_size)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(cmp, ref_cmp)
    assert cmp.dtype == ref_cmp.dtype
    return idx, cmp


def _assert_topk_matches_unfused(kernel, queries, k, **kwargs):
    dist, idx = kernel.topk(queries, k, **kwargs)
    ref_dist, ref_idx = _unfused_topk(kernel, queries, k, **kwargs)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(dist, ref_dist)
    return dist, idx


class TestFusedMatchesUnfused:
    """The fused block returns the unfused ``_cross`` expansion's values.

    Gaussian inputs keep candidates out of each other's rounding step,
    where the two selection keys may legitimately order differently.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        metric=st.sampled_from(["euclidean", "cosine"]),
        dtype=st.sampled_from(["float32", "float64"]),
        k=st.sampled_from([1, 5, 10, 11]),
        exclude_self=st.booleans(),
        block=st.integers(min_value=3, max_value=16),
        blocks=st.integers(min_value=2, max_value=4),
        rest=st.integers(min_value=0, max_value=14),
        dim=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_indices_and_comparables_equal(
        self, seed, metric, dtype, k, exclude_self, block, blocks, rest, dim
    ):
        # Enough blocks that k + 1 <= rows, and 1 <= rows % block <
        # block: the last block is a short one.
        blocks = max(blocks, -(-(k + 1) // block))
        rows = block * blocks + 1 + rest % (block - 1)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, dim))
        y = rng.normal(size=(rows, dim))
        kernel = make_kernel(metric, x, dtype=dtype)
        _assert_nearest_matches_unfused(kernel, y, block_size=block)
        _assert_topk_matches_unfused(
            kernel,
            x if exclude_self else y,
            k,
            block_size=block,
            exclude_self=exclude_self,
        )

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_byte_capped_blocks(
        self, rng, monkeypatch, metric, dtype, exclude_self
    ):
        # A 7-row float64 block (14 rows in float32) of a 50-row corpus
        # fills the budget, so 50 queries span several capped blocks.
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 7 * 50 * 8)
        x = rng.normal(size=(50, 6))
        kernel = make_kernel(metric, x, dtype=dtype)
        rows = kernels._BLOCK_BYTES // (50 * kernel.compute_dtype.itemsize)
        queries = x if exclude_self else rng.normal(size=(50, 6))
        for k in (1, 5, 11):
            dist, idx = kernel.topk(queries, k, exclude_self=exclude_self)
            ref_dist, ref_idx = _unfused_topk(
                kernel, queries, k, block_size=rows, exclude_self=exclude_self
            )
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(dist, ref_dist)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_exact_duplicates_earliest_index_wins(self, rng, metric, dtype):
        # Copies of row 3 at 5 (same block) and 9 (next block); every
        # bound row is a jittered row 3, so the copies are its nearest.
        corpus = rng.normal(size=(12, 6))
        corpus[[5, 9]] = corpus[3]
        near = corpus[3] + 1e-3 * rng.normal(size=(8, 6))
        kernel = make_kernel(metric, near, dtype=dtype)
        idx, _ = _assert_nearest_matches_unfused(kernel, corpus, block_size=8)
        np.testing.assert_array_equal(idx, 3)
        corpus_kernel = make_kernel(metric, corpus, dtype=dtype)
        for block_size in (4, 2048):
            _, top = corpus_kernel.topk(near, k=1, block_size=block_size)
            np.testing.assert_array_equal(top[:, 0], 3)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("k", [1, 5, 10, 16])
    def test_topk_ties_go_to_earliest_index(self, rng, dtype, k):
        # Small-integer rows: every distance is exact, so ties are real
        # and plentiful; the earliest of the columns tied at the k-th
        # place must win each row.
        corpus = rng.integers(-2, 3, size=(300, 3)).astype(float)
        queries = rng.integers(-2, 3, size=(200, 3)).astype(float)
        kernel = make_kernel("euclidean", corpus, dtype=dtype)
        _, idx = kernel.topk(queries, k=k, block_size=64)
        dense = kernel.comparable_from(queries)
        expected = np.argsort(dense, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(
            np.sort(idx, axis=1), np.sort(expected, axis=1)
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_repeated_test_row_is_at_distance_zero(self, rng, dtype):
        test_x = rng.normal(size=(40, 8))
        batch = rng.normal(size=(30, 8))
        batch[[4, 21]] = test_x[[17, 2]]
        kernel = make_kernel("euclidean", test_x, dtype=dtype)
        idx, cmp = _assert_nearest_matches_unfused(kernel, batch, block_size=16)
        assert (idx[17], idx[2]) == (4, 21)
        assert np.all(cmp >= 0.0)
        # Integer-valued rows: the expansion is exact, so the clamped
        # comparable is exactly zero, in the stream and search shapes.
        test_x = rng.integers(-50, 51, size=(40, 8)).astype(float)
        batch[[4, 21]] = test_x[[17, 2]]
        kernel = make_kernel("euclidean", test_x, dtype=dtype)
        idx, cmp = kernel.nearest_among(batch, block_size=16)
        assert (idx[17], idx[2]) == (4, 21)
        assert cmp[17] == 0.0 and cmp[2] == 0.0
        dist, top = make_kernel("euclidean", batch, dtype=dtype).topk(
            test_x[[17, 2]], k=1
        )
        np.testing.assert_array_equal(top[:, 0], [4, 21])
        np.testing.assert_array_equal(dist[:, 0], 0.0)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cosine_zero_and_subepsilon_rows(self, rng, dtype):
        # Row 0 is zero and row 1 under _EPS norm, on both sides: both
        # are at distance 1 from everything.  A normalized sub-_EPS row
        # is not zero, so the mask must be applied before selecting.
        x = rng.normal(size=(10, 5))
        y = rng.normal(size=(30, 5))
        y[:, 0] = np.abs(y[:, 0]) + 0.5
        # Farther than 1 from every nonzero y row, so x[2] must pick the
        # earliest masked y row, not y[1]'s normalized copy.
        x[2] = [-1.0, 0.0, 0.0, 0.0, 0.0]
        for rows in (x, y):
            rows[0] = 0.0
            rows[1] = -1e-14
        kernel = make_kernel("cosine", x, dtype=dtype)
        idx, cmp = _assert_nearest_matches_unfused(kernel, y, block_size=8)
        np.testing.assert_array_equal(idx[:3], 0)
        np.testing.assert_array_equal(cmp[:3], 1.0)
        corpus_kernel = make_kernel("cosine", y, dtype=dtype)
        dist, top = corpus_kernel.topk(x[:3], k=1, block_size=8)
        np.testing.assert_array_equal(top, 0)
        np.testing.assert_array_equal(dist, 1.0)
        _assert_topk_matches_unfused(corpus_kernel, x[3:], 1, block_size=4)
        dist, _ = corpus_kernel.topk(x[:2], k=5, block_size=8)
        np.testing.assert_array_equal(dist, 1.0)

    def test_float64_shape_where_sub_blocks_round_differently(self, rng):
        # On OpenBLAS, float64 rows of a 26-row sub-product differ in the
        # last bit from the same rows of this 5000-row product, so
        # equality needs the GEMM at the unfused block's own shape.
        kernel = make_kernel("euclidean", rng.normal(size=(5000, 66)), dtype=None)
        _assert_nearest_matches_unfused(kernel, rng.normal(size=(1250, 66)))


#: The dense float64 reference of each metric.
_DENSE = {"euclidean": euclidean_distances, "cosine": cosine_distances}


def _legacy_topk(queries, corpus, k, metric, block_size, exclude_self):
    """The historical blocked top-k, verbatim: full sqrt'd distance blocks."""
    queries = np.asarray(queries, dtype=np.float64)
    corpus = np.asarray(corpus, dtype=np.float64)
    n = len(queries)
    all_dist = np.empty((n, k))
    all_idx = np.empty((n, k), dtype=np.int64)
    for block in iter_blocks(n, block_size):
        dist = _DENSE[metric](queries[block], corpus)
        if exclude_self:
            dist[
                np.arange(block.stop - block.start),
                np.arange(block.start, block.stop),
            ] = np.inf
        part = np.argpartition(dist, kth=k - 1, axis=1)[:, :k]
        part_dist = np.take_along_axis(dist, part, axis=1)
        order = np.argsort(part_dist, axis=1)
        all_idx[block] = np.take_along_axis(part, order, axis=1)
        all_dist[block] = np.take_along_axis(part_dist, order, axis=1)
    return all_dist, all_idx


class _LegacyProgressive:
    """The historical partial_fit loop: full recompute, sqrt'd distances."""

    def __init__(self, test_x, test_y, metric="euclidean"):
        self._test_x = np.array(test_x, dtype=np.float64)
        self._test_y = np.array(test_y, dtype=np.int64)
        self.metric = metric
        self._nn_dist = np.full(len(test_x), np.inf)
        self._nn_label = np.full(len(test_x), -1, dtype=np.int64)
        self._nn_index = np.full(len(test_x), -1, dtype=np.int64)
        self._train_seen = 0

    def partial_fit(self, batch_x, batch_y):
        batch_x = np.asarray(batch_x, dtype=np.float64)
        batch_y = np.asarray(batch_y, dtype=np.int64)
        dist = _DENSE[self.metric](self._test_x, batch_x)
        local = np.argmin(dist, axis=1)
        local_dist = dist[np.arange(len(self._test_x)), local]
        improved = local_dist < self._nn_dist
        self._nn_dist[improved] = local_dist[improved]
        self._nn_label[improved] = batch_y[local[improved]]
        self._nn_index[improved] = local[improved] + self._train_seen
        self._train_seen += len(batch_x)
        return float(np.mean(self._nn_label != self._test_y))


class TestFloat64LegacyParity:
    """At float64 the bound-kernel paths ARE the legacy paths, bit-for-bit."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_blocked_topk_bit_for_bit(self, rng, metric, exclude_self):
        x = rng.normal(size=(90, 6))
        queries = x if exclude_self else rng.normal(size=(40, 6))
        legacy_dist, legacy_idx = _legacy_topk(
            queries, x, 4, metric, 17, exclude_self
        )
        dist, idx = make_kernel(metric, x, dtype=None).topk(
            queries, 4, block_size=17, exclude_self=exclude_self
        )
        np.testing.assert_array_equal(idx, legacy_idx)
        np.testing.assert_array_equal(dist, legacy_dist)

    @pytest.mark.parametrize(
        "metric, num_test, dim, num_train, pull",
        [
            *(pytest.param(metric, 50, 7, 198, 33, id=metric)
              for metric in ("euclidean", "cosine")),
            # Wide rows: a 256-row pull's product spans four selection
            # chunks, and its 1,200 rows end in a 176-row pull.
            *(pytest.param(metric, 1000, 256, 1200, pull,
                           id=f"{metric}-1000x256-pull{pull}")
              for metric in ("euclidean", "cosine") for pull in (16, 256)),
        ],
    )
    def test_progressive_bit_for_bit(
        self, rng, metric, num_test, dim, num_train, pull
    ):
        test_x = rng.normal(size=(num_test, dim))
        test_y = rng.integers(0, 4, num_test)
        legacy = _LegacyProgressive(test_x, test_y, metric=metric)
        bound = ProgressiveOneNN(test_x, test_y, metric=metric, dtype=None)
        for start in range(0, num_train, pull):
            size = min(pull, num_train - start)
            batch_x = rng.normal(size=(size, dim))
            batch_y = rng.integers(0, 4, size)
            legacy_err = legacy.partial_fit(batch_x, batch_y)
            assert bound.partial_fit(batch_x, batch_y) == legacy_err
        np.testing.assert_array_equal(bound.nearest_indices, legacy._nn_index)
        np.testing.assert_array_equal(bound.nearest_labels, legacy._nn_label)
        np.testing.assert_array_equal(bound.nearest_distances, legacy._nn_dist)

    def test_blocked_argmin_take_along_axis_path(self, rng):
        queries = rng.normal(size=(30, 5))
        corpus = rng.normal(size=(100, 5))
        kernel = make_kernel("euclidean", queries, dtype=None)
        idx, cmp = kernel.nearest_among(corpus, block_size=7)
        dense = euclidean_distances(queries, corpus)
        np.testing.assert_array_equal(idx, np.argmin(dense, axis=1))
        np.testing.assert_array_equal(kernel.to_distance(cmp), dense.min(axis=1))


def _sq_tolerance(*row_sets) -> float:
    """Absolute float32 tolerance on SQUARED euclidean distances.

    The expanded formula ``|a|^2 + |b|^2 - 2ab`` cancels catastrophically
    when the distance is small relative to the operand magnitudes, so
    the achievable absolute accuracy of a squared distance scales with
    the largest squared norm involved, not with the distance itself.
    """
    eps = float(np.finfo(np.float32).eps)
    top = max(
        float(np.max(np.sum(rows * rows, axis=1), initial=0.0))
        for rows in row_sets
    )
    return 64.0 * eps * max(top, 1.0)


def _tie_tolerant_topk_check(x, queries, k, dist64, idx64, dist32, idx32):
    """Float32 top-k agrees with float64 modulo ties within tolerance.

    The squared distances must agree entrywise up to the float32
    cancellation bound, and each float32-chosen index must be as good
    (under the float64 metric) as the float64 choice at that rank —
    i.e. any index disagreement is a tie at float32 resolution, not a
    missed neighbor.
    """
    atol = _sq_tolerance(x, queries)
    np.testing.assert_allclose(
        dist32**2, dist64**2, rtol=F32_RTOL, atol=atol
    )
    dense = euclidean_distances(queries, x)
    chosen32 = np.take_along_axis(dense, idx32, axis=1)
    chosen64 = np.take_along_axis(dense, idx64, axis=1)
    np.testing.assert_allclose(
        chosen32**2, chosen64**2, rtol=F32_RTOL, atol=atol
    )


class TestFloat32Parity:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=12, max_value=120),
        dim=st.integers(min_value=1, max_value=10),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_kneighbors_match_across_dtypes(self, seed, n, dim, k):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        y = rng.integers(0, 3, n)
        queries = rng.normal(size=(9, dim))
        strict = BruteForceKNN(dtype=None).fit(x, y)
        fast = BruteForceKNN(dtype="float32").fit(x, y)
        dist64, idx64 = strict.kneighbors(queries, k=k)
        dist32, idx32 = fast.kneighbors(queries, k=k)
        assert dist32.dtype == np.float64  # outputs stay dtype-stable
        _tie_tolerant_topk_check(x, queries, k, dist64, idx64, dist32, idx32)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        metric=st.sampled_from(["euclidean", "cosine"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_progressive_errors_match_across_dtypes(self, seed, metric):
        rng = np.random.default_rng(seed)
        test_x = rng.normal(size=(30, 5))
        test_y = rng.integers(0, 3, 30)
        strict = ProgressiveOneNN(test_x, test_y, metric=metric, dtype=None)
        fast = ProgressiveOneNN(test_x, test_y, metric=metric, dtype="float32")
        for _ in range(4):
            batch_x = rng.normal(size=(25, 5))
            batch_y = rng.integers(0, 3, 25)
            err64 = strict.partial_fit(batch_x, batch_y)
            err32 = fast.partial_fit(batch_x, batch_y)
            # A label flip needs a distance tie at float32 resolution;
            # bound the error disagreement by a few test points.
            assert abs(err32 - err64) <= 3.0 / len(test_y)
            atol = _sq_tolerance(test_x, batch_x) if metric == "euclidean" else 1e-5
            np.testing.assert_allclose(
                fast.nearest_distances**2,
                strict.nearest_distances**2,
                rtol=F32_RTOL,
                atol=atol,
            )

    def test_loo_error_matches_across_dtypes(self, rng):
        x = rng.normal(size=(80, 6))
        y = rng.integers(0, 3, 80)
        strict = BruteForceKNN(dtype=None).fit(x, y)
        fast = BruteForceKNN(dtype="float32").fit(x, y)
        assert strict.loo_error(k=3) == fast.loo_error(k=3)

    def test_recall_over_several_query_blocks(self):
        # Each float32 block of 1,000 queries against 10,000 rows passes
        # the byte budget, so the search runs several query blocks.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10_000, 64))
        y = rng.integers(0, 10, len(x))
        queries = rng.normal(size=(1_000, 64))
        assert len(queries) * len(x) * 4 > kernels._BLOCK_BYTES
        strict = BruteForceKNN(dtype=None).fit(x, y)
        fast = BruteForceKNN(dtype="float32").fit(x, y)
        for k in (1, 5):
            _, idx64 = strict.kneighbors(queries, k=k)
            _, idx32 = fast.kneighbors(queries, k=k)
            # float32 finds the float64 neighbors, up to swaps between
            # near-tied candidates.
            found = idx32[:, :, None] == idx64[:, None, :]
            assert found.sum() / idx64.size >= 0.99

    def test_cosine_float32_matches_reference(self, rng):
        a = rng.normal(size=(20, 8))
        b = rng.normal(size=(15, 8))
        kernel = make_kernel("cosine", b, dtype="float32")
        dist, idx = kernel.topk(a, k=3)
        dense = cosine_distances(a, b)
        order = np.argsort(dense, axis=1)[:, :3]
        np.testing.assert_allclose(
            dist, np.take_along_axis(dense, order, axis=1),
            rtol=F32_RTOL, atol=F32_ATOL,
        )


class TestKernelCaching:
    """The bound-side cache must be rebuilt whenever the corpus changes."""

    def test_brute_force_refit_invalidates_kernel(self, rng):
        index = BruteForceKNN()
        index.fit(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        first = index.kneighbors(rng.normal(size=(4, 3)), k=2)
        x2 = rng.normal(size=(30, 3))
        index.fit(x2, rng.integers(0, 2, 30))
        dist, idx = index.kneighbors(x2[:4], k=1)
        np.testing.assert_allclose(dist[:, 0], 0.0, atol=1e-9)
        np.testing.assert_array_equal(idx[:, 0], np.arange(4))
        del first

    def test_search_reuses_cached_kernel(self, rng):
        index = BruteForceKNN().fit(
            rng.normal(size=(20, 3)), rng.integers(0, 2, 20)
        )
        index.kneighbors(rng.normal(size=(2, 3)))
        kernel = index._kernel_cache
        assert kernel is not None
        index.kneighbors(rng.normal(size=(2, 3)))
        assert index._kernel_cache is kernel

