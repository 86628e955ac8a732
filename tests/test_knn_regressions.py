"""Regression tests for the kNN state-aliasing/masking bugs and the
vectorized IVF search (loop equivalence + brute-force parity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.knn.ivf import IVFFlatIndex
from repro.knn.kernels import make_kernel
from repro.knn.metrics import blocked_topk, euclidean_distances
from repro.knn.progressive import ProgressiveOneNN


class TestProgressiveAliasing:
    """``relabel_test`` must never write through to the caller's arrays."""

    def test_relabel_test_does_not_mutate_caller_labels(self, rng):
        test_x = rng.normal(size=(20, 3))
        test_y = rng.integers(0, 3, size=20).astype(np.int64)
        caller_y = test_y.copy()
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(rng.normal(size=(10, 3)), rng.integers(0, 3, 10))
        evaluator.relabel_test(np.arange(20), (test_y + 1) % 3)
        np.testing.assert_array_equal(test_y, caller_y)

    def test_test_arrays_are_private_copies(self, rng):
        test_x = rng.normal(size=(8, 2))
        test_y = rng.integers(0, 2, size=8).astype(np.int64)
        evaluator = ProgressiveOneNN(test_x, test_y)
        assert not np.shares_memory(evaluator._test_x, test_x)
        assert not np.shares_memory(evaluator._test_y, test_y)

    def test_mutating_caller_features_does_not_change_errors(self, rng):
        test_x = rng.normal(size=(15, 4))
        test_y = rng.integers(0, 2, size=15)
        batch_x = rng.normal(size=(30, 4))
        batch_y = rng.integers(0, 2, size=30)
        reference = ProgressiveOneNN(test_x.copy(), test_y.copy())
        expected = reference.partial_fit(batch_x, batch_y)
        evaluator = ProgressiveOneNN(test_x, test_y)
        test_x += 100.0  # caller scribbles over its own array
        assert evaluator.partial_fit(batch_x, batch_y) == expected


class TestExcludeSelfMasking:
    """``exclude_self=True`` with foreign queries must raise, not mis-mask."""

    def test_foreign_queries_raise(self, rng):
        x = rng.normal(size=(30, 4))
        index = BruteForceKNN().fit(x, rng.integers(0, 2, 30))
        with pytest.raises(DataValidationError, match="exclude_self"):
            index.kneighbors(rng.normal(size=(10, 4)), k=1, exclude_self=True)

    def test_corpus_queries_still_work(self, rng):
        x = rng.normal(size=(30, 4))
        index = BruteForceKNN().fit(x, rng.integers(0, 2, 30))
        dist, idx = index.kneighbors(x, k=1, exclude_self=True)
        assert np.all(idx[:, 0] != np.arange(30))
        assert np.all(dist > 0)

    @pytest.mark.parametrize("rows", [slice(5, 8), [*range(10), 0, 1]])
    def test_foreign_queries_raise_below_the_index(self, rng, rows):
        # Three corpus rows would each find themselves at distance 0;
        # twelve would mask columns past the corpus.
        corpus = rng.normal(size=(10, 3))
        queries = corpus[rows]
        with pytest.raises(DataValidationError, match="exclude_self"):
            blocked_topk(queries, corpus, k=2, exclude_self=True)
        with pytest.raises(DataValidationError, match="exclude_self"):
            make_kernel("euclidean", corpus).topk(
                queries, k=2, exclude_self=True
            )


class TestIVFEffectiveParams:
    """``fit`` must persist the clamped nlist/nprobe, not leave them stale."""

    def test_nlist_clamped_to_corpus_is_persisted(self, rng):
        index = IVFFlatIndex(nlist=64, nprobe=32, seed=0)
        index.fit(rng.normal(size=(10, 3)), rng.integers(0, 2, 10))
        assert index.nlist == 10
        assert index.nprobe == 10
        assert len(index._lists) == index.nlist

    def test_unclamped_fit_keeps_configured_values(self, rng):
        index = IVFFlatIndex(nlist=4, nprobe=2, seed=0)
        index.fit(rng.normal(size=(50, 3)), rng.integers(0, 2, 50))
        assert index.nlist == 4
        assert index.nprobe == 2

    def test_refit_on_larger_corpus_restores_requested_nlist(self, rng):
        index = IVFFlatIndex(nlist=8, nprobe=4, seed=0)
        index.fit(rng.normal(size=(3, 2)), rng.integers(0, 2, 3))
        assert index.nlist == 3
        index.fit(rng.normal(size=(100, 2)), rng.integers(0, 2, 100))
        assert index.nlist == 8
        assert index.nprobe == 4

    def test_widening_bound_uses_effective_nlist(self, rng):
        # After clamping, asking for every neighbor must widen probes up
        # to the *effective* list count and return the full corpus.
        index = IVFFlatIndex(nlist=32, nprobe=1, seed=0)
        x = rng.normal(size=(12, 3))
        index.fit(x, rng.integers(0, 2, 12))
        dist, idx = index.kneighbors(rng.normal(size=(3, 3)), k=12)
        assert sorted(idx[0].tolist()) == list(range(12))
        assert np.all(np.diff(dist, axis=1) >= -1e-12)


def _seed_loop_kneighbors(index, queries, k):
    """The pre-vectorization per-query reference implementation."""
    queries = np.asarray(queries, dtype=np.float64)
    centroid_dist = euclidean_distances(queries, index._quantizer.centroids)
    probe_order = np.argsort(centroid_dist, axis=1)
    out_dist = np.empty((len(queries), k))
    out_idx = np.empty((len(queries), k), dtype=np.int64)
    for row, query in enumerate(queries):
        probes = index.nprobe
        while True:
            candidates = np.concatenate(
                [index._lists[c] for c in probe_order[row, :probes]]
            )
            if len(candidates) >= k or probes >= len(index._lists):
                break
            probes += 1
        dist = euclidean_distances(query[None, :], index._x[candidates])[0]
        top = np.argsort(dist)[:k]
        out_dist[row] = dist[top]
        out_idx[row] = candidates[top]
    return out_dist, out_idx


class TestIVFVectorizedEquivalence:
    @pytest.mark.parametrize("nprobe,k", [(1, 1), (2, 3), (3, 7), (8, 2)])
    def test_batched_matches_reference_loop(self, rng, nprobe, k):
        x = rng.normal(size=(300, 6))
        y = rng.integers(0, 4, 300)
        queries = rng.normal(size=(70, 6))
        index = IVFFlatIndex(nlist=8, nprobe=nprobe, seed=0).fit(x, y)
        loop_dist, loop_idx = _seed_loop_kneighbors(index, queries, k)
        vec_dist, vec_idx = index.kneighbors(queries, k=k)
        np.testing.assert_allclose(vec_dist, loop_dist, atol=1e-9)
        np.testing.assert_array_equal(vec_idx, loop_idx)

    def test_tiny_lists_widening_matches_reference_loop(self, rng):
        # Clusters smaller than k force the widening path for most queries.
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40)
        queries = rng.normal(size=(11, 3))
        index = IVFFlatIndex(nlist=10, nprobe=1, seed=0).fit(x, y)
        loop_dist, _ = _seed_loop_kneighbors(index, queries, 15)
        vec_dist, _ = index.kneighbors(queries, k=15)
        np.testing.assert_allclose(vec_dist, loop_dist, atol=1e-9)

    def test_memory_chunking_does_not_change_results(self, rng, monkeypatch):
        import repro.knn.ivf as ivf_module

        x = rng.normal(size=(200, 5))
        y = rng.integers(0, 3, 200)
        queries = rng.normal(size=(50, 5))
        index = IVFFlatIndex(nlist=8, nprobe=2, seed=0).fit(x, y)
        big_dist, big_idx = index.kneighbors(queries, k=4)
        monkeypatch.setattr(ivf_module, "_GATHER_BUDGET", 1)
        small_dist, small_idx = index.kneighbors(queries, k=4)
        np.testing.assert_array_equal(big_idx, small_idx)
        np.testing.assert_allclose(big_dist, small_dist)


class TestIVFBruteForceParity:
    """At ``nprobe == nlist`` the IVF index is exactly brute force."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=12, max_value=120),
        dim=st.integers(min_value=1, max_value=8),
        nlist=st.integers(min_value=1, max_value=10),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_probe_matches_brute_force(self, seed, n, dim, nlist, k):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        y = rng.integers(0, 3, n)
        queries = rng.normal(size=(9, dim))
        exact = BruteForceKNN().fit(x, y)
        ivf = IVFFlatIndex(nlist=nlist, nprobe=nlist, seed=0).fit(x, y)
        exact_dist, exact_idx = exact.kneighbors(queries, k=k)
        ivf_dist, ivf_idx = ivf.kneighbors(queries, k=k)
        np.testing.assert_array_equal(ivf_idx, exact_idx)
        np.testing.assert_allclose(ivf_dist, exact_dist, atol=1e-9)
        np.testing.assert_array_equal(
            ivf.predict(queries, k=k), exact.predict(queries, k=k)
        )
