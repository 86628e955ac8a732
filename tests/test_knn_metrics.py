"""Unit tests for the dense distance references, metric dispatch and blocks.

The dense float64 references are also what the blocked kernels of
``repro.knn.kernels`` must agree with, so ``TestDispatch`` and
``TestBlocks`` check ``make_kernel`` against them.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.exceptions import DataValidationError
from repro.knn.kernels import iter_blocks, make_kernel
from repro.knn.metrics import cosine_distances, euclidean_distances


@pytest.fixture()
def points(rng):
    return rng.normal(size=(40, 7)), rng.normal(size=(25, 7))


class TestEuclidean:
    def test_matches_scipy(self, points):
        a, b = points
        np.testing.assert_allclose(
            euclidean_distances(a, b), cdist(a, b, "euclidean"), atol=1e-10
        )

    def test_self_distance_zero(self, points):
        a, _ = points
        dist = euclidean_distances(a, a)
        np.testing.assert_allclose(np.diag(dist), 0.0, atol=1e-7)

    def test_symmetry(self, points):
        a, b = points
        np.testing.assert_allclose(
            euclidean_distances(a, b), euclidean_distances(b, a).T, atol=1e-10
        )

    def test_non_negative_even_with_duplicates(self):
        a = np.ones((5, 3))
        dist = euclidean_distances(a, a)
        assert np.all(dist >= 0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataValidationError):
            euclidean_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_1d_input(self):
        with pytest.raises(DataValidationError):
            euclidean_distances(np.zeros(3), np.zeros((2, 3)))


class TestCosine:
    def test_matches_scipy(self, points):
        a, b = points
        np.testing.assert_allclose(
            cosine_distances(a, b), cdist(a, b, "cosine"), atol=1e-10
        )

    def test_range(self, points):
        a, b = points
        dist = cosine_distances(a, b)
        assert np.all(dist >= -1e-12)
        assert np.all(dist <= 2.0 + 1e-12)

    def test_zero_vector_is_maximally_dissimilar(self):
        a = np.zeros((1, 3))
        b = np.array([[1.0, 0.0, 0.0]])
        assert cosine_distances(a, b)[0, 0] == pytest.approx(1.0)

    def test_parallel_vectors_distance_zero(self):
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[2.0, 4.0, 6.0]])
        assert cosine_distances(a, b)[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestDispatch:
    """``make_kernel`` maps a metric name onto that metric's distances."""

    def test_euclidean_dispatch(self, points):
        a, b = points
        dist, idx = make_kernel("euclidean", b, dtype=None).topk(a, len(b))
        np.testing.assert_array_equal(
            dist, np.take_along_axis(euclidean_distances(a, b), idx, axis=1)
        )

    def test_cosine_dispatch(self, points):
        a, b = points
        dist, idx = make_kernel("cosine", b, dtype=None).topk(a, len(b))
        np.testing.assert_array_equal(
            dist, np.take_along_axis(cosine_distances(a, b), idx, axis=1)
        )

    def test_unknown_metric_raises(self, points):
        _, b = points
        with pytest.raises(DataValidationError, match="unknown metric"):
            make_kernel("manhattan", b)


class TestBlocks:
    def test_iter_blocks_covers_range(self):
        slices = list(iter_blocks(10, 3))
        covered = []
        for block in slices:
            covered.extend(range(block.start, block.stop))
        assert covered == list(range(10))

    def test_iter_blocks_rejects_nonpositive(self):
        with pytest.raises(DataValidationError):
            list(iter_blocks(10, 0))

    def test_blocked_argmin_matches_dense(self, rng):
        queries = rng.normal(size=(30, 5))
        corpus = rng.normal(size=(100, 5))
        kernel = make_kernel("euclidean", queries, dtype=None)
        idx, cmp = kernel.nearest_among(corpus, block_size=7)
        dense = euclidean_distances(queries, corpus)
        np.testing.assert_array_equal(idx, np.argmin(dense, axis=1))
        np.testing.assert_allclose(
            kernel.to_distance(cmp), dense.min(axis=1), atol=1e-10
        )

    def test_blocked_argmin_empty_corpus_raises(self, rng):
        kernel = make_kernel("euclidean", rng.normal(size=(3, 2)))
        with pytest.raises(DataValidationError):
            kernel.nearest_among(np.zeros((0, 2)))
