"""Unit tests for repro.knn.brute_force."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.base import majority_vote
from repro.knn.brute_force import BruteForceKNN
from repro.knn.kernels import make_kernel
from repro.knn.metrics import euclidean_distances


@pytest.fixture()
def fitted(rng):
    x = rng.normal(size=(120, 6))
    y = rng.integers(0, 3, size=120)
    return BruteForceKNN().fit(x, y), x, y


class TestFit:
    def test_fit_returns_self(self, rng):
        index = BruteForceKNN()
        assert index.fit(rng.normal(size=(5, 2)), np.zeros(5)) is index

    def test_num_fitted(self, fitted):
        index, x, _ = fitted
        assert index.num_fitted == len(x)

    def test_empty_corpus_raises(self):
        with pytest.raises(DataValidationError):
            BruteForceKNN().fit(np.zeros((0, 3)), np.zeros(0))

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(DataValidationError):
            BruteForceKNN().fit(rng.normal(size=(5, 2)), np.zeros(4))

    def test_query_before_fit_raises(self, rng):
        with pytest.raises(DataValidationError, match="not fitted"):
            BruteForceKNN().kneighbors(rng.normal(size=(2, 2)))

    def test_negative_labels_raise(self, rng):
        # majority_vote indexes vote columns by label, so -1 would be
        # counted as the last class (here 0).
        with pytest.raises(DataValidationError, match="non-negative"):
            BruteForceKNN().fit(rng.normal(size=(4, 2)), [-1, -1, 0, 0])


class TestKNeighbors:
    def test_distances_sorted(self, fitted, rng):
        index, _, _ = fitted
        dist, _ = index.kneighbors(rng.normal(size=(10, 6)), k=5)
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_matches_dense_argsort(self, fitted, rng):
        index, x, _ = fitted
        queries = rng.normal(size=(15, 6))
        dist, idx = index.kneighbors(queries, k=3)
        dense = euclidean_distances(queries, x)
        expected = np.sort(dense, axis=1)[:, :3]
        np.testing.assert_allclose(dist, expected, atol=1e-10)

    def test_k_too_large_raises(self, fitted, rng):
        index, x, _ = fitted
        with pytest.raises(DataValidationError):
            index.kneighbors(rng.normal(size=(2, 6)), k=len(x) + 1)

    def test_exclude_self_removes_zero_distance(self, fitted):
        index, x, _ = fitted
        dist, idx = index.kneighbors(x, k=1, exclude_self=True)
        assert np.all(idx[:, 0] != np.arange(len(x)))
        assert np.all(dist > 0)

    def test_small_block_size_same_result(self, rng):
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        q = rng.normal(size=(9, 4))
        d1, i1 = BruteForceKNN().fit(x, y).kneighbors(q, k=4)
        d2, i2 = make_kernel("euclidean", x, dtype=None).topk(
            q, k=4, block_size=3
        )
        np.testing.assert_allclose(d1, d2)
        np.testing.assert_array_equal(i1, i2)


class TestPredictAndError:
    def test_1nn_perfect_on_training_points(self, fitted):
        index, x, y = fitted
        # Querying exact training points with k=1 returns their own label.
        np.testing.assert_array_equal(index.predict(x, k=1), y)

    def test_error_zero_on_training_points(self, fitted):
        index, x, y = fitted
        assert index.error(x, y, k=1) == 0.0

    def test_error_range(self, fitted, rng):
        index, _, _ = fitted
        q = rng.normal(size=(30, 6))
        labels = rng.integers(0, 3, size=30)
        assert 0.0 <= index.error(q, labels, k=3) <= 1.0

    def test_error_length_mismatch_raises(self, fitted, rng):
        index, _, _ = fitted
        with pytest.raises(DataValidationError):
            index.error(rng.normal(size=(5, 6)), np.zeros(4))

    def test_separated_clusters_classified_correctly(self):
        x = np.vstack([np.zeros((20, 2)), 10 + np.zeros((20, 2))])
        x += np.random.default_rng(0).normal(scale=0.1, size=x.shape)
        y = np.array([0] * 20 + [1] * 20)
        index = BruteForceKNN().fit(x, y)
        queries = np.array([[0.0, 0.0], [10.0, 10.0]])
        np.testing.assert_array_equal(index.predict(queries, k=5), [0, 1])

    def test_loo_error_reasonable_on_separated_data(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(0, 0.2, (30, 2)), rng.normal(5, 0.2, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        index = BruteForceKNN().fit(x, y)
        assert index.loo_error(k=3) == 0.0


class TestMajorityVote:
    def test_k1_returns_first(self):
        labels = np.array([[2], [0], [1]])
        np.testing.assert_array_equal(majority_vote(labels), [2, 0, 1])

    def test_clear_majority(self):
        assert majority_vote(np.array([[1, 1, 0]]))[0] == 1

    def test_tie_broken_by_nearest(self):
        # 2 and 0 both appear twice; 2 is nearest.
        assert majority_vote(np.array([[2, 0, 2, 0]]))[0] == 2
