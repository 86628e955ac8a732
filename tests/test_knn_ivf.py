"""Unit tests for k-means and the IVF-Flat approximate index."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.knn.ivf import IVFFlatIndex, _select_pool_topk
from repro.knn.kmeans import KMeans


@pytest.fixture()
def blobs(rng):
    centers = rng.normal(scale=10.0, size=(8, 5))
    assignment = rng.integers(0, 8, size=800)
    x = centers[assignment] + rng.normal(size=(800, 5))
    y = assignment % 3
    return x, y, centers, assignment


class TestKMeans:
    def test_recovers_separated_clusters(self, blobs):
        x, _, centers, assignment = blobs
        model = KMeans(8, seed=0).fit(x)
        predicted = model.predict(x)
        # Cluster labels are permuted, but points sharing a true cluster
        # must share a predicted cluster (pairwise agreement check on a
        # subsample).
        idx = np.arange(0, 800, 7)
        same_true = assignment[idx][:, None] == assignment[idx][None, :]
        same_pred = predicted[idx][:, None] == predicted[idx][None, :]
        agreement = np.mean(same_true == same_pred)
        assert agreement > 0.95

    def test_inertia_decreases_with_more_clusters(self, blobs):
        x, *_ = blobs
        small = KMeans(2, seed=0).fit(x).inertia(x)
        large = KMeans(16, seed=0).fit(x).inertia(x)
        assert large < small

    def test_k_equals_n(self, rng):
        x = rng.normal(size=(10, 3))
        model = KMeans(10, seed=0).fit(x)
        assert model.inertia(x) < 1e-9

    def test_validation(self, rng):
        with pytest.raises(DataValidationError):
            KMeans(0)
        with pytest.raises(DataValidationError):
            KMeans(5).fit(rng.normal(size=(3, 2)))
        with pytest.raises(DataValidationError):
            KMeans(2).predict(rng.normal(size=(3, 2)))

    def test_deterministic_with_seed(self, blobs):
        x, *_ = blobs
        a = KMeans(4, seed=7).fit(x).centroids
        b = KMeans(4, seed=7).fit(x).centroids
        np.testing.assert_array_equal(a, b)


class TestIVFFlat:
    def test_full_probe_is_exact(self, blobs, rng):
        x, y, *_ = blobs
        queries = rng.normal(scale=10.0, size=(50, 5))
        exact_dist, exact_idx = BruteForceKNN().fit(x, y).kneighbors(
            queries, k=3
        )
        ivf = IVFFlatIndex(nlist=8, nprobe=8, seed=0).fit(x, y)
        approx_dist, approx_idx = ivf.kneighbors(queries, k=3)
        np.testing.assert_allclose(approx_dist, exact_dist, atol=1e-9)

    def test_recall_increases_with_nprobe(self, blobs, rng):
        x, y, *_ = blobs
        queries = rng.normal(scale=10.0, size=(80, 5))
        _, exact_idx = BruteForceKNN().fit(x, y).kneighbors(queries, k=5)
        recalls = []
        for nprobe in (1, 4, 8):
            ivf = IVFFlatIndex(nlist=8, nprobe=nprobe, seed=0).fit(x, y)
            recalls.append(ivf.recall_against_exact(queries, exact_idx, k=5))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == pytest.approx(1.0)

    def test_prediction_error_close_to_exact(self, blobs, rng):
        x, y, *_ = blobs
        queries = x[:100] + rng.normal(scale=0.1, size=(100, 5))
        exact_error = BruteForceKNN().fit(x, y).error(queries, y[:100])
        ivf = IVFFlatIndex(nlist=8, nprobe=2, seed=0).fit(x, y)
        assert abs(ivf.error(queries, y[:100]) - exact_error) < 0.1

    def test_k_larger_than_probed_candidates_widens(self, rng):
        # Tiny clusters: asking for more neighbors than one list holds
        # must widen the probe set, not fail.
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40)
        ivf = IVFFlatIndex(nlist=10, nprobe=1, seed=0).fit(x, y)
        dist, idx = ivf.kneighbors(rng.normal(size=(5, 3)), k=15)
        assert dist.shape == (5, 15)
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_validation(self, rng):
        with pytest.raises(DataValidationError):
            IVFFlatIndex(nlist=0)
        with pytest.raises(DataValidationError):
            IVFFlatIndex().kneighbors(rng.normal(size=(2, 3)))
        ivf = IVFFlatIndex(nlist=2, seed=0).fit(
            rng.normal(size=(10, 3)), rng.integers(0, 2, 10)
        )
        with pytest.raises(DataValidationError):
            ivf.kneighbors(rng.normal(size=(2, 3)), k=11)

    def test_select_pool_topk_total_order(self):
        est = np.array([[3.0, 1.0, 1.0, np.inf, 2.0]])
        idx = np.array([[7, 9, 4, -1, 5]])
        top_est, top_idx = _select_pool_topk(est, idx, 3)
        np.testing.assert_array_equal(top_est, [[1.0, 1.0, 2.0]])
        np.testing.assert_array_equal(top_idx, [[4, 9, 5]])

    def test_nprobe_clamped_to_nlist(self):
        ivf = IVFFlatIndex(nlist=4, nprobe=100)
        assert ivf.nprobe == 4
