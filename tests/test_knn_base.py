"""Tests for the unified KNNIndex protocol, the make_index factory, the
incremental backend and the vectorized majority vote."""

import numpy as np
import pytest

from repro.estimators.cover_hart import OneNNEstimator
from repro.estimators.knn_loo import KNNLooEstimator
from repro.exceptions import DataValidationError, UnknownBackendError
from repro.knn import (
    BruteForceKNN,
    IncrementalKNNIndex,
    IVFFlatIndex,
    KNNIndex,
    available_backends,
    majority_vote,
    make_index,
)


class TestFactory:
    def test_backends_registered(self):
        assert available_backends() == ("brute_force", "incremental", "ivf")

    @pytest.mark.parametrize(
        "backend,cls",
        [
            ("brute_force", BruteForceKNN),
            ("exact", BruteForceKNN),
            ("incremental", IncrementalKNNIndex),
            ("ivf", IVFFlatIndex),
        ],
    )
    def test_make_index_types(self, backend, cls, rng):
        index = make_index(backend)
        assert isinstance(index, cls)
        assert isinstance(index, KNNIndex)
        index.fit(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        for k in (0, -1):
            with pytest.raises(
                DataValidationError, match=f"k must be >= 1, got {k}"
            ):
                index.kneighbors(rng.normal(size=(2, 3)), k=k)

    def test_unknown_backend_raises(self):
        with pytest.raises(DataValidationError, match="unknown"):
            make_index("faiss")

    def test_unknown_backend_error_names_backends(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            make_index("annoy")
        message = str(excinfo.value)
        assert "annoy" in message
        for name in available_backends():
            assert name in message
        # Back-compat: still catchable as a validation error.
        assert isinstance(excinfo.value, DataValidationError)

    def test_ivf_rejects_cosine(self):
        with pytest.raises(DataValidationError, match="euclidean"):
            make_index("ivf", metric="cosine")

    def test_kwargs_forwarded(self):
        assert make_index("ivf", nlist=7, nprobe=3).nlist == 7
        assert make_index("brute_force", block_size=16).block_size == 16

    def test_protocol_surface_is_uniform(self, rng):
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, 40)
        queries = rng.normal(size=(10, 4))
        labels = rng.integers(0, 3, 10)
        for backend in available_backends():
            index = make_index(backend).fit(x, y)
            assert index.num_fitted == 40
            dist, idx = index.kneighbors(queries, k=3)
            assert dist.shape == idx.shape == (10, 3)
            assert index.predict(queries, k=3).shape == (10,)
            assert 0.0 <= index.error(queries, labels, k=3) <= 1.0


class TestIncrementalIndex:
    def test_partial_fit_matches_one_shot(self, rng):
        x = rng.normal(size=(60, 5))
        y = rng.integers(0, 3, 60)
        queries = rng.normal(size=(12, 5))
        whole = BruteForceKNN().fit(x, y)
        grown = IncrementalKNNIndex().fit(x[:10], y[:10])
        for start in range(10, 60, 7):
            grown.partial_fit(x[start : start + 7], y[start : start + 7])
        assert grown.num_fitted == 60
        d1, i1 = whole.kneighbors(queries, k=4)
        d2, i2 = grown.kneighbors(queries, k=4)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2)
        assert grown.loo_error(k=3) == whole.loo_error(k=3)

    def test_refit_resets(self, rng):
        index = IncrementalKNNIndex().fit(
            rng.normal(size=(20, 3)), rng.integers(0, 2, 20)
        )
        index.fit(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
        assert index.num_fitted == 5

    def test_validation(self, rng):
        with pytest.raises(DataValidationError):
            IncrementalKNNIndex().fit(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(DataValidationError):
            IncrementalKNNIndex().kneighbors(rng.normal(size=(2, 3)))
        index = IncrementalKNNIndex().fit(
            rng.normal(size=(5, 3)), rng.integers(0, 2, 5)
        )
        with pytest.raises(DataValidationError):
            index.partial_fit(rng.normal(size=(4, 2)), rng.integers(0, 2, 4))
        with pytest.raises(DataValidationError, match="exclude_self"):
            index.kneighbors(rng.normal(size=(2, 3)), exclude_self=True)


def _reference_majority_vote(neighbor_labels):
    """The historical per-row scan, kept as the semantic oracle."""
    n, k = neighbor_labels.shape
    predictions = np.empty(n, dtype=np.int64)
    for i in range(n):
        values, counts = np.unique(neighbor_labels[i], return_counts=True)
        tied = set(values[counts == counts.max()].tolist())
        for label in neighbor_labels[i]:
            if label in tied:
                predictions[i] = label
                break
    return predictions


class TestMajorityVote:
    def test_matches_reference_under_heavy_ties(self, rng):
        # Few classes + even k maximizes tie pressure on the fast path.
        for k in (2, 3, 4, 6):
            labels = rng.integers(0, 3, size=(500, k))
            np.testing.assert_array_equal(
                majority_vote(labels), _reference_majority_vote(labels)
            )

    def test_k1_copies(self):
        labels = np.array([[2], [0]])
        out = majority_vote(labels)
        np.testing.assert_array_equal(out, [2, 0])
        assert not np.shares_memory(out, labels)


class TestSwappableBackends:
    def test_one_nn_estimator_ivf_backend(self, dataset):
        exact = OneNNEstimator().estimate(
            dataset.train_x, dataset.train_y,
            dataset.test_x, dataset.test_y, dataset.num_classes,
        )
        approx = OneNNEstimator(backend="ivf").estimate(
            dataset.train_x, dataset.train_y,
            dataset.test_x, dataset.test_y, dataset.num_classes,
        )
        assert approx.details["backend"] == "ivf"
        assert abs(approx.value - exact.value) < 0.1

    def test_knn_loo_rejects_backend_without_loo(self, dataset):
        estimator = KNNLooEstimator(backend="ivf")
        with pytest.raises(DataValidationError, match="leave-one-out"):
            estimator.estimate(
                dataset.train_x, dataset.train_y,
                dataset.test_x, dataset.test_y, dataset.num_classes,
            )
