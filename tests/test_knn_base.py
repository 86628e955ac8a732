"""Tests for the KNNIndex protocol on the exact index and the
vectorized majority vote."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn import BruteForceKNN, KNNIndex, majority_vote


class TestProtocol:
    def test_validates_k(self, rng):
        index = BruteForceKNN()
        assert isinstance(index, KNNIndex)
        index.fit(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        for k in (0, -1):
            with pytest.raises(
                DataValidationError, match=f"k must be >= 1, got {k}"
            ):
                index.kneighbors(rng.normal(size=(2, 3)), k=k)

    def test_protocol_surface(self, rng):
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, 40)
        queries = rng.normal(size=(10, 4))
        labels = rng.integers(0, 3, 10)
        index = BruteForceKNN().fit(x, y)
        assert index.num_fitted == 40
        dist, idx = index.kneighbors(queries, k=3)
        assert dist.shape == idx.shape == (10, 3)
        assert index.predict(queries, k=3).shape == (10,)
        assert 0.0 <= index.error(queries, labels, k=3) <= 1.0


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
