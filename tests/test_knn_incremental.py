"""Unit tests for repro.knn.incremental.NeighborCache."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.knn.incremental import NeighborCache


@pytest.fixture()
def setup(rng):
    train_x = rng.normal(size=(150, 4))
    train_y = rng.integers(0, 3, size=150)
    test_x = rng.normal(size=(60, 4))
    test_y = rng.integers(0, 3, size=60)
    _, idx = BruteForceKNN().fit(train_x, train_y).kneighbors(test_x, k=1)
    cache = NeighborCache(idx[:, 0], train_y, test_y)
    return cache, train_x, train_y, test_x, test_y


class TestConstruction:
    def test_out_of_range_indices_raise(self):
        with pytest.raises(DataValidationError):
            NeighborCache(np.array([5]), np.zeros(3, dtype=int), np.zeros(1, dtype=int))

    def test_length_mismatch_raises(self):
        with pytest.raises(DataValidationError):
            NeighborCache(
                np.array([0, 1]), np.zeros(3, dtype=int), np.zeros(1, dtype=int)
            )

    def test_sizes(self, setup):
        cache, _, train_y, _, test_y = setup
        assert cache.train_size == len(train_y)
        assert cache.test_size == len(test_y)


class TestErrorConsistency:
    def test_matches_brute_force(self, setup):
        cache, train_x, train_y, test_x, test_y = setup
        index = BruteForceKNN().fit(train_x, train_y)
        assert cache.error() == pytest.approx(index.error(test_x, test_y, k=1))

    def test_train_update_matches_recompute(self, setup):
        cache, train_x, train_y, test_x, test_y = setup
        rng = np.random.default_rng(4)
        idx = rng.choice(len(train_y), size=30, replace=False)
        new = rng.integers(0, 3, size=30)
        cache.update_train_labels(idx, new)
        modified = train_y.copy()
        modified[idx] = new
        index = BruteForceKNN().fit(train_x, modified)
        assert cache.error() == pytest.approx(index.error(test_x, test_y, k=1))

    def test_test_update_matches_recompute(self, setup):
        cache, train_x, train_y, test_x, test_y = setup
        rng = np.random.default_rng(5)
        idx = rng.choice(len(test_y), size=15, replace=False)
        new = rng.integers(0, 3, size=15)
        cache.update_test_labels(idx, new)
        modified = test_y.copy()
        modified[idx] = new
        index = BruteForceKNN().fit(train_x, train_y)
        assert cache.error() == pytest.approx(index.error(test_x, modified, k=1))

    def test_update_out_of_range_raises(self, setup):
        cache, *_ = setup
        with pytest.raises(DataValidationError):
            cache.update_train_labels(np.array([10_000]), np.array([0]))
        with pytest.raises(DataValidationError):
            cache.update_test_labels(np.array([10_000]), np.array([0]))

    def test_empty_update_is_noop(self, setup):
        cache, *_ = setup
        before = cache.error()
        cache.update_train_labels(np.array([], dtype=int), np.array([], dtype=int))
        assert cache.error() == before
