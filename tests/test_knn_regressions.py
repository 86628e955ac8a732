"""Regression tests for the kNN state-aliasing and masking bugs."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.knn.kernels import make_kernel
from repro.knn.progressive import ProgressiveOneNN


class TestProgressiveAliasing:
    """The evaluator copies test arrays its caller can still write."""

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
            make_kernel("euclidean", corpus).topk(
                queries, k=2, exclude_self=True
            )

