"""Unit tests for repro.knn.progressive: the streamed 1NN evaluator."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.knn.kernels import resolve_dtype
from repro.knn.progressive import CurvePoint, ProgressiveOneNN


@pytest.fixture()
def data(rng):
    train_x = rng.normal(size=(200, 5))
    train_y = rng.integers(0, 3, size=200)
    test_x = rng.normal(size=(50, 5))
    test_y = rng.integers(0, 3, size=50)
    return train_x, train_y, test_x, test_y


class TestConstruction:
    def test_empty_test_raises(self):
        with pytest.raises(DataValidationError):
            ProgressiveOneNN(np.zeros((0, 3)), np.zeros(0))

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(DataValidationError):
            ProgressiveOneNN(rng.normal(size=(5, 2)), np.zeros(4))

    def test_error_before_any_batch_raises(self, data):
        _, _, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        with pytest.raises(DataValidationError, match="no training data"):
            evaluator.error()


class TestEquivalenceWithBatch:
    def test_single_batch_matches_brute_force(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        streamed = evaluator.partial_fit(train_x, train_y)
        index = BruteForceKNN().fit(train_x, train_y)
        assert streamed == pytest.approx(index.error(test_x, test_y, k=1))

    @pytest.mark.parametrize("batch_size", [1, 7, 50, 200])
    def test_any_batching_matches_full(self, data, batch_size):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        for start in range(0, len(train_x), batch_size):
            evaluator.partial_fit(
                train_x[start : start + batch_size],
                train_y[start : start + batch_size],
            )
        index = BruteForceKNN().fit(train_x, train_y)
        assert evaluator.error() == pytest.approx(
            index.error(test_x, test_y, k=1)
        )

    def test_nearest_indices_are_global(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x[:100], train_y[:100])
        evaluator.partial_fit(train_x[100:], train_y[100:])
        _, idx = BruteForceKNN().fit(train_x, train_y).kneighbors(test_x, k=1)
        np.testing.assert_array_equal(evaluator.nearest_indices, idx[:, 0])


class TestCurve:
    def test_curve_recorded_per_batch(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x[:50], train_y[:50])
        evaluator.partial_fit(train_x[50:120], train_y[50:120])
        assert [p.train_size for p in evaluator.curve] == [50, 120]
        assert all(isinstance(p, CurvePoint) for p in evaluator.curve)

    def test_curve_arrays(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x[:30], train_y[:30])
        sizes, errors = evaluator.curve_arrays()
        assert sizes.tolist() == [30]
        assert errors[0] == evaluator.error()

    def test_error_non_increasing_on_easy_task(self):
        # With well separated clusters, more data cannot hurt 1NN much;
        # the final error must be <= the first-batch error.
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [6.0, 6.0], [0.0, 6.0]])
        train_y = rng.integers(0, 3, 300)
        train_x = centers[train_y] + rng.normal(scale=1.0, size=(300, 2))
        test_y = rng.integers(0, 3, 100)
        test_x = centers[test_y] + rng.normal(scale=1.0, size=(100, 2))
        evaluator = ProgressiveOneNN(test_x, test_y)
        first = evaluator.partial_fit(train_x[:10], train_y[:10])
        last = evaluator.partial_fit(train_x[10:], train_y[10:])
        assert last <= first + 1e-12



def _errors(evaluator, train_x, train_y):
    """The evaluator's errors after each of three training batches."""
    return [
        evaluator.partial_fit(train_x[lo : lo + 70], train_y[lo : lo + 70])
        for lo in (0, 70, 140)
    ]


class TestOwnership:
    """The evaluator shares a test set that is read-only all the way down;
    it copies any other."""

    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_binds_read_only_input_in_compute_dtype(self, data, dtype):
        _, _, test_x, test_y = data
        frozen = test_x.astype(resolve_dtype(dtype))
        frozen.setflags(write=False)
        evaluator = ProgressiveOneNN(frozen, test_y, dtype=dtype)
        assert np.shares_memory(evaluator._test_x, frozen)

    @pytest.mark.parametrize("dtype", [None, "float32"])
    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_copies_what_could_still_be_written(
        self, data, dtype, read_only_view
    ):
        train_x, train_y, test_x, test_y = data
        base = test_x.astype(resolve_dtype(dtype))
        source = base
        if read_only_view:
            source = base[:]
            source.setflags(write=False)
        evaluator = ProgressiveOneNN(source, test_y, dtype=dtype)
        assert not np.shares_memory(evaluator._test_x, base)
        reference = ProgressiveOneNN(base.copy(), test_y, dtype=dtype)
        base *= -3.0
        assert _errors(evaluator, train_x, train_y) == _errors(
            reference, train_x, train_y
        )
