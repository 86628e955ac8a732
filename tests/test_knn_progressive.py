"""Unit tests for repro.knn.progressive: the streamed 1NN evaluator."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
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

    def test_curve_disabled(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y, record_curve=False)
        evaluator.partial_fit(train_x, train_y)
        assert evaluator.curve == []

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


class TestRelabel:
    def test_relabel_train_changes_predictions(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x, train_y)
        # Relabel every training point to class 0: prediction = all zeros.
        evaluator.relabel_train(
            np.arange(len(train_y)), np.zeros(len(train_y), dtype=np.int64)
        )
        expected = float(np.mean(test_y != 0))
        assert evaluator.error() == pytest.approx(expected)

    def test_relabel_test_changes_ground_truth(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y.copy())
        evaluator.partial_fit(train_x, train_y)
        predictions = evaluator.nearest_labels
        # Set test labels equal to the predictions: error becomes zero.
        evaluator.relabel_test(np.arange(len(test_y)), predictions)
        assert evaluator.error() == 0.0

    def test_relabel_mismatch_raises(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x, train_y)
        with pytest.raises(DataValidationError):
            evaluator.relabel_train(np.array([0, 1]), np.array([0]))

    def test_relabel_matches_full_recompute(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x, train_y)
        rng = np.random.default_rng(9)
        flip_idx = rng.choice(len(train_y), size=40, replace=False)
        new_labels = rng.integers(0, 3, size=40)
        evaluator.relabel_train(flip_idx, new_labels)
        modified = train_y.copy()
        modified[flip_idx] = new_labels
        index = BruteForceKNN().fit(train_x, modified)
        assert evaluator.error() == pytest.approx(
            index.error(test_x, test_y, k=1)
        )

    def test_relabel_test_rejects_out_of_range_indices(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x, train_y)
        before = evaluator.test_labels
        for bad in (-1, len(test_y)):
            with pytest.raises(DataValidationError, match="out of range"):
                evaluator.relabel_test(np.array([bad]), np.array([1]))
        # A rejected call writes nothing (not even the last label).
        np.testing.assert_array_equal(evaluator.test_labels, before)

    def test_relabel_train_rejects_negative_indices(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x, train_y)
        before = evaluator.nearest_labels
        with pytest.raises(DataValidationError, match="out of range"):
            evaluator.relabel_train(np.array([0, -1]), np.array([1, 1]))
        np.testing.assert_array_equal(evaluator.nearest_labels, before)

    def test_relabel_train_past_train_seen_is_noop(self, data):
        train_x, train_y, test_x, test_y = data
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x[:100], train_y[:100])
        before = evaluator.nearest_labels
        # Rows 100+ are not ingested yet: their labels arrive with
        # their batch, so a correction now changes nothing.
        evaluator.relabel_train(np.array([100, 150]), np.array([0, 0]))
        np.testing.assert_array_equal(evaluator.nearest_labels, before)
