"""Unit tests for the post-cleaning 1NN state, repro.core.incremental."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalState
from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN


@pytest.fixture()
def setup(rng):
    train_x = rng.normal(size=(150, 4))
    train_y = rng.integers(0, 3, size=150)
    test_x = rng.normal(size=(60, 4))
    test_y = rng.integers(0, 3, size=60)
    _, idx = BruteForceKNN().fit(train_x, train_y).kneighbors(test_x, k=1)
    state = IncrementalState({"x": idx[:, 0]}, train_y, test_y, num_classes=3)
    return state, train_x, train_y, test_x, test_y


def _state(nearest):
    """A state over 3 training labels and 1 test label."""
    return IncrementalState(
        {"x": np.array(nearest)}, np.zeros(3, dtype=int),
        np.zeros(1, dtype=int), num_classes=2,
    )


class TestConstruction:
    def test_out_of_range_indices_raise(self):
        for nearest in ([3], [-1]):
            with pytest.raises(DataValidationError, match="out of range"):
                _state(nearest)

    def test_length_mismatch_raises(self):
        with pytest.raises(DataValidationError, match="per test point"):
            _state([0, 1])

    def test_sizes(self, setup):
        state, _, train_y, _, test_y = setup
        np.testing.assert_array_equal(state.train_labels, train_y)
        np.testing.assert_array_equal(state.test_labels, test_y)
        # One copy of each split, owned by the state.
        assert not np.shares_memory(state.train_labels, train_y)
        assert not np.shares_memory(state.test_labels, test_y)


class TestErrorConsistency:
    def test_matches_brute_force(self, setup):
        state, train_x, train_y, test_x, test_y = setup
        index = BruteForceKNN().fit(train_x, train_y)
        assert state.errors()["x"] == pytest.approx(
            index.error(test_x, test_y, k=1)
        )

    def test_train_update_matches_recompute(self, setup):
        state, train_x, train_y, test_x, test_y = setup
        rng = np.random.default_rng(4)
        idx = rng.choice(len(train_y), size=30, replace=False)
        new = rng.integers(0, 3, size=30)
        state.apply_cleaning(idx, new, [], [])
        modified = train_y.copy()
        modified[idx] = new
        index = BruteForceKNN().fit(train_x, modified)
        assert state.errors()["x"] == pytest.approx(
            index.error(test_x, test_y, k=1)
        )

    def test_test_update_matches_recompute(self, setup):
        state, train_x, train_y, test_x, test_y = setup
        rng = np.random.default_rng(5)
        idx = rng.choice(len(test_y), size=15, replace=False)
        new = rng.integers(0, 3, size=15)
        state.apply_cleaning([], [], idx, new)
        modified = test_y.copy()
        modified[idx] = new
        index = BruteForceKNN().fit(train_x, train_y)
        assert state.errors()["x"] == pytest.approx(
            index.error(test_x, modified, k=1)
        )

    def test_update_out_of_range_raises(self, setup):
        state, *_ = setup
        with pytest.raises(DataValidationError, match="train index"):
            state.apply_cleaning([10_000], [0], [], [])
        with pytest.raises(DataValidationError, match="test index"):
            state.apply_cleaning([], [], [10_000], [0])

    @pytest.mark.parametrize("fault", ["out-of-range", "wrong-length"])
    @pytest.mark.parametrize("bad_split", ["train", "test"])
    def test_rejected_update_writes_nothing(self, setup, bad_split, fault):
        state, _, train_y, _, test_y = setup
        # A valid update that changes labels 0 and 1 of the other split.
        other = (
            state.test_labels if bad_split == "train" else state.train_labels
        )
        valid = ([0, 1], (other[:2] + 1) % 3)
        bad = ([10_000], [0]) if fault == "out-of-range" else ([0, 1], [0])
        train, test = (bad, valid) if bad_split == "train" else (valid, bad)
        with pytest.raises(DataValidationError, match=bad_split):
            state.apply_cleaning(*train, *test)
        np.testing.assert_array_equal(state.train_labels, train_y)
        np.testing.assert_array_equal(state.test_labels, test_y)

    def test_empty_update_is_noop(self, setup):
        state, _, train_y, _, test_y = setup
        before = state.errors()
        state.apply_cleaning([], [], [], [])
        assert state.errors() == before
        np.testing.assert_array_equal(state.train_labels, train_y)
        np.testing.assert_array_equal(state.test_labels, test_y)
