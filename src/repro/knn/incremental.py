"""Post-cleaning 1NN cache: O(test) error updates after label changes.

After one full 1NN evaluation, :class:`NeighborCache` stores, for every
test point, the index of its nearest training neighbor.  Cleaning
labels (of training or test samples) never changes *which* point is the
nearest neighbor — only feature changes could do that — so the 1NN
error after any label update is recomputed with a single O(test) pass
and zero distance computations.  This is the optimization of Section V
that yields the several-orders-of-magnitude incremental speedups in
Figure 13.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError


class NeighborCache:
    """Label-update-aware 1NN error cache for a fixed feature geometry.

    Parameters
    ----------
    nn_indices:
        For each test point, the train index of its nearest neighbor.
    train_labels, test_labels:
        Current (possibly noisy) integer labels; copies are taken.
    """

    def __init__(
        self,
        nn_indices: np.ndarray,
        train_labels: np.ndarray,
        test_labels: np.ndarray,
    ):
        nn_indices = np.asarray(nn_indices, dtype=np.int64)
        train_labels = np.asarray(train_labels, dtype=np.int64).copy()
        test_labels = np.asarray(test_labels, dtype=np.int64).copy()
        if len(nn_indices) != len(test_labels):
            raise DataValidationError(
                "nn_indices and test_labels must have one entry per test point"
            )
        if len(train_labels) == 0:
            raise DataValidationError("train_labels must not be empty")
        if nn_indices.min(initial=0) < 0 or nn_indices.max(initial=0) >= len(
            train_labels
        ):
            raise DataValidationError("nn_indices out of range of train_labels")
        self._nn_indices = nn_indices
        self._train_labels = train_labels
        self._test_labels = test_labels

    @property
    def test_size(self) -> int:
        return len(self._test_labels)

    @property
    def train_size(self) -> int:
        return len(self._train_labels)

    def error(self) -> float:
        """Exact 1NN test error under the current labels; O(test)."""
        predicted = self._train_labels[self._nn_indices]
        return float(np.mean(predicted != self._test_labels))

    def update_train_labels(
        self, indices: np.ndarray, new_labels: np.ndarray
    ) -> None:
        """Rewrite training labels in place; no distances are touched."""
        indices = np.asarray(indices, dtype=np.int64)
        new_labels = np.asarray(new_labels, dtype=np.int64)
        if len(indices) != len(new_labels):
            raise DataValidationError("indices and new_labels length mismatch")
        if len(indices) and (
            indices.min() < 0 or indices.max() >= len(self._train_labels)
        ):
            raise DataValidationError("train index out of range")
        self._train_labels[indices] = new_labels

    def update_test_labels(self, indices: np.ndarray, new_labels: np.ndarray) -> None:
        """Rewrite test labels in place; no distances are touched."""
        indices = np.asarray(indices, dtype=np.int64)
        new_labels = np.asarray(new_labels, dtype=np.int64)
        if len(indices) != len(new_labels):
            raise DataValidationError("indices and new_labels length mismatch")
        if len(indices) and (
            indices.min() < 0 or indices.max() >= len(self._test_labels)
        ):
            raise DataValidationError("test index out of range")
        self._test_labels[indices] = new_labels
