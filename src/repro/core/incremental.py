"""Incremental Snoopy state for the iterative cleaning loop (Section V).

Cleaning labels never changes *which* training point is a test point's
nearest neighbour; only feature changes could do that.  So after a full
run the state keeps each transformation's nearest training index per
test point, plus one copy of the current train and test labels.  A
cleaning step overwrites labels in O(#cleaned), and each
transformation's 1NN error is one O(test) pass with no inference and no
distance computation.  This is the mechanism behind the near-instant
re-runs of Figure 13.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import FeasibilitySignal
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import DataValidationError


class IncrementalState:
    """Re-runnable estimate state over fixed nearest neighbours.

    Parameters
    ----------
    nearest:
        Per transformation name, the training index of each test
        point's nearest neighbour.
    train_labels, test_labels:
        Current integer labels.  The state takes its own copies, exposed
        as the ``train_labels`` and ``test_labels`` attributes; change
        them through :meth:`apply_cleaning`.
    num_classes:
        Number of classes of the task (at least 2).
    """

    def __init__(
        self,
        nearest: dict[str, np.ndarray],
        train_labels: np.ndarray,
        test_labels: np.ndarray,
        num_classes: int,
    ):
        if not nearest:
            raise DataValidationError("need at least one transformation")
        if num_classes < 2:
            raise DataValidationError("num_classes must be >= 2")
        self.train_labels = np.array(train_labels, dtype=np.int64)
        self.test_labels = np.array(test_labels, dtype=np.int64)
        if len(self.train_labels) == 0:
            raise DataValidationError("train_labels must not be empty")
        self._nearest = {}
        for name, indices in nearest.items():
            indices = np.asarray(indices, dtype=np.int64)
            if indices.shape != self.test_labels.shape:
                raise DataValidationError(
                    f"{name!r}: need one nearest index per test point"
                )
            _check_indices(indices, len(self.train_labels), "nearest")
            self._nearest[name] = indices
        self._num_classes = num_classes

    @property
    def transform_names(self) -> list[str]:
        return list(self._nearest)

    def apply_cleaning(
        self,
        train_indices: np.ndarray,
        train_labels: np.ndarray,
        test_indices: np.ndarray,
        test_labels: np.ndarray,
    ) -> None:
        """Overwrite cleaned labels in both splits.

        Both updates are checked before either is written, so a rejected
        update changes nothing.
        """
        train_at, train_to = _checked_update(
            train_indices, train_labels, len(self.train_labels), "train"
        )
        test_at, test_to = _checked_update(
            test_indices, test_labels, len(self.test_labels), "test"
        )
        self.train_labels[train_at] = train_to
        self.test_labels[test_at] = test_to

    def errors(self) -> dict[str, float]:
        """Per-transformation exact 1NN test error under current labels."""
        return {
            name: float(np.mean(self.train_labels[nn] != self.test_labels))
            for name, nn in self._nearest.items()
        }

    def estimates(self) -> dict[str, float]:
        """Per-transformation Cover–Hart estimates under current labels."""
        return {
            name: cover_hart_lower_bound(error, self._num_classes)
            for name, error in self.errors().items()
        }

    def ber_estimate(self) -> tuple[str, float]:
        """Aggregated (min) estimate and the transformation achieving it."""
        estimates = self.estimates()
        best = min(estimates, key=estimates.get)
        return best, estimates[best]

    def signal(self, target_accuracy: float) -> FeasibilitySignal:
        """The binary decision under the current labels."""
        if not 0.0 < target_accuracy <= 1.0:
            raise DataValidationError(
                f"target_accuracy must be in (0, 1], got {target_accuracy}"
            )
        _, estimate = self.ber_estimate()
        if estimate <= 1.0 - target_accuracy:
            return FeasibilitySignal.REALISTIC
        return FeasibilitySignal.UNREALISTIC


def _check_indices(indices: np.ndarray, size: int, what: str) -> None:
    if len(indices) and (indices.min() < 0 or indices.max() >= size):
        raise DataValidationError(f"{what} index out of range [0, {size})")


def _checked_update(indices, labels, size: int, split: str):
    """``(indices, labels)`` as int64 arrays, once they form a valid update."""
    indices = np.asarray(indices, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if indices.shape != labels.shape:
        raise DataValidationError(
            f"{split} indices and labels length mismatch: "
            f"{len(indices)} vs {len(labels)}"
        )
    _check_indices(indices, size, split)
    return indices, labels
