"""Incremental kNN machinery: append-only index and post-cleaning cache.

Two pieces live here:

- :class:`IncrementalKNNIndex` — an exact :class:`repro.knn.base.KNNIndex`
  backend ("incremental") whose corpus grows in place via
  :meth:`IncrementalKNNIndex.partial_fit` with amortized-doubling
  storage, matching the paper's streaming ingestion pattern without
  re-copying the corpus on every batch.
- :class:`NeighborCache` — after one full 1NN evaluation the cache
  stores, for every test point, the index of its nearest training
  neighbor.  Cleaning labels (of training or test samples) never
  changes *which* point is the nearest neighbor — only feature changes
  could do that — so the 1NN error after any label update is recomputed
  with a single O(test) pass and zero distance computations.  This is
  the optimization of Section V that yields the several-orders-of-
  magnitude incremental speedups in Figure 13.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.base import ExactSearchMixin, KNNIndex, register_backend
from repro.knn.kernels import resolve_dtype
from repro.knn.progressive import ProgressiveOneNN


@register_backend("incremental")
class IncrementalKNNIndex(ExactSearchMixin, KNNIndex):
    """Exact kNN over an append-only corpus with amortized growth.

    ``fit`` starts the corpus and :meth:`partial_fit` appends further
    batches; storage doubles geometrically so ``n`` appended rows cost
    O(n) copying in total.  Search is exact (shared blocked top-k with
    the brute-force backend), so swapping this in for
    :class:`~repro.knn.brute_force.BruteForceKNN` changes no results —
    only the ingestion cost profile.

    Parameters
    ----------
    metric:
        "euclidean" or "cosine".
    block_size:
        Upper bound on the query rows per distance block; a block holds
        fewer when its product against the corpus would pass the
        kernel's byte budget.
    dtype:
        Compute dtype for the distance arithmetic ("float32" or
        "float64"); ``None`` (default) keeps the strict ``float64``
        path.  The corpus-bound kernel (cached norms) is invalidated on
        every append and rebuilt lazily at the next search, so a burst
        of appends followed by many searches pays for one rebuild.
    """

    def __init__(
        self, metric: str = "euclidean", block_size: int = 2048, dtype=None
    ):
        self.metric = metric
        self.block_size = block_size
        resolve_dtype(dtype)  # fail fast, not at the first search
        self.dtype = dtype
        self._buf_x: np.ndarray | None = None
        self._buf_y: np.ndarray | None = None
        self._size = 0
        self._kernel_cache = None

    @property
    def num_fitted(self) -> int:
        return self._size

    @property
    def _x(self) -> np.ndarray | None:
        return None if self._buf_x is None else self._buf_x[: self._size]

    @property
    def _y(self) -> np.ndarray | None:
        return None if self._buf_y is None else self._buf_y[: self._size]

    def fit(self, x: np.ndarray, y: np.ndarray) -> "IncrementalKNNIndex":
        """Reset the corpus to ``(x, y)``; append more via partial_fit."""
        self._buf_x = None
        self._buf_y = None
        self._size = 0
        x, y = self._validate_batch(x, y)
        if len(x) == 0:
            raise DataValidationError("cannot fit an empty corpus")
        return self.partial_fit(x, y)

    def partial_fit(self, x: np.ndarray, y: np.ndarray) -> "IncrementalKNNIndex":
        """Append a batch of corpus rows; geometric buffer growth."""
        x, y = self._validate_batch(x, y)
        if len(x) == 0:
            return self
        self._kernel_cache = None
        if self._buf_x is None:
            self._buf_x = x.copy()
            self._buf_y = y.copy()
            self._size = len(x)
            return self
        if x.shape[1] != self._buf_x.shape[1]:
            raise DataValidationError(
                f"dimension mismatch: corpus has {self._buf_x.shape[1]} "
                f"features, batch has {x.shape[1]}"
            )
        needed = self._size + len(x)
        if needed > len(self._buf_x):
            capacity = max(needed, 2 * len(self._buf_x))
            grown_x = np.empty((capacity, self._buf_x.shape[1]))
            grown_y = np.empty(capacity, dtype=np.int64)
            grown_x[: self._size] = self._buf_x[: self._size]
            grown_y[: self._size] = self._buf_y[: self._size]
            self._buf_x, self._buf_y = grown_x, grown_y
        self._buf_x[self._size : needed] = x
        self._buf_y[self._size : needed] = y
        self._size = needed
        return self

    def _validate_batch(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2:
            raise DataValidationError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise DataValidationError(
                f"x and y length mismatch: {len(x)} vs {len(y)}"
            )
        return x, y.astype(np.int64)

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._size == 0:
            raise DataValidationError("index is not fitted; call fit() first")
        return self._x, self._y

    # kneighbors / loo_error come from ExactSearchMixin; predict/error
    # from KNNIndex.


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

    @classmethod
    def from_progressive(
        cls, evaluator: ProgressiveOneNN, train_labels: np.ndarray
    ) -> "NeighborCache":
        """Build a cache from a fully-fed :class:`ProgressiveOneNN`."""
        return cls(
            evaluator.nearest_indices,
            train_labels,
            evaluator.test_labels,
        )

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

    def snapshot_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Return copies of the current (train_labels, test_labels)."""
        return self._train_labels.copy(), self._test_labels.copy()
