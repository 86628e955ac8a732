"""Exact brute-force kNN index.

The one kNN index of the library: the estimator zoo (1NN, DE-kNN,
kNN-LOO), the baseline model zoo's kNN classifier, prioritized cleaning
and the drift monitor construct it directly.  For the streaming 1NN
evaluation that Snoopy itself performs, see :mod:`repro.knn.progressive`.

Implements the :class:`repro.knn.base.KNNIndex` protocol.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.base import ExactSearchMixin, KNNIndex
from repro.knn.kernels import resolve_dtype


class BruteForceKNN(ExactSearchMixin, KNNIndex):
    """Exact kNN search over an in-memory corpus.

    Parameters
    ----------
    metric:
        "euclidean" or "cosine".
    dtype:
        Compute dtype for the distance arithmetic ("float32" or
        "float64"); ``None`` (default) keeps the strict ``float64``
        path.  The corpus-side norms are cached at ``fit`` and reused
        across every ``kneighbors`` call.
    """

    def __init__(self, metric: str = "euclidean", dtype=None):
        self.metric = metric
        resolve_dtype(dtype)  # fail fast, not at the first search
        self.dtype = dtype
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._kernel_cache = None

    @property
    def num_fitted(self) -> int:
        """Number of corpus points currently indexed."""
        return 0 if self._x is None else len(self._x)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BruteForceKNN":
        """Index the corpus ``x`` with non-negative integer labels ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y).astype(np.int64)
        if x.ndim != 2:
            raise DataValidationError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise DataValidationError(
                f"x and y length mismatch: {len(x)} vs {len(y)}"
            )
        if len(x) == 0:
            raise DataValidationError("cannot fit an empty corpus")
        if y.min() < 0:
            # majority_vote counts votes in one column per label, so a
            # negative label would wrap into another class's column.
            raise DataValidationError(
                f"labels must be non-negative, got {y.min()}"
            )
        self._x = x
        self._y = y
        self._kernel_cache = None
        return self

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._x is None or self._y is None:
            raise DataValidationError("index is not fitted; call fit() first")
        return self._x, self._y

    # kneighbors / loo_error come from ExactSearchMixin; predict/error
    # from KNNIndex.
