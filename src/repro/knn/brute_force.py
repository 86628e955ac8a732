"""Exact brute-force kNN index.

Used directly by the estimator zoo (kNN-LOO, DE-kNN) and by the baseline
model zoo's kNN classifier.  For the streaming 1NN evaluation that Snoopy
itself performs, see :mod:`repro.knn.progressive`.

Implements the :class:`repro.knn.base.KNNIndex` protocol and is the
default backend of :func:`repro.knn.base.make_index`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.base import (
    ExactSearchMixin,
    KNNIndex,
    majority_vote,
    register_backend,
)
from repro.knn.kernels import resolve_dtype


@register_backend("brute_force")
class BruteForceKNN(ExactSearchMixin, KNNIndex):
    """Exact kNN search over an in-memory corpus.

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
        path.  The corpus-side norms are cached at ``fit`` and reused
        across every ``kneighbors`` call.
    """

    def __init__(
        self, metric: str = "euclidean", block_size: int = 2048, dtype=None
    ):
        self.metric = metric
        self.block_size = block_size
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
        """Index the corpus ``x`` with integer labels ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2:
            raise DataValidationError(f"x must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise DataValidationError(
                f"x and y length mismatch: {len(x)} vs {len(y)}"
            )
        if len(x) == 0:
            raise DataValidationError("cannot fit an empty corpus")
        self._x = x
        self._y = y.astype(np.int64)
        self._kernel_cache = None
        return self

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._x is None or self._y is None:
            raise DataValidationError("index is not fitted; call fit() first")
        return self._x, self._y

    # kneighbors / loo_error come from ExactSearchMixin; predict/error
    # from KNNIndex.


def _majority_vote(neighbor_labels: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Backward-compatible alias for :func:`repro.knn.base.majority_vote`.

    The ``distances`` argument is unused: the labels arrive sorted by
    distance, which is the only ordering information the vote needs.
    """
    del distances
    return majority_vote(neighbor_labels)
