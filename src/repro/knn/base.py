"""kNN index protocol, shared exact search and voting kernel.

:class:`~repro.knn.brute_force.BruteForceKNN` — the one index, exact as
the paper's 1NN, DE-kNN and kNN-LOO estimates require — implements the
:class:`KNNIndex` abstract base class defined here:

- ``fit(x, y)`` indexes a corpus of feature rows with integer labels,
- ``kneighbors(queries, k)`` returns ``(distances, indices)``,
- ``predict(queries, k)`` is the majority-vote kNN classification,
- ``error(queries, true_labels, k)`` is its misclassification rate,
- ``num_fitted`` reports the corpus size.

Call sites (estimator zoo, baseline model zoo, cleaning, drift
monitoring) construct it directly.  :class:`ExactSearchMixin` holds its
blocked top-k and leave-one-out search.

The module also hosts :func:`majority_vote`, the fully vectorized
voting kernel (no per-row Python scan, even on ties).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import DistanceKernel, make_kernel


class KNNIndex(ABC):
    """Abstract base class of a kNN index; see the module docstring."""

    @property
    @abstractmethod
    def num_fitted(self) -> int:
        """Number of corpus points currently indexed (0 before fit)."""

    @abstractmethod
    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNIndex":
        """Index the corpus ``x`` with integer labels ``y``; returns self."""

    @abstractmethod
    def kneighbors(
        self, queries: np.ndarray, k: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the k nearest corpus points."""

    def predict(self, queries: np.ndarray, k: int = 1) -> np.ndarray:
        """Majority-vote kNN prediction; ties go to the closest neighbor."""
        labels = self._fitted_labels()
        _, idx = self.kneighbors(queries, k=k)
        return majority_vote(labels[idx])

    def error(
        self, queries: np.ndarray, true_labels: np.ndarray, k: int = 1
    ) -> float:
        """Misclassification rate of the kNN classifier on the queries."""
        true_labels = np.asarray(true_labels)
        if len(queries) != len(true_labels):
            raise DataValidationError(
                f"queries and labels length mismatch: "
                f"{len(queries)} vs {len(true_labels)}"
            )
        return float(np.mean(self.predict(queries, k=k) != true_labels))

    def _fitted_labels(self) -> np.ndarray:
        """Corpus labels; indexes with a ``_y`` attribute get this free."""
        labels = getattr(self, "_y", None)
        if labels is None:
            raise DataValidationError("index is not fitted; call fit() first")
        return labels


class ExactSearchMixin:
    """Shared blocked exact search for a corpus-backed index.

    Hosts the fused top-k/leave-one-out plumbing; expects ``self.metric``,
    ``self.dtype``, a ``self._kernel_cache`` slot (set to ``None``
    whenever the corpus changes) and
    ``_require_fitted() -> (corpus, labels)``.

    The corpus-bound :class:`~repro.knn.kernels.DistanceKernel` is built
    lazily on the first search and reused until invalidated, so the
    corpus-side norms are computed once per fitted corpus instead of
    once per ``kneighbors`` call.
    """

    def _search_kernel(self) -> DistanceKernel:
        """The corpus-bound distance kernel (built lazily, then cached)."""
        corpus, _ = self._require_fitted()
        if self._kernel_cache is None:
            self._kernel_cache = make_kernel(
                self.metric, corpus, dtype=self.dtype
            )
        return self._kernel_cache

    def kneighbors(
        self, queries: np.ndarray, k: int = 1, exclude_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the k nearest corpus points.

        With ``exclude_self=True`` the queries must be the fitted corpus
        itself (same rows, same order) and each point's zero-distance
        self match is removed (leave-one-out mode); any other query set
        would silently mask arbitrary corpus columns, so
        :meth:`~repro.knn.kernels.DistanceKernel.topk` raises
        :class:`DataValidationError` on a length mismatch.
        """
        # No float64 pre-cast: the kernel casts straight to its compute
        # dtype, so float32 queries feed a float32 index with zero
        # widening copies.
        return self._search_kernel().topk(
            queries, k, exclude_self=exclude_self
        )

    def loo_error(self, k: int = 1) -> float:
        """Leave-one-out kNN error on the fitted corpus itself."""
        corpus, labels = self._require_fitted()
        _, idx = self.kneighbors(corpus, k=k, exclude_self=True)
        return float(np.mean(majority_vote(labels[idx]) != labels))


def majority_vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Fully vectorized majority vote over distance-sorted neighbor labels.

    ``neighbor_labels`` has shape ``(n, k)`` with each row ordered by
    increasing distance.  Ties on the vote count are broken by the class
    whose representative appears earliest in the sorted neighbor list —
    the same deterministic, distance-aware rule the previous per-row
    scan implemented, expressed as a single rank-weighted score matrix:

    ``score[i, c] = count[i, c] * (k + 1) + (k - first_rank[i, c])``

    Counts dominate (they are scaled past the largest possible rank
    bonus) and among count-tied classes the smaller first rank wins.
    Two classes can never share both count and first rank, so ``argmax``
    is unambiguous.
    """
    neighbor_labels = np.asarray(neighbor_labels, dtype=np.int64)
    n, k = neighbor_labels.shape
    if k == 1:
        return neighbor_labels[:, 0].copy()
    num_classes = int(neighbor_labels.max()) + 1
    rows = np.repeat(np.arange(n), k)
    cols = neighbor_labels.ravel()
    counts = np.zeros((n, num_classes), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    first_rank = np.full((n, num_classes), k, dtype=np.int64)
    np.minimum.at(first_rank, (rows, cols), np.tile(np.arange(k), n))
    score = counts * (k + 1) + (k - first_rank)
    return np.argmax(score, axis=1)
