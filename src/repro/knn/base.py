"""Unified kNN index protocol, backend registry and voting kernel.

Every nearest-neighbor backend in the library — the exact
:class:`~repro.knn.brute_force.BruteForceKNN`, the approximate
:class:`~repro.knn.ivf.IVFFlatIndex` and the append-only
:class:`~repro.knn.incremental.IncrementalKNNIndex` — implements the
:class:`KNNIndex` abstract base class defined here:

- ``fit(x, y)`` indexes a corpus of feature rows with integer labels,
- ``kneighbors(queries, k)`` returns ``(distances, indices)``,
- ``predict(queries, k)`` is the majority-vote kNN classification,
- ``error(queries, true_labels, k)`` is its misclassification rate,
- ``num_fitted`` reports the corpus size.

Call sites (estimator zoo, baseline model zoo, Snoopy, cleaning,
drift monitoring) construct indexes through :func:`make_index` so the
backend is a configuration choice rather than a hard-coded import —
the paper's accelerator-style scaling path (Johnson et al.) then only
requires flipping ``backend="brute_force"`` to ``backend="ivf"``.

The module also hosts :func:`majority_vote`, the fully vectorized
voting kernel shared by all backends (no per-row Python scan, even on
ties).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import DataValidationError, UnknownBackendError
from repro.knn.kernels import DistanceKernel, make_kernel


class KNNIndex(ABC):
    """Abstract base class every kNN backend implements.

    Concrete backends are registered under a string name and built via
    :func:`make_index`; see the module docstring for the contract.
    """

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
        """Corpus labels; backends with a ``_y`` attribute get this free."""
        labels = getattr(self, "_y", None)
        if labels is None:
            raise DataValidationError("index is not fitted; call fit() first")
        return labels


class ExactSearchMixin:
    """Shared blocked exact search for corpus-backed backends.

    Hosts the fused top-k/leave-one-out plumbing; expects ``self.metric``,
    ``self.block_size``, ``self.dtype``, a ``self._kernel_cache`` slot
    (set to ``None`` whenever the corpus changes) and
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
            queries, k, block_size=self.block_size, exclude_self=exclude_self
        )

    def loo_error(self, k: int = 1) -> float:
        """Leave-one-out kNN error on the fitted corpus itself."""
        corpus, labels = self._require_fitted()
        _, idx = self.kneighbors(corpus, k=k, exclude_self=True)
        return float(np.mean(majority_vote(labels[idx]) != labels))


_BACKENDS: dict[str, type] = {}

_BACKEND_ALIASES = {"exact": "brute_force"}


def register_backend(name: str):
    """Class decorator registering a :class:`KNNIndex` under ``name``."""

    def decorator(cls):
        _BACKENDS[name] = cls
        return cls

    return decorator


#: Backends whose quantizer structure is euclidean-only; requesting any
#: other metric raises instead of silently degrading.
_EUCLIDEAN_ONLY = frozenset({"ivf"})


def _load_default_backends() -> None:
    # Imported lazily so base <-> backend modules never cycle.
    from repro.knn import brute_force, incremental, ivf  # noqa: F401


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_index`."""
    _load_default_backends()
    return tuple(sorted(_BACKENDS))


def make_index(
    backend: str = "brute_force", *, metric: str = "euclidean", **kwargs
) -> KNNIndex:
    """Build a kNN index by backend name.

    Parameters
    ----------
    backend:
        One of :func:`available_backends` ("brute_force" — alias
        "exact" —, "ivf", "incremental").  An unregistered name raises
        :class:`~repro.exceptions.UnknownBackendError` naming the
        registered backends.
    metric:
        Distance metric.  The quantizer-based "ivf" backend is
        euclidean-only; requesting cosine raises
        :class:`DataValidationError` instead of silently degrading.
    kwargs:
        Forwarded to the backend constructor (e.g. ``block_size`` for
        the exact backends, ``nlist``/``nprobe``/``seed`` for IVF, and
        ``dtype`` — "float32"/"float64" compute precision — for all of
        them).
    """
    _load_default_backends()
    name = _BACKEND_ALIASES.get(backend, backend)
    cls = _BACKENDS.get(name)
    if cls is None:
        raise UnknownBackendError(
            f"unknown kNN backend {backend!r}; "
            f"available backends: {available_backends()}"
        )
    if name in _EUCLIDEAN_ONLY:
        if metric != "euclidean":
            raise DataValidationError(
                f"{name} backend supports only the euclidean metric, "
                f"got {metric!r}"
            )
        return cls(**kwargs)
    return cls(metric=metric, **kwargs)


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
