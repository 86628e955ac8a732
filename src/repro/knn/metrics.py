"""Pairwise distance computations used by the kNN substrate.

The functions here are exact (no approximate nearest-neighbor search) but
block the computation so that a large query-by-corpus distance matrix is
never materialized at once.  Both metrics used in the paper (euclidean
and cosine dissimilarity) are provided behind one dispatch function.

The dense matrix functions (:func:`euclidean_distances`,
:func:`cosine_distances`, :func:`pairwise_distances`) are the strict
``float64`` reference implementations.  The fused search entry points
(:func:`blocked_topk`, :func:`blocked_argmin_distance`) are thin
wrappers over :mod:`repro.knn.kernels`: they accept a ``dtype`` to run
the arithmetic in single precision, and default to ``float64`` so their
historical results are unchanged.  Callers that reuse one query or
corpus set across many calls should hold a
:class:`repro.knn.kernels.DistanceKernel` directly — these wrappers
rebuild the bound-side norm cache on every call.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import iter_blocks, make_kernel

__all__ = [
    "VALID_METRICS",
    "blocked_argmin_distance",
    "blocked_topk",
    "cosine_distances",
    "euclidean_distances",
    "iter_blocks",
    "pairwise_distances",
]

VALID_METRICS = ("euclidean", "cosine")

_EPS = 1e-12


def _validate_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DataValidationError(
            f"expected 2-D arrays, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[1]:
        raise DataValidationError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return a, b


def euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact euclidean distance matrix of shape ``(len(a), len(b))``."""
    a, b = _validate_pair(a, b)
    sq_a = np.sum(a * a, axis=1)[:, None]
    sq_b = np.sum(b * b, axis=1)[None, :]
    sq = sq_a + sq_b - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine dissimilarity matrix, ``1 - cos(a_i, b_j)``.

    Zero vectors are treated as maximally dissimilar to everything
    (distance 1), matching the convention of treating an all-zero
    embedding as uninformative.
    """
    a, b = _validate_pair(a, b)
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    safe_a = a / np.maximum(norm_a, _EPS)[:, None]
    safe_b = b / np.maximum(norm_b, _EPS)[:, None]
    sim = safe_a @ safe_b.T
    np.clip(sim, -1.0, 1.0, out=sim)
    sim[norm_a < _EPS, :] = 0.0
    sim[:, norm_b < _EPS] = 0.0
    return 1.0 - sim


_METRIC_FUNCS = {
    "euclidean": euclidean_distances,
    "cosine": cosine_distances,
}


def pairwise_distances(
    a: np.ndarray, b: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Dispatch to the requested metric ("euclidean" or "cosine")."""
    try:
        func = _METRIC_FUNCS[metric]
    except KeyError:
        raise DataValidationError(
            f"unknown metric {metric!r}; expected one of {VALID_METRICS}"
        ) from None
    return func(a, b)


def blocked_topk(
    queries: np.ndarray,
    corpus: np.ndarray,
    k: int,
    metric: str = "euclidean",
    block_size: int = 2048,
    exclude_self: bool = False,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k search, blocked over query rows; returns ``(dist, idx)``.

    The query-by-corpus product is formed at most ``block_size`` query
    rows at a time (fewer when the block would pass the kernel's byte
    budget), the top k selected per row (see
    :meth:`~repro.knn.kernels.DistanceKernel.topk`) and the k winners
    sorted and converted to true distances.  With ``exclude_self=True``
    the queries must BE the corpus (same rows, same order): query
    ``i``'s match against corpus column ``i`` is masked out
    (leave-one-out mode), and a query set of another length raises
    :class:`DataValidationError`.  ``dtype`` selects the compute
    precision (``None`` = ``float64``).
    """
    return make_kernel(metric, corpus, dtype=dtype).topk(
        queries, k, block_size=block_size, exclude_self=exclude_self
    )


def blocked_argmin_distance(
    queries: np.ndarray,
    corpus: np.ndarray,
    metric: str = "euclidean",
    block_size: int = 1024,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest corpus index and distance for each query, block by block.

    Returns ``(indices, distances)`` with one entry per query row.  The
    corpus is scanned in blocks of ``block_size`` rows so memory stays
    bounded by ``len(queries) * block_size`` values.  ``dtype`` selects
    the compute precision (``None`` = ``float64``).
    """
    corpus = np.asarray(corpus)
    if len(corpus) == 0:
        raise DataValidationError("corpus must contain at least one point")
    kernel = make_kernel(metric, queries, dtype=dtype)
    best_idx, best_cmp = kernel.nearest_among(corpus, block_size=block_size)
    return best_idx, kernel.to_distance(best_cmp)
