"""Dense pairwise distance matrices, the strict ``float64`` references.

:func:`euclidean_distances` and :func:`cosine_distances` form the whole
query-by-corpus matrix at once.  The KDE and GHP estimators call the
first; every search runs through :mod:`repro.knn.kernels` instead,
which blocks the product and never materializes a full matrix.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError

__all__ = ["cosine_distances", "euclidean_distances"]

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
