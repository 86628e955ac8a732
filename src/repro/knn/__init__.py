"""Exact k-nearest-neighbor substrate.

This subpackage is the computational core under every 1NN-based Bayes
error estimate in the paper:

- :mod:`repro.knn.base` — the :class:`KNNIndex` protocol, the shared
  exact search and the vectorized :func:`majority_vote` kernel.
- :mod:`repro.knn.kernels` — the dtype-aware :class:`DistanceKernel`
  subsystem every distance evaluation runs through: bind-once cached
  norms, a configurable float32/float64 compute dtype, and fused
  blocked argmin/top-k primitives.
- :mod:`repro.knn.metrics` — dense euclidean and cosine distance
  matrices, the strict float64 references.
- :mod:`repro.knn.brute_force` — :class:`BruteForceKNN`, the exact kNN
  index every estimator, baseline and monitor constructs directly.
- :mod:`repro.knn.progressive` — a streaming 1NN evaluator that ingests
  training data in batches and maintains the exact test error after
  every batch through the bound kernel's ``nearest_among``; this powers
  the convergence curves and the bandit arms.  Its nearest indices
  also feed :class:`repro.core.incremental.IncrementalState`, which
  makes re-running Snoopy after label cleaning an O(test) operation
  (Section V of the paper: cleaning labels never moves a nearest
  neighbor).
"""

from repro.knn.base import KNNIndex, majority_vote
from repro.knn.brute_force import BruteForceKNN
from repro.knn.kernels import (
    DEFAULT_COMPUTE_DTYPE,
    VALID_COMPUTE_DTYPES,
    CosineKernel,
    DistanceKernel,
    EuclideanKernel,
    make_kernel,
    resolve_dtype,
)
from repro.knn.metrics import cosine_distances, euclidean_distances
from repro.knn.progressive import CurvePoint, ProgressiveOneNN

__all__ = [
    "DEFAULT_COMPUTE_DTYPE",
    "VALID_COMPUTE_DTYPES",
    "BruteForceKNN",
    "CosineKernel",
    "CurvePoint",
    "DistanceKernel",
    "EuclideanKernel",
    "KNNIndex",
    "ProgressiveOneNN",
    "cosine_distances",
    "euclidean_distances",
    "majority_vote",
    "make_kernel",
    "resolve_dtype",
]
