"""Exact k-nearest-neighbor substrate.

This subpackage is the computational core under every 1NN-based Bayes
error estimate in the paper:

- :mod:`repro.knn.base` — the :class:`KNNIndex` protocol all backends
  implement, the :func:`make_index` factory that makes them swappable,
  and the shared vectorized :func:`majority_vote` kernel.
- :mod:`repro.knn.kernels` — the dtype-aware :class:`DistanceKernel`
  subsystem every distance evaluation runs through: bind-once cached
  norms, a configurable float32/float64 compute dtype, and fused
  blocked argmin/top-k primitives.
- :mod:`repro.knn.metrics` — blocked pairwise distances (euclidean/cosine)
  and the shared blocked top-k search.
- :mod:`repro.knn.brute_force` — an exact kNN index with prediction and
  test-error helpers (backend "brute_force").
- :mod:`repro.knn.progressive` — a streaming 1NN evaluator that ingests
  training data in batches and maintains the exact test error after
  every batch through the bound kernel's ``nearest_among``; this powers
  the convergence curves and the bandit arms.
- :mod:`repro.knn.incremental` — the append-only exact index (backend
  "incremental") and the neighbor cache that makes re-running Snoopy
  after label cleaning an O(test) operation (Section V of the paper:
  cleaning labels never moves a nearest neighbor).
- :mod:`repro.knn.kmeans` / :mod:`repro.knn.ivf` — the coarse quantizer
  and inverted-file index (backend "ivf") behind the accelerator-style
  approximate search the paper cites for scaling; its search paths are
  fully vectorized.
"""

from repro.knn.base import (
    KNNIndex,
    available_backends,
    majority_vote,
    make_index,
)
from repro.knn.brute_force import BruteForceKNN
from repro.knn.incremental import IncrementalKNNIndex, NeighborCache
from repro.knn.ivf import IVFFlatIndex
from repro.knn.kernels import (
    DEFAULT_COMPUTE_DTYPE,
    VALID_COMPUTE_DTYPES,
    CosineKernel,
    DistanceKernel,
    EuclideanKernel,
    make_kernel,
    resolve_dtype,
)
from repro.knn.kmeans import KMeans
from repro.knn.metrics import (
    blocked_argmin_distance,
    blocked_topk,
    cosine_distances,
    euclidean_distances,
    pairwise_distances,
)
from repro.knn.progressive import CurvePoint, ProgressiveOneNN

__all__ = [
    "DEFAULT_COMPUTE_DTYPE",
    "VALID_COMPUTE_DTYPES",
    "BruteForceKNN",
    "CosineKernel",
    "CurvePoint",
    "DistanceKernel",
    "EuclideanKernel",
    "IVFFlatIndex",
    "IncrementalKNNIndex",
    "KMeans",
    "KNNIndex",
    "NeighborCache",
    "ProgressiveOneNN",
    "available_backends",
    "blocked_argmin_distance",
    "blocked_topk",
    "cosine_distances",
    "euclidean_distances",
    "majority_vote",
    "make_index",
    "make_kernel",
    "pairwise_distances",
    "resolve_dtype",
]
