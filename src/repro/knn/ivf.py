"""IVF-Flat: inverted-file approximate nearest neighbor search.

The paper's streaming formulation is "inspired by ideas for efficient
implementation of the nearest-neighbor search on hardware accelerators"
(Johnson et al., billion-scale similarity search).  The workhorse of
that line of systems is the IVF-Flat index: partition the corpus with a
coarse k-means quantizer, then search only the ``nprobe`` closest
partitions for each query.

Exactness degrades gracefully with ``nprobe``; at ``nprobe == nlist``
the index is exactly brute force.  The library's default estimators use
exact search (the datasets are small); this index exists for the
scalability path and is validated against brute force in the tests and
benchmarked for the recall/speed trade-off.

Search is fully vectorized: queries are grouped by probe depth, then
batched by probe-cluster group — every partition is scanned with one
dense BLAS distance block against its contiguous (list-major) vector
slice, scattered into a padded per-query candidate matrix, and top-k
selection takes ``k`` argmin passes.  There is no per-query Python loop
anywhere on the hot path (see ``benchmarks/test_knn_hot_paths.py`` for
the measured speedup over the historical per-query implementation).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.base import KNNIndex, register_backend
from repro.knn.kernels import _select, iter_blocks, make_kernel, resolve_dtype
from repro.knn.kmeans import KMeans
from repro.rng import SeedLike

#: Upper bound on the number of compute-dtype entries a per-cluster
#: distance block may hold; query groups are chunked to stay under it
#: (~64 MiB at float64, ~32 MiB at float32).
_GATHER_BUDGET = 8_000_000


def _keep_smallest_sq(
    sq: np.ndarray, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``keep`` smallest of a squared-distance block.

    Every column when the list is no larger than ``keep``; otherwise
    ``keep`` argmin passes (the kernels' selection), which fill ``sq``
    with inf in place.
    """
    size = sq.shape[1]
    if keep >= size:
        return np.broadcast_to(np.arange(size), sq.shape), sq
    local_sq = np.empty((len(sq), keep), dtype=sq.dtype)
    return _select(sq, keep, largest=False, values=local_sq), local_sq


def _select_pool_topk(
    est: np.ndarray, idx: np.ndarray, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``keep`` of a candidate pool under (est, index) order.

    Primary key estimate, secondary key member index — a strict total
    order over real candidates (indexes are unique within a query's
    pool), so the result is independent of how the pool columns were
    arranged and exact duplicates resolve to the lower corpus index.
    Unfilled slots (``est=inf``, ``idx=-1``) sort last.
    """
    order = np.lexsort((idx, est), axis=1)[:, :keep]
    return (
        np.take_along_axis(est, order, axis=1),
        np.take_along_axis(idx, order, axis=1),
    )


@register_backend("ivf")
class IVFFlatIndex(KNNIndex):
    """Approximate kNN via an inverted file over a k-means quantizer.

    Parameters
    ----------
    nlist:
        Number of coarse partitions (k-means clusters).  ``fit`` clamps
        it to the corpus size and persists the effective value.
    nprobe:
        Number of closest partitions scanned per query.
    seed:
        Seeds the quantizer training.
    block_size:
        Upper bound on the query rows per distance block on the
        full-scan path (``nprobe == nlist``), which blocks exactly like
        the brute-force index.
    dtype:
        Compute dtype for all distance arithmetic ("float32" or
        "float64"); ``None`` (default) keeps the strict ``float64``
        path.  The corpus, its list-major copy and the cached
        per-cluster squared norms are all held in this dtype, so the
        float32 mode also halves the index's memory footprint.
    """

    def __init__(
        self,
        nlist: int = 16,
        nprobe: int = 4,
        seed: SeedLike = 0,
        block_size: int = 2048,
        dtype=None,
    ):
        if nlist < 1:
            raise DataValidationError("nlist must be >= 1")
        if nprobe < 1:
            raise DataValidationError("nprobe must be >= 1")
        self._requested_nlist = nlist
        self._requested_nprobe = min(nprobe, nlist)
        self.nlist = nlist
        self.nprobe = self._requested_nprobe
        self.block_size = block_size
        self.dtype = dtype
        self._dtype = resolve_dtype(dtype)
        self._seed = seed
        self._quantizer: KMeans | None = None
        self._lists: list[np.ndarray] | None = None  # member indices
        self._members: np.ndarray | None = None  # corpus ids, list-major
        self._list_sizes: np.ndarray | None = None
        self._list_starts: np.ndarray | None = None  # offsets into _members
        self._x_by_list: np.ndarray | None = None  # corpus rows, list-major
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._corpus_kernel = None  # full-scan path, corpus norms cached
        self._centroid_kernel = None  # probe ordering, centroid norms cached

    @property
    def num_fitted(self) -> int:
        return 0 if self._x is None else len(self._x)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "IVFFlatIndex":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2:
            raise DataValidationError("x must be 2-D")
        if len(x) != len(y):
            raise DataValidationError("x and y length mismatch")
        if len(x) == 0:
            raise DataValidationError("cannot fit an empty corpus")
        # Persist the effective partition count: post-fit introspection
        # and the probe-widening bound must agree with the lists that
        # actually exist, not the requested ones.  Clamping starts from
        # the *configured* values so a refit on a larger corpus regains
        # the full requested partition count.
        self.nlist = min(self._requested_nlist, len(x))
        self.nprobe = min(self._requested_nprobe, self.nlist)
        self._quantizer = KMeans(
            self.nlist, seed=self._seed, dtype=self.dtype
        ).fit(x)
        assignment = self._quantizer.predict(x)
        self._lists = [
            np.flatnonzero(assignment == cluster)
            for cluster in range(self.nlist)
        ]
        self._list_sizes = np.array(
            [len(members) for members in self._lists], dtype=np.int64
        )
        self._members = np.concatenate(self._lists)
        self._list_starts = np.concatenate(
            ([0], np.cumsum(self._list_sizes[:-1]))
        )
        # The corpus and all derived state live in the compute dtype.
        # The corpus kernel (full-scan path) caches the corpus norms
        # once; the list-major copy reuses them, permuted, so each
        # partition's vectors AND norms are contiguous slices and
        # per-cluster distance blocks need no gather.
        self._x = np.asarray(x, dtype=self._dtype)
        self._corpus_kernel = make_kernel(
            "euclidean", self._x, dtype=self.dtype
        )
        self._x_by_list = self._x[self._members]
        self._sq_by_list = self._corpus_kernel.bound_norms_sq[self._members]
        self._centroid_kernel = make_kernel(
            "euclidean", self._quantizer.centroids, dtype=self.dtype
        )
        self._y = y
        return self

    def kneighbors(
        self, queries: np.ndarray, k: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate ``(distances, indices)`` of the k nearest points.

        When fewer than ``k`` candidates fall in the probed partitions,
        the probe set is widened for those queries, so the result always
        contains ``k`` valid entries.
        """
        if self._quantizer is None or self._x is None:
            raise DataValidationError("index is not fitted")
        queries = np.asarray(queries, dtype=self._dtype)
        if queries.ndim != 2:
            raise DataValidationError("queries must be 2-D")
        if k < 1:
            raise DataValidationError(f"k must be >= 1, got {k}")
        if k > len(self._x):
            raise DataValidationError(
                f"k={k} exceeds corpus size {len(self._x)}"
            )
        n = len(queries)
        out_dist = np.empty((n, k))
        out_idx = np.empty((n, k), dtype=np.int64)
        if n == 0:
            return out_dist, out_idx
        # Query-side squared norms, computed once and reused by every
        # probe-depth group below (the centroid kernel holds the
        # centroid-side norms across calls).
        query_sq = np.sum(queries * queries, axis=1)
        centroid_cmp = self._centroid_kernel.comparable_from(
            queries, state=query_sq
        )
        probe_order = np.argsort(centroid_cmp, axis=1)
        # Cumulative candidate counts along each query's probe order give
        # the vectorized probe-widening rule: probe the configured
        # nprobe partitions, or as many more as it takes to reach k
        # candidates (the total over all partitions is the corpus, so a
        # sufficient depth always exists).
        counts = np.cumsum(self._list_sizes[probe_order], axis=1)
        depth = np.maximum(self.nprobe, 1 + np.argmax(counts >= k, axis=1))
        for probes in np.unique(depth):
            rows = np.flatnonzero(depth == probes)
            if probes == self.nlist:
                # Full scan: every partition probed — identical to brute
                # force, including tie behavior (same kernel computation
                # as the brute-force backend).
                dist, idx = self._corpus_kernel.topk(
                    queries[rows], k, block_size=self.block_size
                )
            else:
                dist, idx = self._search_probed(
                    queries[rows],
                    query_sq[rows],
                    probe_order[rows, :probes],
                    k,
                )
            out_dist[rows] = dist
            out_idx[rows] = idx
        return out_dist, out_idx

    def _search_probed(
        self,
        queries: np.ndarray,
        query_sq: np.ndarray,
        probe_clusters: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k among each query's probed partitions, no Python per query.

        ``probe_clusters`` is ``(g, p)`` cluster ids; the caller's depth
        rule guarantees each query's probed partitions hold at least
        ``k`` candidates.  Queries are chunked so a per-cluster distance
        block stays within the memory budget; within a chunk every
        partition is scanned with one dense distance block and its k
        best entries land in that query's slots of a ``(b, p * k)``
        semifinal pool.
        """
        g, _ = queries.shape
        p = probe_clusters.shape[1]
        out_dist = np.empty((g, k))
        out_idx = np.empty((g, k), dtype=np.int64)
        two = self._dtype.type(2.0)
        # Both the per-cluster distance blocks (chunk x max_size) and the
        # semifinal pools (chunk x p*k) must fit the budget.
        max_size = int(self._list_sizes.max())
        chunk = max(1, min(g, _GATHER_BUDGET // max(1, max_size, p * k)))
        for block in iter_blocks(g, chunk):
            b = block.stop - block.start
            clusters = probe_clusters[block]  # (b, p)
            q = queries[block]
            q_sq = query_sq[block]
            # Per-query semifinal pools: the k best of each probed
            # partition (p * k slots, inf-padded) are enough to contain
            # the global top k.  Squared distances throughout; the
            # monotone sqrt is applied to the k winners only.
            pool_dist = np.full((b, p * k), np.inf, dtype=self._dtype)
            pool_idx = np.full((b, p * k), -1, dtype=np.int64)
            # Cluster-major batching: every (query, probed-cluster) pair,
            # regrouped by cluster, so each partition is scanned with ONE
            # dense distance block against its contiguous vector slice.
            flat_clusters = clusters.ravel()
            flat_rows = np.repeat(np.arange(b), p)
            flat_slots = np.tile(np.arange(p) * k, b)
            by_cluster = np.argsort(flat_clusters, kind="stable")
            boundaries = np.flatnonzero(
                np.diff(flat_clusters[by_cluster])
            ) + 1
            for segment in np.split(by_cluster, boundaries):
                cluster = int(flat_clusters[segment[0]])
                size = int(self._list_sizes[cluster])
                if size == 0:
                    continue
                start = int(self._list_starts[cluster])
                rows = flat_rows[segment]
                sq = (
                    q_sq[rows][:, None]
                    + self._sq_by_list[None, start : start + size]
                    - two * (q[rows] @ self._x_by_list[start : start + size].T)
                )
                keep = min(k, size)
                local, local_sq = _keep_smallest_sq(sq, keep)
                slots = flat_slots[segment][:, None] + np.arange(keep)
                pool_dist[rows[:, None], slots] = local_sq
                pool_idx[rows[:, None], slots] = self._members[start + local]
            # Final selection under the (distance, index) total order, so
            # exact duplicates tie-break deterministically to the lower
            # corpus index.
            top_sq, top_idx = _select_pool_topk(pool_dist, pool_idx, k)
            np.maximum(top_sq, self._dtype.type(0.0), out=top_sq)
            out_dist[block] = np.sqrt(top_sq, dtype=np.float64)
            out_idx[block] = top_idx
        return out_dist, out_idx

    def recall_against_exact(
        self, queries: np.ndarray, exact_indices: np.ndarray, k: int = 1
    ) -> float:
        """Fraction of exact k-nearest neighbors recovered by this index."""
        _, approx = self.kneighbors(queries, k=k)
        exact_indices = np.asarray(exact_indices)
        if exact_indices.ndim == 1:
            exact_indices = exact_indices[:, None]
        hits = np.sum(approx[:, :, None] == exact_indices[:, None, :])
        return float(hits) / (len(queries) * k)

