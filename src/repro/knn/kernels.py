"""Dtype-aware distance kernels: bind-once norms, fused blocked search.

Every exact distance evaluation in the library ultimately reduces to one
of two shapes: *stream* (a fixed query set compared against batch after
batch of corpus rows — the progressive 1NN evaluator) or *search* (a
fixed corpus probed by changing query sets — the kNN index).  In both
shapes one side of the computation is bound for thousands of calls while
the other side changes, yet the historical code paths recomputed the
bound side's squared norms (euclidean) or row normalization (cosine)
from scratch on every call, and forced ``float64`` end to end.

A :class:`DistanceKernel` removes both costs, the two tricks production
ANN engines (FAISS-style systems cited by the paper) get most of their
throughput from:

- **Bind once.**  The kernel is constructed around the long-lived side
  ("bound" rows).  Euclidean kernels cache the bound squared norms;
  cosine kernels cache the pre-normalized bound rows.  Every subsequent
  call pays only for the changing side.
- **Configurable compute dtype.**  All distance arithmetic runs in a
  configurable dtype — ``float32`` (:data:`DEFAULT_COMPUTE_DTYPE`, the
  recommended single-precision BLAS path, ~2x arithmetic and half the
  memory traffic) or ``float64`` (strict mode, bit-compatible with the
  historical paths).  Outputs (distances) are returned as ``float64``
  regardless, so downstream reporting is dtype-stable.
- **Fused blocked primitives.**  :meth:`DistanceKernel.nearest_among`
  and :meth:`DistanceKernel.topk` block the scan, so a full
  query-by-corpus distance matrix is never materialized.  Each block is
  one GEMM and one selection pass:

  1. The GEMM runs with the changing side pre-scaled by ``-2`` for
     euclidean (a power of two, so the product is exactly ``-2ab``) or
     on pre-normalized rows for cosine.  The block product is the only
     block-sized buffer; :meth:`~DistanceKernel.topk`, whose blocks
     span the whole bound corpus, caps it at :data:`_BLOCK_BYTES` by
     taking fewer query rows per block.
  2. One pass over row chunks of the product, each small enough to stay
     in cache (:data:`_CHUNK_BYTES`), forms the selection key and picks
     the winners: euclidean adds the column-side squared norms and
     takes the smallest ``|b|^2 - 2ab``; cosine takes the largest
     similarity as it is.  The row-side constant ``|a|^2`` and the clamp
     at zero cannot reorder a row, so they are left out.  The ``k``
     winners come from ``k`` ``argmin``/``argmax`` passes over the key,
     each pass masking the previous pass's winner.
  3. Only the winners' comparables are computed, with the full formula
     (``|a|^2 + |b|^2 - 2ab`` clamped at zero, or ``1 - clip(cos)``)
     from the kept GEMM entries, so returned values are bit-identical to
     the unfused expansion.  The monotone ``sqrt`` of the euclidean
     metric is likewise applied to the winners only.

  Winners can differ from the unfused expansion only between candidates
  whose comparables lie within one rounding step of each other.  Exact
  ties go to the earliest row: :meth:`~DistanceKernel.nearest_among`
  and :meth:`~DistanceKernel.topk` select with ``argmin``/``argmax``,
  which return the first extremum, so a tie at the ``k``-th place goes
  to the earliest column too.

Internally the kernels compare *comparable* values — squared distances
for euclidean, the dissimilarity itself for cosine — which order
identically to true distances.  :meth:`DistanceKernel.to_distance`
converts at the boundary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.exceptions import DataValidationError

#: Compute dtypes a kernel accepts.
VALID_COMPUTE_DTYPES = ("float32", "float64")

#: The recommended compute dtype for throughput-critical paths.  System
#: entry points (``SnoopyConfig``, the CLI) default to this; the
#: low-level index and evaluator default to strict ``float64`` so their
#: historical results are preserved unless a caller opts in.
DEFAULT_COMPUTE_DTYPE = "float32"

_EPS = 1e-12

#: Byte budget of one row chunk of a block's GEMM product in the
#: selection pass, and of the per-call scratch the euclidean key is
#: written to: small enough that a chunk stays in cache between forming
#: its key, selecting on it and gathering the winners.
_CHUNK_BYTES = 512 * 1024

#: Byte budget of one block of :meth:`DistanceKernel.topk`'s GEMM
#: product.  Its blocks are query rows against the whole bound corpus,
#: so a large corpus gets fewer rows per block, not a larger buffer.
_BLOCK_BYTES = 16 * 1024 * 1024


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a compute-dtype spec; ``None`` means strict ``float64``."""
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved is None or resolved.name not in VALID_COMPUTE_DTYPES:
        raise DataValidationError(
            f"unsupported compute dtype {dtype!r}; "
            f"expected one of {VALID_COMPUTE_DTYPES}"
        )
    return resolved


def iter_blocks(total: int, block_size: int) -> Iterator[slice]:
    """Yield contiguous slices covering ``range(total)`` in blocks."""
    if block_size <= 0:
        raise DataValidationError(f"block_size must be positive, got {block_size}")
    for start in range(0, total, block_size):
        yield slice(start, min(start + block_size, total))


class DistanceKernel(ABC):
    """A distance metric bound to a fixed row set, in a compute dtype.

    Parameters
    ----------
    bound:
        The long-lived side of the computation, shape ``(n, d)``.  For a
        streaming evaluator this is the query/test set; for a search
        index it is the corpus.  Cast once to the compute dtype; the
        metric-specific per-row state (squared norms, normalized rows)
        is cached for the kernel's lifetime.
    dtype:
        Compute dtype: "float32", "float64", or ``None`` for strict
        ``float64``.
    """

    #: Metric name, set by subclasses ("euclidean" / "cosine").
    metric: str = ""

    def __init__(self, bound: np.ndarray, dtype=None):
        self._dtype = resolve_dtype(dtype)
        bound = np.asarray(bound, dtype=self._dtype)
        if bound.ndim != 2:
            raise DataValidationError(
                f"bound rows must be 2-D, got shape {bound.shape}"
            )
        self._bound = bound
        self._bound_state = self._state(bound)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bound(self) -> np.ndarray:
        """The bound rows, in the compute dtype."""
        return self._bound

    @property
    def compute_dtype(self) -> np.dtype:
        return self._dtype

    @property
    def num_bound(self) -> int:
        return len(self._bound)

    @property
    def dim(self) -> int:
        return self._bound.shape[1]

    # ------------------------------------------------------------------
    # Metric-specific internals
    # ------------------------------------------------------------------

    @abstractmethod
    def _state(self, rows: np.ndarray):
        """Per-row cached state (norms / normalized rows) for ``rows``."""

    @abstractmethod
    def _cross(self, a, a_state, b, b_state) -> np.ndarray:
        """Comparable-distance matrix of shape ``(len(a), len(b))``.

        "Comparable" means monotone in the true distance: squared
        euclidean distance, or the cosine dissimilarity itself.
        """

    #: Whether the selection key of :meth:`_select_key` is maximized
    #: (cosine similarity) rather than minimized (euclidean).
    _largest: bool = False

    @abstractmethod
    def _operands(self, other, other_state) -> tuple[np.ndarray, np.ndarray]:
        """The GEMM operands ``(bound side, other side)`` of a block.

        The other side is the one that changes between calls, so any
        scaling of the product is applied to it.
        """

    @abstractmethod
    def _select_key(self, product, row_state, col_state, out) -> np.ndarray:
        """Selection key of a row chunk of a block's GEMM ``product``.

        Ranks each row's columns as the comparables do, up to rounding:
        ascending, or descending if :attr:`_largest`.  It may be written
        to ``out``, a scratch array of the chunk's shape.  ``row_state``
        is the chunk rows' state, ``col_state`` the whole block's column
        state.
        """

    @abstractmethod
    def _comparables(self, entries, row_state, col_state, idx) -> np.ndarray:
        """Exact comparables of the winners ``idx`` of each product row.

        ``entries`` are the winners' GEMM entries, gathered from the
        product after :meth:`_select_key` saw it; the arithmetic is
        :meth:`_cross`'s, so the values are bit-identical to it.
        """

    @abstractmethod
    def to_distance(self, comparable: np.ndarray) -> np.ndarray:
        """Map comparable values to true distances (new float64 array)."""

    def _cast_other(self, other: np.ndarray) -> np.ndarray:
        other = np.asarray(other, dtype=self._dtype)
        self._check_rows(other)
        return other

    def _check_rows(self, rows: np.ndarray) -> None:
        if rows.ndim != 2:
            raise DataValidationError(
                f"expected 2-D rows, got shape {rows.shape}"
            )
        if rows.shape[1] != self.dim:
            raise DataValidationError(
                f"dimension mismatch: {rows.shape[1]} vs {self.dim}"
            )

    # ------------------------------------------------------------------
    # Fused blocked primitives
    # ------------------------------------------------------------------

    def comparable_from(self, queries: np.ndarray) -> np.ndarray:
        """Full comparable matrix ``(len(queries), num_bound)``.

        The dense reference for small row sets; the blocked primitives
        below are the memory-bounded paths.
        """
        queries = self._cast_other(queries)
        return self._cross(
            queries, self._state(queries), self._bound, self._bound_state
        )

    def nearest_among(
        self, other: np.ndarray, block_size: int = 2048
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per bound row, the nearest row of ``other``: ``(idx, comparable)``.

        ``other`` is scanned in blocks of ``block_size`` rows, so memory
        stays bounded by ``num_bound * block_size`` values.  Ties are
        broken toward the earliest ``other`` row (the first extremum
        within a block, strict improvement across blocks), matching the
        historical blocked-argmin semantics.
        """
        other = self._cast_other(other)
        if len(other) == 0:
            raise DataValidationError("other must contain at least one row")
        state = self._state(other)
        bound_rows, other_rows = self._operands(other, state)
        best_cmp = np.full(self.num_bound, np.inf, dtype=self._dtype)
        best_idx = np.zeros(self.num_bound, dtype=np.int64)
        for block in iter_blocks(len(other), block_size):
            local, local_cmp = self._winners(
                bound_rows @ other_rows[block].T,
                self._bound_state,
                _slice_state(state, block),
                k=1,
            )
            local, local_cmp = local[:, 0], local_cmp[:, 0]
            improved = local_cmp < best_cmp
            best_cmp[improved] = local_cmp[improved]
            best_idx[improved] = local[improved] + block.start
        return best_idx, best_cmp

    def _winners(
        self, product, row_state, col_state, k: int, self_offset=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` best columns of each row of a block's GEMM product.

        Returns ``(idx, comparable)``, each ``(rows, k)`` and not sorted
        along a row for ``k > 1``.  Rows are keyed and selected in
        chunks of at most :data:`_CHUNK_BYTES`, so a block that fits one
        chunk takes a single pass; :func:`_select` sets the tie rule.
        The scratch the key is written to is allocated here, per call,
        never kept, so a bound kernel carries no state between calls.
        With ``self_offset``, row ``i`` never selects column
        ``i + self_offset`` (leave-one-out).
        """
        rows, cols = product.shape
        chunk = max(1, _CHUNK_BYTES // (cols * product.itemsize))
        scratch = np.empty((min(rows, chunk), cols), dtype=product.dtype)
        worst = -np.inf if self._largest else np.inf
        idx = np.empty((rows, k), dtype=np.int64)
        for start in range(0, rows, chunk):
            part = slice(start, min(start + chunk, rows))
            out = scratch[: part.stop - start]
            key = self._select_key(
                product[part], _slice_state(row_state, part), col_state, out
            )
            if k > 1 and key is not out:
                # Pass selection masks winners in the key, and a key
                # that is the product itself (cosine) would lose the
                # entries gathered below.  One argmin/argmax writes
                # nothing, so k = 1 skips the copy.
                np.copyto(out, key)
                key = out
            if self_offset is not None:
                own = np.arange(part.stop - start)
                key[own, own + (start + self_offset)] = worst
            idx[part] = _select(key, k, self._largest)
        entries = np.take_along_axis(product, idx, axis=1)
        return idx, self._comparables(entries, row_state, col_state, idx)

    def topk(
        self,
        queries: np.ndarray,
        k: int,
        block_size: int = 2048,
        exclude_self: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k of the bound corpus per query row: ``(dist, idx)``.

        Blocked over query rows: ``block_size`` is an upper bound, and a
        block holds fewer rows when its GEMM product against the whole
        corpus would pass :data:`_BLOCK_BYTES`.  Each block's queries are
        cast to the compute dtype and prepared on their own (norms or
        unit rows, and the scaled GEMM operand), so besides the outputs
        nothing copies the whole query set.  Within a block the winners
        are selected by :func:`_select`, then sorted by comparable
        value, and only the winners are converted to true distances.
        Exact ties go to the earliest corpus row, the rule
        :meth:`nearest_among` follows.  With ``exclude_self=True`` query
        ``i`` must BE bound row ``i`` and its self-match is masked out
        (leave-one-out mode); a query set of another length raises
        :class:`DataValidationError`.
        """
        queries = np.asarray(queries)
        self._check_rows(queries)
        effective_k = k + 1 if exclude_self else k
        if k < 1:
            raise DataValidationError(f"k must be >= 1, got {k}")
        if effective_k > self.num_bound:
            raise DataValidationError(
                f"k={k} (effective {effective_k}) exceeds corpus size "
                f"{self.num_bound}"
            )
        n = len(queries)
        if exclude_self and n != self.num_bound:
            raise DataValidationError(
                f"exclude_self=True requires the queries to be the bound "
                f"corpus itself, but got {n} queries for a corpus of "
                f"{self.num_bound}"
            )
        rows = min(
            block_size,
            max(1, _BLOCK_BYTES // (self.num_bound * self._dtype.itemsize)),
        )
        all_dist = np.empty((n, k))
        all_idx = np.empty((n, k), dtype=np.int64)
        for block in iter_blocks(n, rows):
            block_queries = np.asarray(queries[block], dtype=self._dtype)
            state = self._state(block_queries)
            bound_rows, query_rows = self._operands(block_queries, state)
            part, part_cmp = self._winners(
                query_rows @ bound_rows.T,
                state,
                self._bound_state,
                k,
                self_offset=block.start if exclude_self else None,
            )
            order = np.argsort(part_cmp, axis=1)
            all_idx[block] = np.take_along_axis(part, order, axis=1)
            all_dist[block] = self.to_distance(
                np.take_along_axis(part_cmp, order, axis=1)
            )
        return all_dist, all_idx


class EuclideanKernel(DistanceKernel):
    """Euclidean distance; comparable values are squared distances."""

    metric = "euclidean"

    def _state(self, rows: np.ndarray) -> np.ndarray:
        # np.sum(rows * rows) — not einsum — so the float64 path is
        # bit-identical to the norms of metrics.euclidean_distances.
        return np.sum(rows * rows, axis=1)

    def _cross(self, a, a_state, b, b_state) -> np.ndarray:
        two = self._dtype.type(2.0)
        sq = a_state[:, None] + b_state[None, :] - two * (a @ b.T)
        np.maximum(sq, self._dtype.type(0.0), out=sq)
        return sq

    def _operands(self, other, other_state):
        # -2 is a power of two, so the product is exactly -2 * (a @ b.T).
        return self._bound, other * self._dtype.type(-2.0)

    def _select_key(self, product, row_state, col_state, out):
        return np.add(product, col_state, out=out)

    def _comparables(self, entries, row_state, col_state, idx):
        # (|a|^2 + |b|^2) + (-2ab): _cross's operations in its order.
        sq = row_state[:, None] + col_state[idx]
        sq += entries
        np.maximum(sq, self._dtype.type(0.0), out=sq)
        return sq

    def to_distance(self, comparable: np.ndarray) -> np.ndarray:
        return np.sqrt(comparable, dtype=np.float64)


class CosineKernel(DistanceKernel):
    """Cosine dissimilarity ``1 - cos``; comparable IS the distance.

    Zero vectors are maximally dissimilar to everything (distance 1),
    matching :func:`repro.knn.metrics.cosine_distances`.
    """

    metric = "cosine"
    _largest = True

    def _state(self, rows: np.ndarray):
        norms = np.linalg.norm(rows, axis=1)
        zero = norms < _EPS
        unit = rows / np.maximum(norms, _EPS)[:, None].astype(self._dtype)
        return unit.astype(self._dtype, copy=False), zero

    def _cross(self, a, a_state, b, b_state) -> np.ndarray:
        a_unit, a_zero = a_state
        b_unit, b_zero = b_state
        sim = a_unit @ b_unit.T
        np.clip(sim, self._dtype.type(-1.0), self._dtype.type(1.0), out=sim)
        sim[a_zero, :] = 0.0
        sim[:, b_zero] = 0.0
        return self._dtype.type(1.0) - sim

    def _operands(self, other, other_state):
        return self._bound_state[0], other_state[0]

    def _select_key(self, product, row_state, col_state, out):
        # Masked before selecting, not after: a row under _EPS norm is
        # at similarity 0 to everything, but its normalized copy is not.
        product[row_state[1]] = 0.0
        product[:, col_state[1]] = 0.0
        return product

    def _comparables(self, entries, row_state, col_state, idx):
        # The zero-row masks are already in the entries (_select_key).
        np.clip(
            entries, self._dtype.type(-1.0), self._dtype.type(1.0), out=entries
        )
        return self._dtype.type(1.0) - entries

    def to_distance(self, comparable: np.ndarray) -> np.ndarray:
        return np.asarray(comparable, dtype=np.float64).copy()


_KERNELS = {
    "euclidean": EuclideanKernel,
    "cosine": CosineKernel,
}


def make_kernel(
    metric: str, bound: np.ndarray, dtype=DEFAULT_COMPUTE_DTYPE
) -> DistanceKernel:
    """Bind ``bound`` rows under ``metric`` in a compute ``dtype``.

    ``dtype`` defaults to :data:`DEFAULT_COMPUTE_DTYPE` (``float32``);
    pass "float64" (or ``None``) for strict mode.
    """
    try:
        cls = _KERNELS[metric]
    except KeyError:
        raise DataValidationError(
            f"unknown metric {metric!r}; expected one of {tuple(_KERNELS)}"
        ) from None
    return cls(bound, dtype=dtype)


def _select(key: np.ndarray, k: int, largest: bool) -> np.ndarray:
    """Columns of the ``k`` best entries of each row of ``key``, best first.

    Takes ``k`` argmin/argmax passes; each pass after the first sets the
    previous pass's winners to the worst value, so ``key`` is
    overwritten when ``k > 1``.  Every pass keeps the first extremum, so
    exact ties go to the earliest column, at the ``k``-th place too.
    """
    best = np.argmax if largest else np.argmin
    worst = -np.inf if largest else np.inf
    rows = np.arange(len(key))
    idx = np.empty((len(key), k), dtype=np.int64)
    for j in range(k):
        if j:
            key[rows, idx[:, j - 1]] = worst
        idx[:, j] = best(key, axis=1)
    return idx


def _slice_state(state, block: slice):
    """Slice per-row state: a norm vector or a (unit-rows, mask) tuple."""
    if isinstance(state, tuple):
        return tuple(part[block] for part in state)
    return state[block]
