"""Streaming 1NN evaluation over a growing training set.

This is the engine behind Snoopy's convergence curves and the bandit
arms of Section V.  A :class:`ProgressiveOneNN` is bound to a fixed test
set; training data arrives in batches via :meth:`partial_fit`, and after
every batch the exact 1NN test error is available in O(1) because the
evaluator maintains, per test point, the distance and label of its
current nearest neighbor.

Feeding batch after batch therefore costs O(batch x test) per step and
reproduces exactly the error the full brute-force computation would give
on the union of all batches seen so far.

The distance evaluation itself is one
:meth:`repro.knn.kernels.DistanceKernel.nearest_among` call per batch,
on a kernel bound to the test set at construction; no training corpus
is ever stored.  The test-side squared norms (euclidean) or normalized
rows (cosine) are computed exactly once, so the thousands of
``partial_fit`` calls of a feasibility study pay only for the batch
side, and the comparison state is kept in *comparable* units (squared
euclidean distance), deferring the ``sqrt`` to the rare callers that
ask for true distances.  ``dtype`` selects the compute precision; the
default ``float64`` reproduces the historical results bit-for-bit
(``TestFloat64LegacyParity`` in ``tests/test_knn_kernels.py`` pins the
error curve to the legacy recompute-everything loop), while
``float32`` halves the bytes each block moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import make_kernel, resolve_dtype


@dataclass(frozen=True)
class CurvePoint:
    """One point of a 1NN convergence curve: error after ``n`` train samples."""

    train_size: int
    error: float


class ProgressiveOneNN:
    """Exact 1NN test error maintained incrementally over training batches.

    Parameters
    ----------
    test_x, test_y:
        The fixed test set (features and integer labels).
    metric:
        Distance metric, "euclidean" or "cosine".
    dtype:
        Compute dtype for the distance arithmetic ("float32" or
        "float64"); ``None`` (default) keeps the strict ``float64``
        path.

    The evaluator binds ``test_x`` itself when it is a C-contiguous
    array already in the compute dtype and read-only along its whole
    ``.base`` chain, such as an
    :class:`~repro.transforms.store.EmbeddingStore` run, so an arm and
    the store hold one copy of the embedded test set.  Such an array
    must stay read-only: numpy lets the owner of an array switch writes
    back on, so a caller that may do that passes a copy.  Any other
    ``test_x`` is copied once, cast straight to the compute dtype, and
    later writes to it never change the errors.  ``test_y`` is always
    copied.
    """

    def __init__(
        self,
        test_x: np.ndarray,
        test_y: np.ndarray,
        metric: str = "euclidean",
        dtype=None,
    ):
        # Bind test_x itself only if it is read-only all the way down.
        compute = resolve_dtype(dtype)
        if not (
            isinstance(test_x, np.ndarray)
            and test_x.dtype == compute
            and test_x.flags.c_contiguous
            and _frozen(test_x)
        ):
            test_x = np.array(test_x, dtype=compute, order="C")
        test_y = np.array(test_y, dtype=np.int64)
        if test_x.ndim != 2:
            raise DataValidationError(f"test_x must be 2-D, got {test_x.shape}")
        if len(test_x) != len(test_y):
            raise DataValidationError(
                f"test_x and test_y length mismatch: {len(test_x)} vs {len(test_y)}"
            )
        if len(test_x) == 0:
            raise DataValidationError("test set must not be empty")
        self.metric = metric
        self.dtype = dtype
        self._kernel = make_kernel(metric, test_x, dtype=dtype)
        self._test_x = self._kernel.bound
        self._test_y = test_y
        # Nearest-neighbor state in *comparable* units (squared
        # distances for euclidean); true distances are derived on demand.
        self._nn_cmp = np.full(
            len(test_x), np.inf, dtype=self._kernel.compute_dtype
        )
        self._nn_label = np.full(len(test_x), -1, dtype=np.int64)
        self._nn_index = np.full(len(test_x), -1, dtype=np.int64)
        self._train_seen = 0
        self.curve: list[CurvePoint] = []

    @property
    def test_size(self) -> int:
        return len(self._test_x)

    @property
    def train_seen(self) -> int:
        """Total number of training samples ingested so far."""
        return self._train_seen

    @property
    def nearest_labels(self) -> np.ndarray:
        """Current nearest-neighbor label per test point (copy)."""
        return self._nn_label.copy()

    @property
    def nearest_indices(self) -> np.ndarray:
        """Global train index of each test point's nearest neighbor (copy)."""
        return self._nn_index.copy()

    @property
    def nearest_distances(self) -> np.ndarray:
        """Current nearest-neighbor distance per test point (float64)."""
        return self._kernel.to_distance(self._nn_cmp)

    def partial_fit(self, batch_x: np.ndarray, batch_y: np.ndarray) -> float:
        """Ingest one training batch and return the updated 1NN test error."""
        # Cast once, straight to the compute dtype: a float32 store chunk
        # reaches a float32 kernel without a float64 round-trip.
        batch_x = np.asarray(batch_x, dtype=self._kernel.compute_dtype)
        batch_y = np.asarray(batch_y, dtype=np.int64)
        if len(batch_x) != len(batch_y):
            raise DataValidationError(
                f"batch_x and batch_y length mismatch: "
                f"{len(batch_x)} vs {len(batch_y)}"
            )
        if len(batch_x) > 0:
            local, local_cmp = self._kernel.nearest_among(batch_x)
            improved = local_cmp < self._nn_cmp
            winners = local[improved]
            self._nn_cmp[improved] = local_cmp[improved]
            self._nn_label[improved] = batch_y[winners]
            self._nn_index[improved] = winners + self._train_seen
            self._train_seen += len(batch_x)
        err = self.error()
        self.curve.append(CurvePoint(self._train_seen, err))
        return err

    def error(self) -> float:
        """Current exact 1NN test error over all batches seen so far."""
        if self._train_seen == 0:
            raise DataValidationError("no training data ingested yet")
        return float(np.mean(self._nn_label != self._test_y))

    def curve_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the recorded convergence curve as ``(sizes, errors)`` arrays."""
        if not self.curve:
            return np.array([], dtype=np.int64), np.array([])
        sizes = np.array([p.train_size for p in self.curve], dtype=np.int64)
        errors = np.array([p.error for p in self.curve])
        return sizes, errors


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` is read-only all the way down.

    True when ``array`` and every array along its ``.base`` chain are
    read-only, and the chain ends at an array that owns its memory or at
    an immutable ``bytes`` buffer (a spill-tier read).  The owner of an
    array can still switch its writes back on; see the class docstring.
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None or isinstance(array, bytes)
