"""Round scheduling: one round's independent arm pulls, serial or threaded.

Successive halving's rounds (and uniform/full allocation trivially) are
embarrassingly parallel across surviving arms: within a round every arm
pulls to the same cumulative sample target using only its own state, and
the tangent variant's elimination threshold is fixed *before* any
candidate is pulled.  The :class:`RoundScheduler` runs exactly those
independent per-arm pull plans, either in a loop or on a thread pool,
and keeps results bit-exact across the two:

- each arm's pull sequence depends only on its own state and the round
  target, never on sibling progress, and draws no randomness;
- results are returned in the caller-supplied arm order, so sorting,
  tie-breaking and winner selection see the same sequence regardless of
  completion order.

Backends (:data:`EXECUTION_BACKENDS`):

``serial``
    Plain loop; the reference semantics and the default.
``thread``
    A lazily built :class:`~concurrent.futures.ThreadPoolExecutor`;
    numpy releases the GIL inside BLAS kernels, so distance blocks and
    embedding matmuls of different arms overlap.  Arms share the
    :class:`~repro.transforms.store.EmbeddingStore` in-process.  It pays
    off only when BLAS itself runs one thread per call
    (``OPENBLAS_NUM_THREADS=1``); with multi-threaded BLAS the two pools
    oversubscribe the cores and ``serial`` is faster.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import DataValidationError

#: Accepted values of ``SnoopyConfig.execution_backend``.
EXECUTION_BACKENDS = ("serial", "thread")


def default_max_workers() -> int:
    """Worker default: the cores this process may actually run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class RoundScheduler:
    """Runs one round's per-arm pull plans; results in arm order.

    The scheduler is deliberately dumb: it never decides *what* to pull
    — allocation strategies do — only invokes one arm method per arm,
    in a loop (``serial``) or on a thread pool (``thread``, built on
    first use and only when more than one arm pulls).
    """

    def __init__(self, backend: str = "serial", max_workers: int | None = None):
        if backend not in EXECUTION_BACKENDS:
            raise DataValidationError(
                f"unknown execution backend {backend!r}; "
                f"expected one of {EXECUTION_BACKENDS}"
            )
        if max_workers is not None and max_workers < 1:
            raise DataValidationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.backend = backend
        self.max_workers = max_workers or default_max_workers()
        self._pool: ThreadPoolExecutor | None = None

    def run(self, arms: Sequence, method: str, **kwargs) -> list:
        """Invoke ``arm.<method>(**kwargs)`` on every arm; ordered results."""
        if self.backend == "serial" or len(arms) <= 1:
            return [getattr(arm, method)(**kwargs) for arm in arms]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return list(
            self._pool.map(lambda arm: getattr(arm, method)(**kwargs), arms)
        )

    def pull_to(self, arms: Sequence, target: int, pull_size: int) -> list:
        """Pull every arm to ``target`` cumulative samples."""
        return self.run(arms, "pull_to", target=target, pull_size=pull_size)

    def pull_with_tangent(
        self, arms: Sequence, target: int, pull_size: int, threshold: float
    ) -> list[bool]:
        """Algorithm 2 candidate pulls; returns per-arm survival flags."""
        return self.run(
            arms,
            "pull_with_tangent",
            target=target,
            pull_size=pull_size,
            threshold=threshold,
        )

    def exhaust(self, arms: Sequence, pull_size: int = 512) -> list:
        """Feed every arm its entire remaining training pool."""
        return self.run(arms, "exhaust", pull_size=pull_size)

    def close(self) -> None:
        """Shut down the thread pool, if one was built; idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
