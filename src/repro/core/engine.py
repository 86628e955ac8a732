"""Staged execution engine: pluggable parallel backends for arm pulls.

Successive halving's rounds (and uniform/full allocation trivially) are
embarrassingly parallel across surviving arms: within a round every arm
pulls to the same cumulative sample target using only its own state, and
the tangent variant's elimination threshold is fixed *before* any
candidate is pulled.  The :class:`RoundScheduler` exploits exactly that
structure — independent per-arm pull plans issued through a pluggable
:class:`ExecutionBackend` — while preserving bit-exact results versus
serial execution:

- each arm's pull sequence depends only on its own state and the round
  target, never on sibling progress — pulls are fully deterministic
  today, and any future stochastic step must draw from the arm's own
  pre-spawned stream (:func:`spawn_arm_streams`) so the guarantee
  survives by construction;
- results are reduced in the caller-supplied arm order, so sorting,
  tie-breaking and winner selection see the same sequence regardless of
  completion order.

Backends:

``serial``
    Plain loop; the reference semantics.
``thread``
    :class:`~concurrent.futures.ThreadPoolExecutor`; numpy releases the
    GIL inside BLAS kernels, so distance blocks and embedding matmuls of
    different arms overlap on multi-core hosts.  Shares the
    :class:`~repro.transforms.store.EmbeddingStore` in-process.
``process``
    :class:`~concurrent.futures.ProcessPoolExecutor`; arms are pickled
    to workers, mutated there, and their state is merged back by
    identity-preserving ``__dict__`` replacement.  When a
    sharing-enabled :class:`~repro.transforms.store.EmbeddingStore` is
    bound (:meth:`ExecutionBackend.bind_store` — done by
    :class:`~repro.core.snoopy.Snoopy` before the first round), workers
    are initialized with the store's attach handle: hot blocks are read
    zero-copy from the parent's shared-memory segments, misses are
    served from (and written to) the shared spill directory, and the
    arm's training pool crosses the boundary as a
    :class:`~repro.transforms.store.SharedArrayRef` instead of a
    pickled payload — so a warm store means zero transform calls and
    near-zero pickled bytes per pull.  Without a bound store, workers
    fall back to cold config-only caches (the pre-sharing behaviour).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from repro.exceptions import DataValidationError
from repro.rng import SeedLike

_BACKENDS: dict[str, type["ExecutionBackend"]] = {}


def register_backend(name: str):
    """Class decorator adding an :class:`ExecutionBackend` to the registry."""

    def wrap(cls: type["ExecutionBackend"]) -> type["ExecutionBackend"]:
        cls.name = name
        _BACKENDS[name] = cls
        return cls

    return wrap


def backend_names() -> tuple[str, ...]:
    """Registered execution-backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def make_backend(
    name: str, max_workers: int | None = None
) -> "ExecutionBackend":
    """Instantiate a registered backend by name."""
    cls = _BACKENDS.get(name)
    if cls is None:
        raise DataValidationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {backend_names()}"
        )
    return cls(max_workers=max_workers)


def default_max_workers() -> int:
    """Worker default: the cores this process may actually run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class ExecutionBackend(ABC):
    """Executes a batch of independent tasks and returns ordered results."""

    name: str = "abstract"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise DataValidationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers or default_max_workers()

    @abstractmethod
    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results in input order."""

    def bind_store(self, store) -> None:
        """Attach an :class:`EmbeddingStore` workers should share.

        A no-op for in-process backends (serial/thread share the store
        object directly); the process backend uses it to initialize
        workers with an attach handle.  Must be called before the first
        :meth:`map` that should benefit (the pool is built lazily).
        """

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """Reference implementation: a plain in-order loop."""

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


class _PoolBackend(ExecutionBackend):
    """Shared lazy-pool plumbing for the thread/process backends."""

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = None

    def _make_pool(self):
        raise NotImplementedError

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            # No parallelism to gain; skip pool startup and pickling.
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = self._make_pool()
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


@register_backend("thread")
class ThreadBackend(_PoolBackend):
    """Thread pool; shares memory (and the embedding store) in-process."""

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.max_workers)


def _init_worker_store(state: dict) -> None:
    """Process-pool initializer: pre-attach the shared store handle.

    Materializing the handle once per worker (instead of per unpickled
    arm) gives every arm in the worker one shared attach cache and one
    digest cache; the registry in :mod:`repro.transforms.store` then
    dedupes each arm's unpickled store to this instance.
    """
    from repro.transforms.store import attach_handle

    attach_handle(state)


@register_backend("process")
class ProcessBackend(_PoolBackend):
    """Process pool; tasks and results cross a pickle boundary."""

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._store_state = None

    def bind_store(self, store) -> None:
        if store is not None and store.can_share_arrays:
            self._store_state = store.handle_state()

    def _make_pool(self):
        if self._store_state is not None:
            return ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker_store,
                initargs=(self._store_state,),
            )
        return ProcessPoolExecutor(max_workers=self.max_workers)


# ----------------------------------------------------------------------
# Round scheduling over transformation arms
# ----------------------------------------------------------------------


def _run_arm_task(task):
    """Top-level (picklable) task body: invoke one arm method.

    Returns the arm alongside the method result so process workers ship
    their mutated copy back for merging.
    """
    arm, method, kwargs = task
    return arm, getattr(arm, method)(**kwargs)


#: Arm attributes that keep the *parent's* object across a process-backend
#: merge.  All are semantically immutable during pulls, and their identity
#: is load-bearing: the shared store keys blocks by transform object and
#: caches digests by pool-array object, so adopting unpickled clones would
#: orphan warm cache entries (and leak a token per round).
_PRESERVE_ON_MERGE = ("store", "transform", "_train_x", "_train_y")


def _merge_arm(original, returned) -> None:
    """Adopt a worker copy's state while preserving object identity.

    Thread/serial backends mutate arms in place (``returned is
    original``) and this is a no-op.  Process backends return pickled
    copies; the original object adopts the copy's ``__dict__`` so every
    existing reference (selection results, run state) stays valid, while
    the parent-side objects named in :data:`_PRESERVE_ON_MERGE` survive
    the swap (worker copies carry an attach handle — or a cold
    config-only store pre-sharing — and cloned transforms/pools with
    identical content).
    """
    if returned is original:
        return
    preserved = {
        name: original.__dict__[name]
        for name in _PRESERVE_ON_MERGE
        if name in original.__dict__
    }
    original.__dict__.clear()
    original.__dict__.update(returned.__dict__)
    original.__dict__.update(preserved)


class RoundScheduler:
    """Issues independent arm pulls concurrently within a round.

    The scheduler is deliberately dumb: it never decides *what* to pull
    — allocation strategies do — only runs a batch of per-arm pull plans
    through the configured backend and merges state back in arm order.
    """

    def __init__(self, backend: ExecutionBackend | None = None):
        self.backend = backend or SerialBackend()

    def run(self, arms: Sequence, method: str, **kwargs) -> list:
        """Invoke ``arm.<method>(**kwargs)`` on every arm; ordered results."""
        if not arms:
            return []
        tasks = [(arm, method, kwargs) for arm in arms]
        results = self.backend.map(_run_arm_task, tasks)
        values = []
        for arm, (returned, value) in zip(arms, results):
            _merge_arm(arm, returned)
            values.append(value)
        return values

    def pull_to(self, arms: Sequence, target: int, pull_size: int) -> list:
        """Pull every arm to ``target`` cumulative samples concurrently."""
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
        self.backend.close()

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def spawn_arm_streams(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Independent per-arm RNG streams, fixed regardless of schedule.

    Streams are spawned from one :class:`numpy.random.SeedSequence` up
    front and handed to the arms as their designated randomness source.
    Nothing in the current pull path consumes randomness — results are
    deterministic outright — but any future stochastic arm step must
    draw from its own stream (never a shared generator), so an arm sees
    identical draws whether pulls run serially, on threads, or in worker
    processes.
    """
    if count < 0:
        raise DataValidationError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(
            int(seed.integers(0, 2**63 - 1))
        )
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]
