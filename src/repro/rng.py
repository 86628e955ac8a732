"""Deterministic random-number handling shared across the package.

Every stochastic component in the library accepts either an integer seed,
an existing :class:`numpy.random.Generator`, or ``None`` and normalizes it
through :func:`ensure_rng`.  Components that need several independent
streams derive them with :func:`spawn`, so that results are reproducible
regardless of call order.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError

SeedLike = int | np.random.Generator | np.random.SeedSequence | None


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Passing an existing generator returns it unchanged, so callers can
    thread one generator through a pipeline without re-seeding.  A
    negative integer seed raises :class:`DataValidationError`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DataValidationError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    The children are seeded from the parent stream, so two runs with the
    same parent seed always produce the same children.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
