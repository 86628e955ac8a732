"""Round scheduling: one round's independent arm pulls, in a loop.

Successive halving's rounds (and uniform/full allocation trivially) are
independent across surviving arms: within a round every arm pulls to
the same cumulative sample target using only its own state, and the
tangent variant's elimination threshold is fixed *before* any candidate
is pulled.  The :class:`RoundScheduler` runs exactly those per-arm pull
plans and returns their results in the caller-supplied arm order, so
sorting, tie-breaking and winner selection see the arms as given.
"""

from __future__ import annotations

from collections.abc import Sequence


class RoundScheduler:
    """Runs one round's per-arm pull plans; results in arm order.

    The scheduler never decides *what* to pull — allocation strategies
    do — it only invokes one arm method per arm.
    """

    def run(self, arms: Sequence, method: str, **kwargs) -> list:
        """Invoke ``arm.<method>(**kwargs)`` on every arm; ordered results."""
        return [getattr(arm, method)(**kwargs) for arm in arms]

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
