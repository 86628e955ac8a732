"""Uniform allocation baseline (the non-adaptive strategy of Figure 12)."""

from __future__ import annotations

from repro.bandit.arms import TransformationArm
from repro.bandit.successive_halving import SelectionResult
from repro.core.engine import RoundScheduler
from repro.exceptions import BudgetError


def uniform_allocation(
    arms: list[TransformationArm],
    budget: int,
    pull_size: int = 64,
) -> SelectionResult:
    """Split the sample budget evenly across all arms, no elimination.

    The single round pulls every arm through a
    :class:`repro.core.engine.RoundScheduler`.
    """
    if not arms:
        raise BudgetError("need at least one arm")
    if budget < len(arms):
        raise BudgetError(
            f"budget {budget} smaller than the number of arms {len(arms)}"
        )
    per_arm = budget // len(arms)
    RoundScheduler().pull_to(arms, per_arm, pull_size)
    winner = min(arms, key=lambda arm: arm.current_loss)
    return SelectionResult(
        winner=winner,
        strategy="uniform",
        total_samples=sum(arm.samples_used for arm in arms),
        samples_per_arm={arm.name: arm.samples_used for arm in arms},
    )
