"""Successive halving over transformation arms (Algorithm 1).

Budget semantics follow Jamieson & Talwalkar: a total budget ``B`` of arm
pulls — here measured in *training samples embedded* — is split evenly
across the ``ceil(log2 n)`` halving rounds, and within a round evenly
across surviving arms.  After each round the worse half of the arms is
dropped.

The tangent variant (Algorithm 2, ``use_tangent=True``) additionally
stops pulling an arm mid-round as soon as the tangent lower bound of its
convergence curve at the round's end exceeds the worst current loss among
the protected better half — such an arm provably cannot survive the
round, so skipping its remaining pulls cannot change the set of
survivors, and all of successive halving's guarantees carry over.

Within a round, arm pulls are independent: every surviving arm pulls to
the same cumulative target using only its own state, and the tangent
threshold is fixed (from the protected half) before any candidate is
pulled.  Each round's pulls run through a
:class:`repro.core.engine.RoundScheduler`, one arm after another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bandit.arms import TransformationArm
from repro.core.engine import RoundScheduler
from repro.exceptions import BudgetError


@dataclass
class SelectionResult:
    """Outcome of an allocation strategy over transformation arms."""

    winner: TransformationArm
    strategy: str
    total_samples: int
    samples_per_arm: dict[str, int]
    round_survivors: list[list[str]] = field(default_factory=list)
    pruned_by_tangent: list[str] = field(default_factory=list)

    @property
    def winner_name(self) -> str:
        return self.winner.name


def successive_halving(
    arms: list[TransformationArm],
    budget: int,
    pull_size: int = 64,
    use_tangent: bool = False,
) -> SelectionResult:
    """Run Algorithm 1 (optionally with Algorithm 2's tangent breaks).

    Parameters
    ----------
    arms:
        Freshly built (or partially pulled) transformation arms.
    budget:
        Total number of training samples that may be embedded across all
        arms and rounds.
    pull_size:
        Chunk size of a single pull; the tangent rule evaluates after
        every chunk.
    use_tangent:
        Enable the early-stopping variant.
    """
    if not arms:
        raise BudgetError("need at least one arm")
    if budget < 1:
        raise BudgetError(f"budget must be positive, got {budget}")
    if pull_size < 1:
        raise BudgetError(f"pull_size must be positive, got {pull_size}")
    scheduler = RoundScheduler()
    num_arms = len(arms)
    rounds = max(1, int(np.ceil(np.log2(num_arms))))
    surviving = list(arms)
    pruned_names: list[str] = []
    history: list[list[str]] = []
    cumulative_target = 0
    for _ in range(rounds):
        count = len(surviving)
        if count == 1:
            break
        per_arm = budget // (count * rounds)
        if per_arm < 1:
            raise BudgetError(
                f"budget {budget} too small for {num_arms} arms over "
                f"{rounds} rounds"
            )
        cumulative_target += per_arm
        keep = max(1, count // 2)
        if use_tangent:
            # The better half (by current loss) is protected and pulled in
            # full; the rest may be pruned by the tangent rule.  The
            # threshold is fixed before any candidate pulls, so the
            # candidates are mutually independent.
            surviving.sort(key=lambda arm: arm.current_loss)
            protected, candidates = surviving[:keep], surviving[keep:]
            scheduler.pull_to(protected, cumulative_target, pull_size)
            threshold = max(arm.current_loss for arm in protected)
            survived = scheduler.pull_with_tangent(
                candidates, cumulative_target, pull_size, threshold
            )
            kept_candidates = []
            for arm, kept in zip(candidates, survived):
                if kept:
                    kept_candidates.append(arm)
                else:
                    pruned_names.append(arm.name)
            surviving = protected + kept_candidates
        else:
            scheduler.pull_to(surviving, cumulative_target, pull_size)
        surviving.sort(key=lambda arm: arm.current_loss)
        surviving = surviving[:keep]
        history.append([arm.name for arm in surviving])
    winner = min(surviving, key=lambda arm: arm.current_loss)
    return SelectionResult(
        winner=winner,
        strategy="successive_halving_tangent" if use_tangent else
        "successive_halving",
        total_samples=sum(arm.samples_used for arm in arms),
        samples_per_arm={arm.name: arm.samples_used for arm in arms},
        round_survivors=history,
        pruned_by_tangent=pruned_names,
    )


