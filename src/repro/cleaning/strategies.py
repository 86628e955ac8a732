"""User interaction models for the end-to-end use case (Section VI-D).

Two families are simulated:

- **Without a feasibility study** (:func:`run_without_feasibility_study`):
  repeatedly run the expensive training system; whenever it misses the
  target, clean a fixed step (1/5/10/50%) and retry.
- **With a feasibility study** (:func:`run_with_feasibility_study`):
  alternate cheap feasibility checks with 1% cleaning steps until the
  study reports REALISTIC, then run the expensive system once.  The
  feasibility signal comes either from Snoopy (with its incremental
  re-run optimization) or from the LR proxy (which re-trains, but never
  re-embeds, after each cleaning step).

Every action appends a :class:`TracePoint`, so a strategy's outcome is a
cost curve directly comparable to Figures 9/10/21-27.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.logistic_regression import (
    SoftmaxRegression,
    _LR_TRAIN_COST_PER_SAMPLE_EPOCH,
)
from repro.cleaning.costs import CostModel
from repro.cleaning.simulator import CleaningSession
from repro.core.result import FeasibilitySignal
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.exceptions import DataValidationError
from repro.rng import SeedLike, ensure_rng

#: Simulated seconds for one incremental Snoopy re-run (the paper reports
#: 0.2 ms for 10K test x 50K train; we bill a conservative millisecond).
SNOOPY_INCREMENTAL_RERUN_COST = 1e-3


@dataclass(frozen=True)
class TracePoint:
    """One action in the interaction loop."""

    action: str  # "train" | "clean" | "feasibility"
    fraction_examined: float
    dollars: float  # cumulative
    value: float  # accuracy (train), estimate (feasibility), or NaN


@dataclass
class CostTrace:
    """The full cost curve of one strategy run."""

    strategy: str
    points: list[TracePoint] = field(default_factory=list)
    reached_target: bool = False

    def add(self, action: str, fraction: float, dollars: float, value: float):
        self.points.append(TracePoint(action, fraction, dollars, value))

    @property
    def total_dollars(self) -> float:
        return self.points[-1].dollars if self.points else 0.0

    @property
    def final_fraction_examined(self) -> float:
        return self.points[-1].fraction_examined if self.points else 0.0

    @property
    def num_expensive_runs(self) -> int:
        return sum(1 for p in self.points if p.action == "train")


def run_without_feasibility_study(
    session: CleaningSession,
    trainer,
    target_accuracy: float,
    step_fraction: float,
    cost_model: CostModel,
    max_steps: int = 400,
) -> CostTrace:
    """Baseline loop: expensive train, clean a fixed step, repeat."""
    _check_target(target_accuracy)
    trace = CostTrace(strategy=f"finetune_step_{step_fraction:g}")
    dollars = 0.0
    for _ in range(max_steps):
        result = trainer.run(session.current_dataset())
        dollars += cost_model.compute(result.sim_cost_seconds)
        trace.add("train", session.fraction_examined, dollars, result.test_accuracy)
        if result.test_accuracy >= target_accuracy:
            trace.reached_target = True
            break
        if session.all_cleaned:
            break
        step = session.clean_fraction(step_fraction)
        dollars += cost_model.labels(step.num_examined)
        trace.add("clean", session.fraction_examined, dollars, float("nan"))
    return trace


def run_with_feasibility_study(
    session: CleaningSession,
    trainer,
    target_accuracy: float,
    cost_model: CostModel,
    feasibility: str = "snoopy",
    catalog=None,
    clean_step: float = 0.01,
    max_steps: int = 400,
    snoopy_config: SnoopyConfig | None = None,
    lr_epochs: int = 5,
    retrain_cooldown: int = 5,
    seed: SeedLike = None,
) -> CostTrace:
    """Feasibility-guided loop: cheap checks between 1% cleaning steps.

    ``feasibility`` selects the study system: ``"snoopy"`` (incremental
    re-runs after the first full run) or ``"lr"`` (the proxy baseline,
    re-trained but never re-embedded).  ``retrain_cooldown`` is the
    number of cleaning steps the loop waits after a failed expensive run
    before paying for another one.
    """
    _check_target(target_accuracy)
    if catalog is None:
        raise DataValidationError("run_with_feasibility_study requires a catalog")
    if feasibility not in ("snoopy", "lr"):
        raise DataValidationError(
            f"feasibility must be 'snoopy' or 'lr', got {feasibility!r}"
        )
    study = (
        _SnoopyFeasibility(catalog, snoopy_config)
        if feasibility == "snoopy"
        else _LRFeasibility(catalog, lr_epochs, seed)
    )
    trace = CostTrace(strategy=f"fs_{feasibility}")
    dollars = 0.0
    # Cooldown against false positives: the study projects the *best
    # possible* accuracy, which the concrete expensive trainer may not
    # reach.  After a failed expensive run the loop cleans for several
    # steps before paying for another one, instead of thrashing on
    # re-training at every positive signal.  When the artefact is fully
    # cleaned one final expensive run is always performed.
    cooldown_remaining = 0
    for _ in range(max_steps):
        estimate, sim_cost = study.estimate(session)
        dollars += cost_model.compute(sim_cost)
        projected = 1.0 - estimate
        trace.add("feasibility", session.fraction_examined, dollars, projected)
        signal_positive = projected >= target_accuracy
        should_train = (
            signal_positive and cooldown_remaining == 0
        ) or session.all_cleaned
        if should_train:
            result = trainer.run(session.current_dataset())
            dollars += cost_model.compute(result.sim_cost_seconds)
            trace.add(
                "train", session.fraction_examined, dollars, result.test_accuracy
            )
            if result.test_accuracy >= target_accuracy:
                trace.reached_target = True
                break
            cooldown_remaining = retrain_cooldown
        if session.all_cleaned:
            break
        step = session.clean_fraction(clean_step)
        dollars += cost_model.labels(step.num_examined)
        trace.add("clean", session.fraction_examined, dollars, float("nan"))
        study.apply_cleaning(step)
        cooldown_remaining = max(0, cooldown_remaining - 1)
    return trace


def _check_target(target_accuracy: float) -> None:
    if not 0.0 < target_accuracy <= 1.0:
        raise DataValidationError(
            f"target_accuracy must be in (0, 1], got {target_accuracy}"
        )


class _SnoopyFeasibility:
    """Snoopy study: one full run, then incremental O(test) re-runs."""

    def __init__(self, catalog, config: SnoopyConfig | None):
        self._catalog = catalog
        self._config = config
        self._state = None

    def estimate(self, session: CleaningSession) -> tuple[float, float]:
        if self._state is None:
            system = Snoopy(self._catalog, self._config)
            report = system.run(session.current_dataset(), target_accuracy=1.0)
            self._state = system.incremental_state()
            return report.ber_estimate, report.total_sim_cost_seconds
        _, estimate = self._state.ber_estimate()
        return estimate, SNOOPY_INCREMENTAL_RERUN_COST

    def apply_cleaning(self, step) -> None:
        if self._state is not None:
            self._state.apply_cleaning(
                step.train_indices,
                step.train_labels,
                step.test_indices,
                step.test_labels,
            )


class _LRFeasibility:
    """LR-proxy study: embeddings computed once, grid re-trained per check."""

    def __init__(self, catalog, num_epochs: int, seed: SeedLike):
        self._catalog = list(catalog)
        self._num_epochs = num_epochs
        self._rng = ensure_rng(seed)
        self._embedded: list[tuple[str, object, object, float]] | None = None

    def _embed(self, dataset) -> float:
        """Embed all splits once; returns the inference sim cost."""
        self._embedded = []
        cost = 0.0
        total = dataset.num_train + dataset.num_test
        for transform in self._catalog:
            if not transform.fitted:
                transform.fit(dataset.train_x)
            self._embedded.append(
                (
                    transform.name,
                    transform.transform(dataset.train_x),
                    transform.transform(dataset.test_x),
                    transform.inference_cost(total),
                )
            )
            cost += transform.inference_cost(total)
        return cost

    def estimate(self, session: CleaningSession) -> tuple[float, float]:
        dataset = session.current_dataset()
        sim_cost = 0.0
        if self._embedded is None:
            sim_cost += self._embed(dataset)
        best = 1.0
        for _, train_f, test_f, _ in self._embedded:
            model = SoftmaxRegression(
                learning_rate=0.1,
                num_epochs=self._num_epochs,
                seed=self._rng,
            ).fit(train_f, dataset.train_y, dataset.num_classes)
            best = min(best, model.error(test_f, dataset.test_y))
            sim_cost += (
                _LR_TRAIN_COST_PER_SAMPLE_EPOCH
                * dataset.num_train
                * self._num_epochs
            )
        return best, sim_cost

    def apply_cleaning(self, step) -> None:
        """Labels live in the session; embeddings are label-independent."""
