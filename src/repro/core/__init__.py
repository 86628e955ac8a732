"""The paper's primary contribution: the Snoopy feasibility-study system.

- :mod:`repro.core.snoopy` — the system: catalog in, binary signal out.
- :mod:`repro.core.result` — report and convergence-curve containers.
- :mod:`repro.core.aggregation` — min-aggregation and the regime analysis
  of Section IV-B (Δf, δf, γ, Conditions 8/9).
- :mod:`repro.core.guidance` — the additional numerical aids of Section
  IV-C: the log-linear convergence fit and the samples-to-target
  extrapolation.
- :mod:`repro.core.incremental` — real-time re-runs after label cleaning:
  each transformation's nearest neighbours and one copy of the labels.
"""

from repro.core.aggregation import (
    RegimeQuantities,
    aggregate_min,
    condition_8_holds,
    condition_9_holds,
    estimate_regime_quantities,
)
from repro.core.drift import (
    DriftAwareMonitor,
    DriftEvent,
    PageHinkleyDetector,
    SlidingWindowBER,
)
from repro.core.engine import RoundScheduler
from repro.core.guidance import (
    ExtrapolationResult,
    LogLinearFit,
    extrapolate_samples_needed,
    fit_log_linear,
)
from repro.core.incremental import IncrementalState
from repro.core.result import (
    BEREstimate,
    ConvergenceCurve,
    FeasibilityReport,
    FeasibilitySignal,
    TransformResult,
)
from repro.core.snoopy import Snoopy, SnoopyConfig

__all__ = [
    "BEREstimate",
    "ConvergenceCurve",
    "DriftAwareMonitor",
    "DriftEvent",
    "PageHinkleyDetector",
    "RoundScheduler",
    "SlidingWindowBER",
    "ExtrapolationResult",
    "FeasibilityReport",
    "FeasibilitySignal",
    "IncrementalState",
    "LogLinearFit",
    "RegimeQuantities",
    "Snoopy",
    "SnoopyConfig",
    "TransformResult",
    "aggregate_min",
    "condition_8_holds",
    "condition_9_holds",
    "estimate_regime_quantities",
    "extrapolate_samples_needed",
    "fit_log_linear",
]
