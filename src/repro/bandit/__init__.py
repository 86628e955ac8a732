"""Resource allocation across transformations (Section V).

Computing every embedding on every sample is the bottleneck of a
feasibility study.  Casting each transformation as an *arm* whose pulls
stream training batches through inference + incremental 1NN turns the
problem into non-stochastic best-arm identification:

- :mod:`repro.bandit.arms` — the streamed transformation arm.
- :mod:`repro.bandit.successive_halving` — Algorithm 1 (Jamieson &
  Talwalkar 2016), optionally with the tangent early-stopping rule of
  Algorithm 2.
- :mod:`repro.bandit.uniform` — the uniform-allocation baseline.
"""

from repro.bandit.arms import TransformationArm, build_arms
from repro.bandit.successive_halving import (
    SelectionResult,
    successive_halving,
)
from repro.bandit.tangent import tangent_lower_bound
from repro.bandit.uniform import uniform_allocation

__all__ = [
    "SelectionResult",
    "TransformationArm",
    "build_arms",
    "successive_halving",
    "tangent_lower_bound",
    "uniform_allocation",
]
