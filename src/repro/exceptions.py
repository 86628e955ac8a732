"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so applications
can catch everything from this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DataValidationError(ReproError):
    """A dataset, label array, or feature matrix failed validation."""


class TransitionMatrixError(DataValidationError):
    """A label-noise transition matrix is malformed (shape, rows, range)."""


class EstimatorError(ReproError):
    """A Bayes-error estimator could not produce an estimate."""


class ConvergenceError(ReproError):
    """A curve fit or extrapolation failed to converge or is untrustworthy."""


class BudgetError(ReproError):
    """A resource-allocation routine received an unusable budget."""
