"""The paper's default estimator: 1NN error + Cover–Hart lower bound.

Cover and Hart (1967) relate the infinite-sample 1NN error to the BER
(Eq. 1 of the paper):

    R_1NN >= R*  >=  R_1NN / (1 + sqrt(1 - C * R_1NN / (C - 1)))

Snoopy evaluates the *finite*-sample 1NN error on a held-out test split
and plugs it into the right-hand side (Eq. 2), yielding the per-
transformation estimate that min-aggregation consumes.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BayesErrorEstimator,
    BEREstimate,
    register_estimator,
)
from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN


def cover_hart_lower_bound(one_nn_error: float, num_classes: int) -> float:
    """Map a 1NN error to the Cover–Hart BER lower bound (Eq. 2).

    The radicand is clipped at zero: for errors beyond the (C-1)/C
    saturation point the bound degenerates to the error itself.
    """
    if not 0.0 <= one_nn_error <= 1.0:
        raise DataValidationError(
            f"one_nn_error must be in [0, 1], got {one_nn_error}"
        )
    if num_classes < 2:
        raise DataValidationError("num_classes must be >= 2")
    radicand = 1.0 - num_classes * one_nn_error / (num_classes - 1)
    return one_nn_error / (1.0 + np.sqrt(max(0.0, radicand)))


def cover_hart_interval(
    one_nn_error: float, num_classes: int
) -> tuple[float, float]:
    """Both sides of Eq. 1: ``(lower_bound, upper_bound)`` on the BER."""
    return cover_hart_lower_bound(one_nn_error, num_classes), one_nn_error


@register_estimator("1nn")
class OneNNEstimator(BayesErrorEstimator):
    """1NN test error mapped through the Cover–Hart bound (Eq. 2).

    ``value`` is the lower bound (Snoopy's R̂ for one transformation);
    ``upper`` is the raw 1NN error, computed with the exact
    :class:`~repro.knn.brute_force.BruteForceKNN`.  ``dtype`` selects
    the compute precision ("float32"/"float64"; ``None`` keeps the
    strict float64 path).
    """

    def __init__(self, metric: str = "euclidean", dtype=None):
        self.name = "1nn"
        self.metric = metric
        self.dtype = dtype

    def estimate(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        num_classes: int,
    ) -> BEREstimate:
        train_x, train_y, test_x, test_y = self._validate(
            train_x, train_y, test_x, test_y, num_classes
        )
        index = BruteForceKNN(metric=self.metric, dtype=self.dtype).fit(
            train_x, train_y
        )
        error = index.error(test_x, test_y, k=1)
        lower = cover_hart_lower_bound(error, num_classes)
        return BEREstimate(
            value=lower,
            lower=lower,
            upper=error,
            details={"one_nn_error": error, "metric": self.metric},
        )
