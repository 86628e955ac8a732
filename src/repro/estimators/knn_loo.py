"""kNN leave-one-out estimator (the "1NN-kNN" family of Devijver 1985).

Estimates the BER from the leave-one-out error of a kNN classifier on
the pooled sample.  For k = 1 the Cover–Hart correction applies exactly;
for k > 1 the same normalization is used as a heuristic, following the
pragmatic treatment in the FeeBee study — asymptotically the kNN error
itself tightens toward the BER as k grows, so the correction is kept but
its looseness is recorded in the estimate details.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BayesErrorEstimator,
    BEREstimate,
    register_estimator,
)
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN


@register_estimator("knn_loo")
class KNNLooEstimator(BayesErrorEstimator):
    """Leave-one-out kNN error on the pooled sample, Cover–Hart corrected.

    The leave-one-out search runs on the exact
    :class:`~repro.knn.brute_force.BruteForceKNN`; ``dtype`` selects
    the compute precision ("float32"/"float64"; ``None`` keeps the
    strict float64 path).
    """

    def __init__(self, k: int = 5, metric: str = "euclidean", dtype=None):
        if k < 1:
            raise DataValidationError(f"k must be >= 1, got {k}")
        self.name = f"knn_loo_k{k}"
        self.k = k
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
        # LOO pools everything: the estimator does not need a held-out split.
        pooled_x = np.concatenate([train_x, test_x])
        pooled_y = np.concatenate([train_y, test_y])
        k = min(self.k, len(pooled_x) - 1)
        index = BruteForceKNN(metric=self.metric, dtype=self.dtype).fit(
            pooled_x, pooled_y
        )
        loo_error = index.loo_error(k=k)
        lower = cover_hart_lower_bound(loo_error, num_classes)
        return BEREstimate(
            value=lower,
            lower=lower,
            upper=loo_error,
            details={"loo_error": loo_error, "k": k, "metric": self.metric},
        )
