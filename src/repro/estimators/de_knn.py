"""DE-kNN: posterior plug-in density estimator (Fukunaga & Kessell 1973).

Estimates the class posterior at each evaluation point from the label
frequencies among its k nearest training neighbors, then plugs into the
BER definition ``R* = E[1 - max_y eta_y(x)]``.  Consistent as
``k -> inf, k/n -> 0``; at practical k it is biased but serves as an
independent cross-check of the 1NN estimator, as in the FeeBee study.
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


@register_estimator("de_knn")
class DeKNNEstimator(BayesErrorEstimator):
    """Plug-in BER estimate from kNN posterior frequencies.

    Neighbors come from the exact
    :class:`~repro.knn.brute_force.BruteForceKNN`; ``dtype`` selects
    the compute precision ("float32"/"float64"; ``None`` keeps the
    strict float64 path).
    """

    def __init__(self, k: int = 10, metric: str = "euclidean", dtype=None):
        if k < 1:
            raise DataValidationError(f"k must be >= 1, got {k}")
        self.name = f"de_knn_k{k}"
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
        k = min(self.k, len(train_x))
        index = BruteForceKNN(metric=self.metric, dtype=self.dtype).fit(
            train_x, train_y
        )
        _, neighbor_idx = index.kneighbors(test_x, k=k)
        neighbor_labels = train_y[neighbor_idx]
        counts = np.zeros((len(test_x), num_classes))
        rows = np.repeat(np.arange(len(test_x)), k)
        np.add.at(counts, (rows, neighbor_labels.ravel()), 1.0)
        posteriors = counts / k
        value = float(np.mean(1.0 - posteriors.max(axis=1)))
        return BEREstimate(
            value=value,
            details={"k": k, "metric": self.metric},
        )
