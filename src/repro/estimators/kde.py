"""KDE plug-in estimator (Fukunaga & Hummels 1987, "Parzen procedure").

Per-class Gaussian kernel density estimates give class-conditional
densities; Bayes' rule with empirical priors yields posteriors, and the
BER is the expected complement of the maximum posterior over the test
points.  Bandwidth follows Scott's rule per class unless overridden.

As the paper (and its FeeBee companion) observe, KDE estimates degrade
quickly with dimension — this estimator exists for the cross-estimator
comparison, not as Snoopy's workhorse.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BayesErrorEstimator,
    BEREstimate,
    register_estimator,
)
from repro.exceptions import DataValidationError, EstimatorError
from repro.knn.metrics import euclidean_distances


@register_estimator("kde")
class KDEEstimator(BayesErrorEstimator):
    """Plug-in BER estimate from per-class Gaussian KDE posteriors."""

    def __init__(self, bandwidth: float | None = None):
        if bandwidth is not None and bandwidth <= 0:
            raise DataValidationError(
                f"bandwidth must be positive, got {bandwidth}"
            )
        self.name = "kde"
        self.bandwidth = bandwidth

    def estimate(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        num_classes: int,
    ) -> BEREstimate:
        from scipy.special import logsumexp

        train_x, train_y, test_x, test_y = self._validate(
            train_x, train_y, test_x, test_y, num_classes
        )
        dim = train_x.shape[1]
        log_joint = np.full((len(test_x), num_classes), -np.inf)
        present = 0
        for cls in range(num_classes):
            mask = train_y == cls
            count = int(mask.sum())
            if count == 0:
                continue
            present += 1
            bandwidth = self.bandwidth or self._scott_bandwidth(
                train_x[mask], count, dim
            )
            sq = euclidean_distances(test_x, train_x[mask]) ** 2
            log_kernel = -sq / (2.0 * bandwidth**2)
            # log p(x | y) up to the shared (2 pi h^2)^{-d/2} constant,
            # which cancels in the posterior when bandwidths are equal;
            # with per-class bandwidths, include the normalization.
            log_density = (
                logsumexp(log_kernel, axis=1)
                - np.log(count)
                - dim * np.log(bandwidth)
            )
            log_prior = np.log(count / len(train_y))
            log_joint[:, cls] = log_density + log_prior
        if present < 2:
            raise EstimatorError("kde: need at least two classes present in train")
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        posteriors = np.exp(log_joint - log_norm)
        value = float(np.mean(1.0 - posteriors.max(axis=1)))
        return BEREstimate(value=value, details={"bandwidth": self.bandwidth})

    @staticmethod
    def _scott_bandwidth(points: np.ndarray, count: int, dim: int) -> float:
        spread = float(np.mean(points.std(axis=0)))
        scale = max(spread, 1e-6)
        return scale * count ** (-1.0 / (dim + 4))
