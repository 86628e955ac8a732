"""From-scratch classifiers forming the AutoML simulator's search space.

Every model implements the same minimal protocol:
``fit(x, y, num_classes)``, ``predict(x)``, ``error(x, y)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN


class _ZooModel:
    """Shared validation and error helper."""

    @staticmethod
    def _validate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2:
            raise DataValidationError("features must be 2-D")
        if len(x) != len(y):
            raise DataValidationError("x and y length mismatch")
        if len(x) == 0:
            raise DataValidationError("training set must be non-empty")
        return x, y

    def error(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) != np.asarray(y)))


class NearestCentroidClassifier(_ZooModel):
    """Classify to the closest class centroid."""

    def __init__(self) -> None:
        self._centroids: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    def fit(
        self, x: np.ndarray, y: np.ndarray, num_classes: int
    ) -> "NearestCentroidClassifier":
        x, y = self._validate(x, y)
        classes = np.unique(y)
        self._centroids = np.stack([x[y == cls].mean(axis=0) for cls in classes])
        self._classes = classes
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._centroids is None or self._classes is None:
            raise DataValidationError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        sq = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * x @ self._centroids.T
            + np.sum(self._centroids**2, axis=1)[None, :]
        )
        return self._classes[np.argmin(sq, axis=1)]


class GaussianNaiveBayes(_ZooModel):
    """Diagonal-covariance Gaussian naive Bayes with empirical priors."""

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing
        self._means: np.ndarray | None = None
        self._variances: np.ndarray | None = None
        self._log_priors: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    def fit(
        self, x: np.ndarray, y: np.ndarray, num_classes: int
    ) -> "GaussianNaiveBayes":
        x, y = self._validate(x, y)
        classes = np.unique(y)
        means, variances, priors = [], [], []
        floor = self.var_smoothing * float(x.var())
        for cls in classes:
            subset = x[y == cls]
            means.append(subset.mean(axis=0))
            variances.append(subset.var(axis=0) + max(floor, 1e-12))
            priors.append(len(subset) / len(x))
        self._means = np.stack(means)
        self._variances = np.stack(variances)
        self._log_priors = np.log(np.array(priors))
        self._classes = classes
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._means is None:
            raise DataValidationError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        log_likelihood = np.empty((len(x), len(self._classes)))
        for i in range(len(self._classes)):
            diff = x - self._means[i]
            log_likelihood[:, i] = -0.5 * np.sum(
                diff**2 / self._variances[i] + np.log(2 * np.pi * self._variances[i]),
                axis=1,
            )
        return self._classes[np.argmax(log_likelihood + self._log_priors, axis=1)]


class RidgeClassifier(_ZooModel):
    """One-vs-rest least squares with L2 regularization (closed form)."""

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise DataValidationError("alpha must be non-negative")
        self.alpha = alpha
        self._weights: np.ndarray | None = None
        self._mean: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray, num_classes: int) -> "RidgeClassifier":
        x, y = self._validate(x, y)
        self._mean = x.mean(axis=0)
        centered = x - self._mean
        targets = -np.ones((len(y), num_classes))
        targets[np.arange(len(y)), y] = 1.0
        gram = centered.T @ centered + self.alpha * np.eye(x.shape[1])
        self._weights = np.linalg.solve(gram, centered.T @ targets)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._weights is None or self._mean is None:
            raise DataValidationError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        return np.argmax((x - self._mean) @ self._weights, axis=1)


class KNNClassifierModel(_ZooModel):
    """Exact kNN classifier (majority vote over the k nearest neighbors)."""

    def __init__(self, k: int = 5, metric: str = "euclidean"):
        if k < 1:
            raise DataValidationError("k must be >= 1")
        self.k = k
        self.metric = metric
        self._index: BruteForceKNN | None = None

    def fit(
        self, x: np.ndarray, y: np.ndarray, num_classes: int
    ) -> "KNNClassifierModel":
        x, y = self._validate(x, y)
        self._index = BruteForceKNN(metric=self.metric).fit(x, y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._index is None:
            raise DataValidationError("model is not fitted")
        k = min(self.k, self._index.num_fitted)
        return self._index.predict(np.asarray(x, dtype=np.float64), k=k)
