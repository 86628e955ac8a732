"""Softmax (multinomial logistic) regression and the LR-proxy baseline.

The paper's Baseline 1 trains a logistic regression on top of every
pre-computed embedding with SGD (momentum 0.9, mini-batch 64, 20 epochs)
and selects the minimal test error over a grid of learning rates
{0.001, 0.01, 0.1} and L2 penalties {0, 0.001, 0.01}.  This module
implements both the model (pure numpy) and that exact protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataValidationError
from repro.rng import SeedLike, ensure_rng

LEARNING_RATE_GRID = (0.001, 0.01, 0.1)
L2_GRID = (0.0, 0.001, 0.01)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    encoded = np.zeros((len(labels), num_classes))
    encoded[np.arange(len(labels)), labels] = 1.0
    return encoded


class SoftmaxRegression:
    """Multinomial logistic regression trained with momentum SGD."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        l2: float = 0.0,
        num_epochs: int = 20,
        batch_size: int = 64,
        momentum: float = 0.9,
        seed: SeedLike = None,
    ):
        if learning_rate <= 0:
            raise DataValidationError("learning_rate must be positive")
        if l2 < 0:
            raise DataValidationError("l2 must be non-negative")
        self.learning_rate = learning_rate
        self.l2 = l2
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.momentum = momentum
        self._seed = seed
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None

    def fit(
        self, x: np.ndarray, y: np.ndarray, num_classes: int
    ) -> "SoftmaxRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(x) != len(y):
            raise DataValidationError("x and y length mismatch")
        rng = ensure_rng(self._seed)
        dim = x.shape[1]
        weights = np.zeros((dim, num_classes))
        bias = np.zeros(num_classes)
        vel_w = np.zeros_like(weights)
        vel_b = np.zeros_like(bias)
        targets = _one_hot(y, num_classes)
        batch = min(self.batch_size, len(x))
        for _ in range(self.num_epochs):
            order = rng.permutation(len(x))
            for start in range(0, len(x), batch):
                idx = order[start : start + batch]
                logits = x[idx] @ weights + bias
                probs = _softmax(logits)
                grad_logits = (probs - targets[idx]) / len(idx)
                grad_w = x[idx].T @ grad_logits + self.l2 * weights
                grad_b = grad_logits.sum(axis=0)
                vel_w = self.momentum * vel_w - self.learning_rate * grad_w
                vel_b = self.momentum * vel_b - self.learning_rate * grad_b
                weights += vel_w
                bias += vel_b
        self._weights, self._bias = weights, bias
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._weights is None or self._bias is None:
            raise DataValidationError("model is not fitted")
        logits = np.asarray(x, dtype=np.float64) @ self._weights + self._bias
        return np.argmax(logits, axis=1)

    def error(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) != np.asarray(y)))


#: Simulated accelerator seconds per (sample x epoch) of LR training.
_LR_TRAIN_COST_PER_SAMPLE_EPOCH = 2e-6


@dataclass
class LRBaselineResult:
    """Outcome of the LR-proxy feasibility baseline."""

    best_error: float
    best_transform: str
    errors_by_transform: dict[str, float]
    sim_cost_seconds: float
    wall_seconds: float
    grid_evaluations: int = 0
    details: dict = field(default_factory=dict)

    @property
    def best_accuracy(self) -> float:
        return 1.0 - self.best_error


class LogisticRegressionBaseline:
    """Baseline 1: LR on every embedding, grid-searched, min test error.

    All embeddings are computed exactly once up front (the paper's
    assumption), so the simulated cost is full-catalog inference plus
    ``grid_size`` LR trainings per embedding.
    """

    def __init__(
        self,
        catalog,
        num_epochs: int = 20,
        batch_size: int = 64,
        seed: SeedLike = None,
        learning_rates: tuple[float, ...] = LEARNING_RATE_GRID,
        l2_values: tuple[float, ...] = L2_GRID,
    ):
        self.catalog = list(catalog)
        if not self.catalog:
            raise DataValidationError("catalog must not be empty")
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.learning_rates = learning_rates
        self.l2_values = l2_values
        self._seed = seed

    def run(self, dataset) -> LRBaselineResult:
        started = time.perf_counter()
        rng = ensure_rng(self._seed)
        sim_cost = 0.0
        errors: dict[str, float] = {}
        evaluations = 0
        num_samples = dataset.num_train + dataset.num_test
        for transform in self.catalog:
            if not transform.fitted:
                transform.fit(dataset.train_x)
            train_f = transform.transform(dataset.train_x)
            test_f = transform.transform(dataset.test_x)
            sim_cost += transform.inference_cost(num_samples)
            best = np.inf
            for lr in self.learning_rates:
                for l2 in self.l2_values:
                    model = SoftmaxRegression(
                        learning_rate=lr,
                        l2=l2,
                        num_epochs=self.num_epochs,
                        batch_size=self.batch_size,
                        seed=rng,
                    ).fit(train_f, dataset.train_y, dataset.num_classes)
                    best = min(best, model.error(test_f, dataset.test_y))
                    evaluations += 1
                    sim_cost += (
                        _LR_TRAIN_COST_PER_SAMPLE_EPOCH
                        * dataset.num_train
                        * self.num_epochs
                    )
            errors[transform.name] = float(best)
        best_transform = min(errors, key=errors.get)
        return LRBaselineResult(
            best_error=errors[best_transform],
            best_transform=best_transform,
            errors_by_transform=errors,
            sim_cost_seconds=sim_cost,
            wall_seconds=time.perf_counter() - started,
            grid_evaluations=evaluations,
        )
