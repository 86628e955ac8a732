"""Estimator protocol, estimate container and registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.exceptions import DataValidationError, EstimatorError


@dataclass(frozen=True)
class BEREstimate:
    """A Bayes-error estimate with optional bracketing interval.

    ``value`` is the estimator's point estimate (for 1NN-based estimators
    this is the Cover–Hart *lower* bound used as Snoopy's R̂); ``lower``
    and ``upper`` bracket the BER when the estimator provides them.
    """

    value: float
    lower: float | None = None
    upper: float | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise EstimatorError(f"estimate value must be finite, got {self.value}")
        if not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise EstimatorError(f"estimate must be in [0, 1], got {self.value}")
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper + 1e-9
        ):
            raise EstimatorError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )


class BayesErrorEstimator(ABC):
    """Estimate the Bayes error of a task from a finite labeled sample."""

    name: str = "abstract"

    @abstractmethod
    def estimate(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        num_classes: int,
    ) -> BEREstimate:
        """Return a :class:`BEREstimate` for the task behind the sample."""

    @staticmethod
    def _validate(
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        num_classes: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        train_x = np.asarray(train_x, dtype=np.float64)
        test_x = np.asarray(test_x, dtype=np.float64)
        train_y = np.asarray(train_y, dtype=np.int64)
        test_y = np.asarray(test_y, dtype=np.int64)
        if len(train_x) != len(train_y) or len(test_x) != len(test_y):
            raise DataValidationError("feature/label length mismatch")
        if len(train_x) == 0 or len(test_x) == 0:
            raise DataValidationError("train and test sets must be non-empty")
        if num_classes < 2:
            raise DataValidationError("num_classes must be >= 2")
        for labels in (train_y, test_y):
            if labels.min() < 0 or labels.max() >= num_classes:
                raise DataValidationError(
                    f"labels must lie in [0, {num_classes}), got "
                    f"[{labels.min()}, {labels.max()}]"
                )
        return train_x, train_y, test_x, test_y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


ESTIMATOR_REGISTRY: dict[str, Callable[..., BayesErrorEstimator]] = {}


def register_estimator(
    name: str,
) -> Callable[[type[BayesErrorEstimator]], type[BayesErrorEstimator]]:
    """Class decorator adding an estimator factory to the registry."""

    def decorator(cls: type[BayesErrorEstimator]) -> type[BayesErrorEstimator]:
        if name in ESTIMATOR_REGISTRY:
            raise EstimatorError(f"estimator {name!r} already registered")
        ESTIMATOR_REGISTRY[name] = cls
        return cls

    return decorator


def get_estimator(name: str, **kwargs) -> BayesErrorEstimator:
    """Instantiate a registered estimator by name."""
    try:
        factory = ESTIMATOR_REGISTRY[name]
    except KeyError:
        raise EstimatorError(
            f"unknown estimator {name!r}; "
            f"available: {sorted(ESTIMATOR_REGISTRY)}"
        ) from None
    return factory(**kwargs)
