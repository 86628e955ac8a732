"""Evaluate a BER estimator against the known noise evolution (FeeBee)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import Dataset
from repro.estimators.base import BayesErrorEstimator
from repro.exceptions import DataValidationError
from repro.noise.models import inject_uniform_noise
from repro.noise.theory import ber_after_uniform_noise
from repro.rng import SeedLike, ensure_rng
from repro.transforms.base import FeatureTransform


@dataclass(frozen=True)
class NoisePoint:
    """One evaluation point of the noise series."""

    rho: float
    true_ber: float
    estimate: float

    @property
    def deviation(self) -> float:
        """Signed estimate - truth (negative: the estimate is below)."""
        return self.estimate - self.true_ber


@dataclass
class EstimatorEvaluation:
    """Full noise-series evaluation of one estimator on one task."""

    estimator_name: str
    dataset_name: str
    transform_name: str
    points: list[NoisePoint]

    @property
    def rhos(self) -> np.ndarray:
        return np.array([p.rho for p in self.points])

    @property
    def estimates(self) -> np.ndarray:
        return np.array([p.estimate for p in self.points])

    @property
    def true_bers(self) -> np.ndarray:
        return np.array([p.true_ber for p in self.points])

    def mean_absolute_deviation(self) -> float:
        return float(np.mean(np.abs(self.estimates - self.true_bers)))

    def root_mean_squared_deviation(self) -> float:
        return float(np.sqrt(np.mean((self.estimates - self.true_bers) ** 2)))

    def underestimation_rate(self, slack: float = 0.0) -> float:
        """Fraction of points where the estimate fell below the true BER.

        A lower-bound-style estimator running in the paper's Condition 8
        regime should keep this near zero.
        """
        return float(np.mean(self.estimates < self.true_bers - slack))

    def slope_fidelity(self) -> float:
        """Correlation between estimate evolution and the true evolution.

        FeeBee's key criterion: a good estimator tracks the *shape* of
        the known BER evolution even if its level is offset.
        """
        if len(self.points) < 3:
            raise DataValidationError("need >= 3 noise points for slope fidelity")
        matrix = np.corrcoef(self.estimates, self.true_bers)
        return float(matrix[0, 1])


def evaluate_estimator_over_noise(
    estimator: BayesErrorEstimator,
    dataset: Dataset,
    rhos: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8),
    transform: FeatureTransform | None = None,
    rng: SeedLike = None,
) -> EstimatorEvaluation:
    """Run the FeeBee protocol: estimate at each uniform-noise level.

    Requires a dataset with a ground-truth oracle; the true noisy BER at
    each level comes from Lemma 2.1 applied to the oracle's clean BER.
    """
    if dataset.oracle is None:
        raise DataValidationError("FeeBee evaluation needs an oracle dataset")
    rng = ensure_rng(rng)
    train_x, test_x = dataset.train_x, dataset.test_x
    if transform is not None:
        if not transform.fitted:
            transform.fit(train_x)
        train_x = transform.transform(train_x)
        test_x = transform.transform(test_x)
    clean_ber = dataset.oracle.true_ber
    points = []
    for rho in rhos:
        train = inject_uniform_noise(
            dataset.train_y, rho, dataset.num_classes, rng=rng
        )
        test = inject_uniform_noise(
            dataset.test_y, rho, dataset.num_classes, rng=rng
        )
        estimate = estimator.estimate(
            train_x,
            train.noisy_labels,
            test_x,
            test.noisy_labels,
            dataset.num_classes,
        )
        points.append(
            NoisePoint(
                rho=rho,
                true_ber=ber_after_uniform_noise(
                    clean_ber, rho, dataset.num_classes
                ),
                estimate=estimate.value,
            )
        )
    return EstimatorEvaluation(
        estimator_name=estimator.name,
        dataset_name=dataset.name,
        transform_name="raw" if transform is None else transform.name,
        points=points,
    )
