"""GHP: generalized Henze–Penrose divergence estimator (Sekeh et al. 2020).

For a pair of classes, the Friedman–Rafsky statistic — the number of
cross-class edges in the Euclidean minimal spanning tree over the pooled
points — consistently estimates the Henze–Penrose divergence, which in
turn brackets the pairwise Bayes error (Berisha et al. 2016):

    1/2 - 1/2 * sqrt(u)  <=  eps_ij  <=  1/2 - 1/2 * u,
    u = 4 p q D_pq + (p - q)^2,
    D_hat = max(0, 1 - R * (m + n) / (2 m n)),

with p, q the pair priors (p + q = 1 within the pair), m, n the class
sample counts and R the cross-edge count.  Multiclass bounds follow the
pairwise aggregation of Sekeh et al.: the total BER is bounded above by
the prior-weighted sum of pairwise errors and below by their maximum.

The MST is built with scipy's sparse ``minimum_spanning_tree`` on the
dense pairwise distance matrix — exact and adequate at this scale.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BayesErrorEstimator,
    BEREstimate,
    register_estimator,
)
from repro.knn.metrics import euclidean_distances


def friedman_rafsky_cross_edges(
    points_a: np.ndarray, points_b: np.ndarray
) -> int:
    """Cross-class edge count of the Euclidean MST over the pooled points."""
    from scipy.sparse.csgraph import minimum_spanning_tree

    pooled = np.concatenate([points_a, points_b])
    membership = np.concatenate(
        [np.zeros(len(points_a), dtype=bool), np.ones(len(points_b), dtype=bool)]
    )
    dist = euclidean_distances(pooled, pooled)
    # Break exact ties deterministically so the MST is unique.
    tiny = 1e-12 * (np.arange(len(pooled))[:, None] + 1)
    mst = minimum_spanning_tree(dist + tiny)
    rows, cols = mst.nonzero()
    return int(np.sum(membership[rows] != membership[cols]))


def pairwise_ber_bounds(
    points_a: np.ndarray, points_b: np.ndarray
) -> tuple[float, float]:
    """Henze–Penrose bounds on the *pair-conditional* Bayes error."""
    m, n = len(points_a), len(points_b)
    p, q = m / (m + n), n / (m + n)
    cross = friedman_rafsky_cross_edges(points_a, points_b)
    divergence = max(0.0, 1.0 - cross * (m + n) / (2.0 * m * n))
    u = 4.0 * p * q * divergence + (p - q) ** 2
    u = min(1.0, max(0.0, u))
    lower = 0.5 - 0.5 * np.sqrt(u)
    upper = 0.5 - 0.5 * u
    return float(lower), float(upper)


@register_estimator("ghp")
class GHPEstimator(BayesErrorEstimator):
    """Multiclass BER bounds from pairwise MST statistics.

    ``value`` is the lower bound (the quantity comparable to Snoopy's R̂);
    ``upper`` is the pairwise-sum upper bound.  Class pairs are
    subsampled to ``max_points_per_class`` points each to keep the O(n^2)
    MST tractable.
    """

    def __init__(self, max_points_per_class: int = 400, seed: int = 0):
        self.name = "ghp"
        self.max_points_per_class = max_points_per_class
        self.seed = seed

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
        pooled_x = np.concatenate([train_x, test_x])
        pooled_y = np.concatenate([train_y, test_y])
        rng = np.random.default_rng(self.seed)
        per_class: list[np.ndarray] = []
        priors = np.zeros(num_classes)
        for cls in range(num_classes):
            points = pooled_x[pooled_y == cls]
            priors[cls] = len(points) / len(pooled_x)
            if len(points) > self.max_points_per_class:
                idx = rng.choice(
                    len(points), size=self.max_points_per_class, replace=False
                )
                points = points[idx]
            per_class.append(points)
        lower_total = 0.0
        upper_total = 0.0
        pair_count = 0
        for i in range(num_classes):
            if len(per_class[i]) == 0:
                continue
            for j in range(i + 1, num_classes):
                if len(per_class[j]) == 0:
                    continue
                pair_lower, pair_upper = pairwise_ber_bounds(
                    per_class[i], per_class[j]
                )
                weight = priors[i] + priors[j]
                lower_total = max(lower_total, weight * pair_lower)
                upper_total += weight * pair_upper
                pair_count += 1
        upper_total = min(1.0, upper_total)
        return BEREstimate(
            value=lower_total,
            lower=lower_total,
            upper=upper_total,
            details={"pairs_evaluated": pair_count},
        )
