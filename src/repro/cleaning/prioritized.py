"""Prioritized (disagreement-first) label cleaning.

The paper's end-to-end use case cleans labels uniformly at random; its
data-centric-AI discussion suggests the feasibility signal can guide
data actions more directly.  This module implements that idea: rank
samples by how suspicious their current label looks under the 1NN
structure Snoopy already maintains, and clean the most suspicious first.

The suspicion score for a training sample is the fraction of its k
nearest same-split neighbors that disagree with its current label (a
classic noisy-label filter); test samples are scored by disagreement
with their nearest training neighbor.  Cleaning in this order finds
actually-flipped labels far faster than random order at equal human
effort — the ablation benchmark quantifies the saving.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.simulator import CleaningSession, CleaningStep
from repro.datasets.base import Dataset
from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.rng import SeedLike, ensure_rng
from repro.transforms.base import FeatureTransform


def disagreement_scores(
    dataset: Dataset,
    transform: FeatureTransform | None = None,
    k: int = 5,
    metric: str = "euclidean",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample label-suspicion scores in [0, 1] for (train, test).

    Higher = more likely mislabeled.  Scores are computed on the
    transformed features when a transform is given (recommended: the
    winning embedding of a Snoopy run).
    """
    if k < 1:
        raise DataValidationError("k must be >= 1")
    if transform is not None:
        if not transform.fitted:
            transform.fit(dataset.train_x)
        train_f = transform.transform(dataset.train_x)
        test_f = transform.transform(dataset.test_x)
    else:
        train_f, test_f = dataset.train_x, dataset.test_x
    # Exact search: suspicion scoring leans on leave-one-out queries.
    index = BruteForceKNN(metric=metric).fit(train_f, dataset.train_y)
    k_eff = min(k, max(1, len(train_f) - 1))
    _, neighbor_idx = index.kneighbors(train_f, k=k_eff, exclude_self=True)
    neighbor_labels = dataset.train_y[neighbor_idx]
    train_scores = np.mean(
        neighbor_labels != dataset.train_y[:, None], axis=1
    )
    _, test_nn = index.kneighbors(test_f, k=k_eff)
    test_neighbor_labels = dataset.train_y[test_nn]
    test_scores = np.mean(
        test_neighbor_labels != dataset.test_y[:, None], axis=1
    )
    return train_scores, test_scores


class PrioritizedCleaningSession(CleaningSession):
    """A cleaning session that examines suspicious samples first.

    Drop-in replacement for :class:`CleaningSession`: the examination
    order is descending suspicion (ties broken randomly) instead of
    uniform.  Scores are computed once up front from the *noisy* labels,
    matching the realistic workflow of ranking before a cleaning pass.
    """

    def __init__(
        self,
        dataset: Dataset,
        transform: FeatureTransform | None = None,
        k: int = 5,
        metric: str = "euclidean",
        rng: SeedLike = None,
    ):
        super().__init__(dataset, rng=rng)
        rng = ensure_rng(rng)
        train_scores, test_scores = disagreement_scores(
            dataset, transform=transform, k=k, metric=metric
        )
        combined = np.concatenate([train_scores, test_scores])
        # Random jitter breaks ties without disturbing the ranking.
        jitter = rng.random(len(combined)) * 1e-9
        self._order = np.argsort(-(combined + jitter), kind="stable")


def precision_at_fraction(
    session: CleaningSession, fraction: float
) -> tuple[CleaningStep, float]:
    """Clean a fraction and report what share of examined labels was wrong.

    Utility for the prioritization ablation: a perfect ranker achieves
    precision ~ min(1, noise / fraction); a random order achieves
    precision ~ noise.
    """
    before_wrong = session.remaining_noise_rate() * session.total_samples
    step = session.clean_fraction(fraction)
    after_wrong = session.remaining_noise_rate() * session.total_samples
    fixed = before_wrong - after_wrong
    precision = fixed / max(step.num_examined, 1)
    return step, float(precision)
