"""Shared fixtures: small calibrated tasks, catalogs and noisy variants.

Heavy fixtures are session-scoped; tests must not mutate them (derive
copies via ``Dataset.with_noisy_labels`` / ``subsample`` instead).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import GaussianMixtureTask
from repro.transforms.base import FittedCatalog
from repro.transforms.linear import IdentityTransform, PCATransform
from repro.transforms.pretrained import SimulatedEmbedding


@pytest.fixture(scope="session")
def task():
    """A small 4-class mixture task with known BER (~5%)."""
    task = GaussianMixtureTask(
        num_classes=4, latent_dim=4, class_sep=2.2, clutter_dim=12, seed=7
    )
    return task


@pytest.fixture(scope="session")
def dataset(task):
    """600 train / 200 test draw from the session task."""
    return task.sample_dataset(600, 200, name="unit_task", rng=0)


@pytest.fixture(scope="session")
def hard_task():
    """A deliberately hard binary task (BER ~ 0.25)."""
    return GaussianMixtureTask(
        num_classes=2, latent_dim=3, class_sep=0.9, clutter_dim=8, seed=11
    )


@pytest.fixture(scope="session")
def hard_dataset(hard_task):
    return hard_task.sample_dataset(500, 200, name="hard_task", rng=1)


@pytest.fixture()
def catalog(dataset):
    """A tiny fitted catalog: identity + PCA + 3 simulated embeddings."""
    projection = dataset.oracle.latent_projection
    transforms = [
        IdentityTransform(dataset.raw_dim),
        PCATransform(8),
        SimulatedEmbedding(
            "emb_low", 16, fidelity=0.3, cost_per_sample=1e-4,
            latent_projection=projection, seed=1,
        ),
        SimulatedEmbedding(
            "emb_mid", 16, fidelity=0.6, cost_per_sample=3e-4,
            latent_projection=projection, seed=2,
        ),
        SimulatedEmbedding(
            "emb_high", 16, fidelity=0.92, cost_per_sample=1e-3,
            latent_projection=projection, seed=3,
        ),
    ]
    return FittedCatalog(transforms).fit(dataset.train_x)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test (order-independent)."""
    return np.random.default_rng(1234)
