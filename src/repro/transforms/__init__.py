"""Feature-transformation substrate.

Snoopy's estimate is a minimum over 1NN Bayes-error estimates computed on
top of a catalog of feature transformations (Section IV).  The paper uses
publicly downloadable pre-trained embeddings (Tables III and IV); with no
network access, this package substitutes :class:`SimulatedEmbedding` —
deterministic transformations whose *fidelity* knob controls exactly the
properties the paper's theory cares about (transformation bias, 1NN
convergence speed) and whose *cost* knob drives the runtime comparisons.

Classical transformations (identity, PCA, random projection, NCA) are
implemented for real on top of numpy.
"""

from repro.transforms.base import (
    FeatureTransform,
    FittedCatalog,
    fit_on,
    is_supervised,
)
from repro.transforms.catalog import (
    EmbeddingSpec,
    TEXT_EMBEDDINGS,
    VISION_EMBEDDINGS,
    text_catalog,
    vision_catalog,
)
from repro.transforms.linear import (
    IdentityTransform,
    PCATransform,
    RandomProjectionTransform,
    StandardizeTransform,
)
from repro.transforms.nca import NCATransform
from repro.transforms.pretrained import SimulatedEmbedding
from repro.transforms.store import EmbeddingStore, StoreStats

__all__ = [
    "EmbeddingSpec",
    "EmbeddingStore",
    "FeatureTransform",
    "FittedCatalog",
    "IdentityTransform",
    "NCATransform",
    "PCATransform",
    "RandomProjectionTransform",
    "SimulatedEmbedding",
    "StandardizeTransform",
    "StoreStats",
    "TEXT_EMBEDDINGS",
    "VISION_EMBEDDINGS",
    "fit_on",
    "is_supervised",
    "text_catalog",
    "vision_catalog",
]
