"""The Dataset container shared by every component of the library.

A :class:`Dataset` is an immutable-by-convention bundle of train/test
features and labels plus task metadata.  Noisy variants are produced with
:meth:`Dataset.with_noisy_labels`, which keeps the clean labels around so
the cleaning simulator can act as the human-labeler oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import DataValidationError
from repro.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.datasets.synthetic import TaskOracle


def _int_labels(labels, what: str) -> np.ndarray:
    """Cast labels to int64, refusing values the cast would change.

    Integral floats such as ``1.0`` load; ``0.5`` or NaN would be
    truncated (or turned into garbage) by the cast, so they raise.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind in "fc" and not (
        np.isfinite(labels).all() and (labels == np.round(labels)).all()
    ):
        raise DataValidationError(
            f"{what} labels must be integral class ids "
            "(found non-integral or non-finite values)"
        )
    return labels.astype(np.int64, copy=False)


@dataclass
class Dataset:
    """Features, labels and task metadata for one classification task.

    Attributes
    ----------
    name:
        Task identifier (e.g. ``"cifar10"`` or ``"cifar10_aggre"``).
    train_x, train_y, test_x, test_y:
        Feature matrices and integer label vectors.
    num_classes:
        ``C = |Y|``.
    modality:
        "vision" or "text"; selects the transformation catalog.
    sota_error:
        Published state-of-the-art error for the task (Table I), used by
        the bounds of Figures 4/5.  ``None`` when not applicable.
    oracle:
        The generator's :class:`TaskOracle` carrying the true BER and the
        latent projection.  ``None`` for externally supplied data.
    clean_train_y, clean_test_y:
        The uncorrupted labels when noise was injected, else ``None``.
    extras:
        Free-form metadata (noise level, transition matrix, ...).
    """

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int
    modality: str = "vision"
    sota_error: float | None = None
    oracle: "TaskOracle | None" = None
    train_latents: np.ndarray | None = None
    test_latents: np.ndarray | None = None
    clean_train_y: np.ndarray | None = None
    clean_test_y: np.ndarray | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=np.float64)
        self.test_x = np.asarray(self.test_x, dtype=np.float64)
        self.train_y = _int_labels(self.train_y, "train")
        self.test_y = _int_labels(self.test_y, "test")
        if self.train_x.ndim != 2 or self.test_x.ndim != 2:
            raise DataValidationError("features must be 2-D matrices")
        if not np.isfinite(self.train_x).all() or not np.isfinite(
            self.test_x
        ).all():
            raise DataValidationError(
                "features must be finite (found NaN or infinity); clean or "
                "impute them first, e.g. with "
                "repro.noise.features.inject_missing_features"
            )
        if len(self.train_x) != len(self.train_y):
            raise DataValidationError("train features/labels length mismatch")
        if len(self.test_x) != len(self.test_y):
            raise DataValidationError("test features/labels length mismatch")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise DataValidationError("train/test feature dimension mismatch")
        if self.num_classes < 2:
            raise DataValidationError("num_classes must be >= 2")
        for labels, split in ((self.train_y, "train"), (self.test_y, "test")):
            if len(labels) and (
                labels.min() < 0 or labels.max() >= self.num_classes
            ):
                raise DataValidationError(f"{split} labels out of range")
        if self.modality not in ("vision", "text"):
            raise DataValidationError(
                f"modality must be 'vision' or 'text', got {self.modality!r}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_train(self) -> int:
        return len(self.train_y)

    @property
    def num_test(self) -> int:
        return len(self.test_y)

    @property
    def raw_dim(self) -> int:
        return self.train_x.shape[1]

    @property
    def true_ber(self) -> float | None:
        """Ground-truth Bayes error of the *clean* task, if known."""
        return None if self.oracle is None else self.oracle.true_ber

    @property
    def is_noisy(self) -> bool:
        return self.clean_train_y is not None or self.clean_test_y is not None

    def label_noise_rate(self) -> float:
        """Realized fraction of currently corrupted labels (train + test)."""
        if not self.is_noisy:
            return 0.0
        clean_train = (
            self.clean_train_y if self.clean_train_y is not None else self.train_y
        )
        clean_test = (
            self.clean_test_y if self.clean_test_y is not None else self.test_y
        )
        wrong = int(np.sum(self.train_y != clean_train)) + int(
            np.sum(self.test_y != clean_test)
        )
        return wrong / (self.num_train + self.num_test)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_noisy_labels(
        self,
        noisy_train_y: np.ndarray,
        noisy_test_y: np.ndarray,
        name_suffix: str = "noisy",
        extras: dict[str, Any] | None = None,
    ) -> "Dataset":
        """Return a copy with corrupted labels and the clean ones retained."""
        noisy_train_y = _int_labels(noisy_train_y, "noisy train")
        noisy_test_y = _int_labels(noisy_test_y, "noisy test")
        if len(noisy_train_y) != self.num_train:
            raise DataValidationError("noisy_train_y length mismatch")
        if len(noisy_test_y) != self.num_test:
            raise DataValidationError("noisy_test_y length mismatch")
        merged_extras = dict(self.extras)
        merged_extras.update(extras or {})
        return replace(
            self,
            name=f"{self.name}_{name_suffix}",
            train_y=noisy_train_y,
            test_y=noisy_test_y,
            clean_train_y=self.train_y.copy(),
            clean_test_y=self.test_y.copy(),
            extras=merged_extras,
        )

    def subsample(
        self, num_train: int, num_test: int | None = None, rng: SeedLike = None
    ) -> "Dataset":
        """Random subsample of the splits (without replacement)."""
        rng = ensure_rng(rng)
        if num_train > self.num_train:
            raise DataValidationError(
                f"num_train {num_train} exceeds available {self.num_train}"
            )
        num_test = self.num_test if num_test is None else num_test
        if num_test > self.num_test:
            raise DataValidationError(
                f"num_test {num_test} exceeds available {self.num_test}"
            )
        train_idx = rng.choice(self.num_train, size=num_train, replace=False)
        test_idx = rng.choice(self.num_test, size=num_test, replace=False)
        return replace(
            self,
            train_x=self.train_x[train_idx],
            train_y=self.train_y[train_idx],
            test_x=self.test_x[test_idx],
            test_y=self.test_y[test_idx],
            train_latents=(
                None
                if self.train_latents is None
                else self.train_latents[train_idx]
            ),
            test_latents=(
                None if self.test_latents is None else self.test_latents[test_idx]
            ),
            clean_train_y=(
                None
                if self.clean_train_y is None
                else self.clean_train_y[train_idx]
            ),
            clean_test_y=(
                None if self.clean_test_y is None else self.clean_test_y[test_idx]
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ber = "unknown" if self.true_ber is None else f"{self.true_ber:.4f}"
        return (
            f"Dataset({self.name!r}, C={self.num_classes}, "
            f"train={self.num_train}, test={self.num_test}, ber={ber})"
        )
