"""Min-aggregation and the regime analysis of Section IV-B.

Snoopy aggregates per-transformation estimates by taking the minimum.
The paper justifies this through three quantities per transformation f:

- asymptotic tightness  ``Delta_f = R*_{f(X)} - lim_n R̂_{f(X),n}``   (Eq. 5)
- transformation bias   ``delta_f = R*_{f(X)} - R*_X``               (Eq. 6)
- n-sample gap          ``gamma_{f,n} = R̂_{f(X),n} - lim_n R̂``      (Eq. 7)

Condition 8 (``delta_f + gamma_{f,n} - Delta_f >= 0`` for all f) makes
the min a valid *lower* bound on the BER; Condition 9 additionally
involves the identity transform's tightness.  None of the three terms is
observable on real data — but on this library's synthetic tasks the true
BER is known, so :func:`estimate_regime_quantities` can measure them
empirically (Figures 14–17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.base import BEREstimate
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.estimators.de_knn import DeKNNEstimator
from repro.exceptions import DataValidationError
from repro.knn.progressive import ProgressiveOneNN
from repro.rng import SeedLike, ensure_rng


def aggregate_min(estimates: dict[str, BEREstimate]) -> tuple[str, BEREstimate]:
    """The system's aggregation rule: keep the minimal estimate."""
    if not estimates:
        raise DataValidationError("cannot aggregate an empty estimate set")
    best_name = min(estimates, key=lambda name: estimates[name].value)
    return best_name, estimates[best_name]


@dataclass(frozen=True)
class RegimeQuantities:
    """Empirical estimates of (Delta_f, delta_f, gamma_{f,n}) for one f."""

    transform_name: str
    ber_raw: float  # R*_X (oracle)
    ber_transformed: float  # R*_{f(X)} (plug-in estimate)
    estimator_limit: float  # lim_n R̂_{f(X),n} (extrapolated)
    estimate_at_n: float  # R̂_{f(X),n}
    samples: int

    @property
    def asymptotic_tightness(self) -> float:
        """Delta_f (Eq. 5); >= 0 by Cover–Hart."""
        return self.ber_transformed - self.estimator_limit

    @property
    def transformation_bias(self) -> float:
        """delta_f (Eq. 6); >= 0 for deterministic transformations."""
        return self.ber_transformed - self.ber_raw

    @property
    def finite_sample_gap(self) -> float:
        """gamma_{f,n} (Eq. 7); >= 0 in expectation."""
        return self.estimate_at_n - self.estimator_limit

    @property
    def condition_8_margin(self) -> float:
        """delta_f + gamma_{f,n} - Delta_f; Condition 8 needs this >= 0."""
        return (
            self.transformation_bias
            + self.finite_sample_gap
            - self.asymptotic_tightness
        )


def condition_8_holds(quantities: list[RegimeQuantities]) -> bool:
    """Sufficient condition for R̂ to never underestimate the BER."""
    return all(q.condition_8_margin >= 0 for q in quantities)


def condition_9_holds(
    quantities: list[RegimeQuantities], identity_tightness: float
) -> bool:
    """Sufficient condition for R̂ to beat the raw-feature estimator."""
    return all(
        q.condition_8_margin + identity_tightness >= 0 for q in quantities
    )


def estimate_regime_quantities(
    dataset,
    transform,
    num_curve_points: int = 6,
    plug_in_k: int = 25,
    metric: str = "euclidean",
    rng: SeedLike = None,
) -> RegimeQuantities:
    """Measure (Delta_f, delta_f, gamma_{f,n}) on a known-BER dataset.

    - ``R*_X`` comes from the dataset's oracle.
    - ``R*_{f(X)}`` is approximated by a DE-kNN posterior plug-in on the
      transformed features (consistent; k is kept moderate).
    - ``lim_n R̂`` is approximated by a log-linear extrapolation of the
      Cover–Hart estimates to 64x the available data, a pragmatic stand-
      in for the true limit on a finite sample.

    These are *empirical* surrogates — the point of Figures 14-17 is
    illustration, not exactness, as the paper itself emphasizes that the
    quantities are unobservable in practice.
    """
    if dataset.oracle is None:
        raise DataValidationError(
            "regime quantities need a dataset with a ground-truth oracle"
        )
    rng = ensure_rng(rng)
    if not transform.fitted:
        transform.fit(dataset.train_x)
    train_f = transform.transform(dataset.train_x)
    test_f = transform.transform(dataset.test_x)
    num_classes = dataset.num_classes
    # Convergence curve of the Cover–Hart estimate.
    order = rng.permutation(len(train_f))
    sizes = np.unique(
        np.geomspace(
            max(16, len(train_f) // 2**num_curve_points),
            len(train_f),
            num=num_curve_points,
        ).astype(int)
    )
    evaluator = ProgressiveOneNN(test_f, dataset.test_y, metric=metric)
    estimates = []
    consumed = 0
    for size in sizes:
        evaluator.partial_fit(
            train_f[order[consumed:size]], dataset.train_y[order[consumed:size]]
        )
        consumed = size
        estimates.append(
            cover_hart_lower_bound(evaluator.error(), num_classes)
        )
    estimates = np.array(estimates)
    # Extrapolated limit of the estimator (log-linear, clipped at 0).
    from repro.core.guidance import fit_log_linear

    positive = estimates > 0
    if positive.sum() >= 3:
        fit = fit_log_linear(sizes[positive], estimates[positive])
        limit = fit.predict_error(64 * sizes[-1])
    else:
        limit = float(estimates[-1])
    limit = float(min(limit, estimates[-1]))
    # Plug-in estimate of R*_{f(X)}.
    plug_in = DeKNNEstimator(k=plug_in_k, metric=metric).estimate(
        train_f, dataset.train_y, test_f, dataset.test_y, num_classes
    )
    return RegimeQuantities(
        transform_name=transform.name,
        ber_raw=dataset.oracle.true_ber,
        ber_transformed=plug_in.value,
        estimator_limit=limit,
        estimate_at_n=float(estimates[-1]),
        samples=int(sizes[-1]),
    )
