"""kNN-extrapolation estimator (Snapp & Xu 1996).

Fits the asymptotic expansion of the finite-sample kNN error,
``R(n) ~ R_inf + c * n^(-2/d)``, to 1NN errors measured on a grid of
training-set sizes, and reports the fitted ``R_inf`` mapped through the
Cover–Hart bound.  As the paper notes, the sample complexity of this fit
is exponential in the intrinsic dimension, so it is included for the
estimator comparison rather than as a practical workhorse.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BayesErrorEstimator,
    BEREstimate,
    register_estimator,
)
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import DataValidationError, EstimatorError
from repro.knn.progressive import ProgressiveOneNN
from repro.rng import ensure_rng


@register_estimator("knn_extrapolation")
class KNNExtrapolationEstimator(BayesErrorEstimator):
    """Fit ``R(n) = R_inf + c n^(-2/d)`` to a measured 1NN curve.

    Parameters
    ----------
    num_grid_points:
        Number of training-set sizes at which the error is measured
        (geometrically spaced).
    effective_dim:
        ``d`` in the exponent; ``None`` fits it as a free parameter
        (bounded to [1, 100]).
    """

    def __init__(
        self,
        num_grid_points: int = 8,
        effective_dim: float | None = None,
        metric: str = "euclidean",
        seed: int = 0,
    ):
        if num_grid_points < 3:
            raise DataValidationError("need at least 3 grid points to fit")
        self.name = "knn_extrapolation"
        self.num_grid_points = num_grid_points
        self.effective_dim = effective_dim
        self.metric = metric
        self.seed = seed

    def measure_curve(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """1NN test errors at geometrically spaced training sizes."""
        rng = ensure_rng(self.seed)
        order = rng.permutation(len(train_x))
        sizes = np.unique(
            np.geomspace(
                max(8, len(train_x) // 2**self.num_grid_points),
                len(train_x),
                num=self.num_grid_points,
            ).astype(int)
        )
        evaluator = ProgressiveOneNN(test_x, test_y, metric=self.metric)
        errors = []
        consumed = 0
        for size in sizes:
            chunk = order[consumed:size]
            evaluator.partial_fit(train_x[chunk], train_y[chunk])
            consumed = size
            errors.append(evaluator.error())
        return sizes.astype(float), np.array(errors)

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
        sizes, errors = self.measure_curve(train_x, train_y, test_x, test_y)
        if len(sizes) < 3:
            raise EstimatorError(
                "knn_extrapolation: training set too small for a curve fit"
            )
        r_inf, coeff, dim = self._fit(sizes, errors)
        r_inf = float(np.clip(r_inf, 0.0, 1.0))
        lower = cover_hart_lower_bound(r_inf, num_classes)
        return BEREstimate(
            value=lower,
            lower=lower,
            upper=r_inf,
            details={
                "r_infinity": r_inf,
                "coefficient": coeff,
                "effective_dim": dim,
                "curve_sizes": sizes.tolist(),
                "curve_errors": errors.tolist(),
            },
        )

    def _fit(
        self, sizes: np.ndarray, errors: np.ndarray
    ) -> tuple[float, float, float]:
        from scipy.optimize import curve_fit

        p0 = [max(errors[-1], 1e-4), max(errors[0] - errors[-1], 1e-4)]
        if self.effective_dim is not None:
            exponent = -2.0 / self.effective_dim

            def model(n, r_inf, coeff):
                return r_inf + coeff * n**exponent

            bounds = ([0.0, 0.0], [1.0, np.inf])
        else:

            def model(n, r_inf, coeff, dim):
                return r_inf + coeff * n ** (-2.0 / dim)

            p0.append(8.0)
            bounds = ([0.0, 0.0, 1.0], [1.0, np.inf, 100.0])
        try:
            params, _ = curve_fit(
                model, sizes, errors, p0=p0, bounds=bounds, maxfev=20_000
            )
        except RuntimeError as exc:  # curve_fit failed to converge
            raise EstimatorError(f"knn_extrapolation fit failed: {exc}") from exc
        dim = self.effective_dim if self.effective_dim is not None else params[2]
        return float(params[0]), float(params[1]), float(dim)
