"""Confidence intervals for finite-sample error estimates.

The 1NN test error is a binomial proportion over the test set, so a
Wilson score interval gives a principled finite-sample band around it;
mapping the band endpoints through the (monotone) Cover–Hart formula
yields a confidence band for the BER estimate itself.  Small test sets
(the paper's SST2 discussion) produce visibly wide bands — the numeric
companion to the quantile plots of Section VI-C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import DataValidationError

# The standard normal 0.975 quantile, exactly as ``scipy.special.ndtri``
# returns it, so the default 95% band needs no scipy import.  The
# stdlib's ``NormalDist().inv_cdf(0.975)`` is 1 ulp lower and would move
# every band's last bit.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval around a point estimate."""

    point: float
    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def wilson_interval(
    error_rate: float, num_samples: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial error rate."""
    if not 0.0 <= error_rate <= 1.0:
        raise DataValidationError("error_rate must be in [0, 1]")
    if num_samples < 1:
        raise DataValidationError("num_samples must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise DataValidationError("confidence must be in (0, 1)")
    if confidence == 0.95:
        z = _Z_95
    else:
        # ndtri is the standard normal quantile that ``scipy.stats.norm.ppf``
        # evaluates; scipy.special alone imports in a fraction of the time.
        from scipy.special import ndtri

        z = float(ndtri(0.5 + confidence / 2.0))
    denom = 1.0 + z**2 / num_samples
    center = (error_rate + z**2 / (2 * num_samples)) / denom
    margin = (
        z
        * np.sqrt(
            error_rate * (1 - error_rate) / num_samples
            + z**2 / (4 * num_samples**2)
        )
        / denom
    )
    return ConfidenceInterval(
        point=error_rate,
        low=max(0.0, center - margin),
        high=min(1.0, center + margin),
        confidence=confidence,
    )


def ber_estimate_interval(
    one_nn_error: float,
    num_test_samples: int,
    num_classes: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Confidence band for the Cover–Hart BER estimate.

    The Cover–Hart map is monotone increasing in the 1NN error, so
    transforming the Wilson endpoints yields a valid band for the
    estimate (not for the BER itself — the estimate is a lower bound).
    """
    raw = wilson_interval(one_nn_error, num_test_samples, confidence)
    return ConfidenceInterval(
        point=cover_hart_lower_bound(one_nn_error, num_classes),
        low=cover_hart_lower_bound(raw.low, num_classes),
        high=cover_hart_lower_bound(raw.high, num_classes),
        confidence=confidence,
    )
