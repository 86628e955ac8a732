"""Unit tests for the result containers and IncrementalState."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalState
from repro.core.result import (
    BEREstimate,
    ConvergenceCurve,
    FeasibilityReport,
    FeasibilitySignal,
    TransformResult,
)
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import DataValidationError, EstimatorError


class TestBEREstimate:
    def test_valid(self):
        estimate = BEREstimate(0.2, lower=0.1, upper=0.4)
        assert estimate.value == 0.2

    def test_out_of_range_raises(self):
        with pytest.raises(EstimatorError):
            BEREstimate(1.5)

    def test_non_finite_raises(self):
        with pytest.raises(EstimatorError):
            BEREstimate(float("nan"))

    def test_crossed_bounds_raise(self):
        with pytest.raises(EstimatorError):
            BEREstimate(0.3, lower=0.5, upper=0.2)


class TestConvergenceCurve:
    def test_final_properties(self):
        curve = ConvergenceCurve(
            "t", np.array([10, 20]), np.array([0.5, 0.4]), np.array([0.3, 0.25])
        )
        assert curve.final_size == 20
        assert curve.final_error == 0.4
        assert curve.final_estimate == 0.25

    def test_length_mismatch_raises(self):
        with pytest.raises(DataValidationError):
            ConvergenceCurve("t", np.array([10]), np.array([0.5, 0.4]), np.array([0.3]))

    def test_empty_curve(self):
        curve = ConvergenceCurve("t", np.array([]), np.array([]), np.array([]))
        assert curve.final_size == 0
        assert np.isnan(curve.final_error)


class TestFeasibilityReport:
    def _report(self, signal=FeasibilitySignal.REALISTIC):
        return FeasibilityReport(
            dataset_name="d", target_accuracy=0.9, signal=signal,
            ber_estimate=0.05, best_transform="t", gap=0.05,
            per_transform=[
                TransformResult("t", 100, 0.09, BEREstimate(0.05), 1.0)
            ],
        )

    def test_best_accuracy(self):
        assert self._report().best_accuracy == pytest.approx(0.95)

    def test_is_realistic(self):
        assert self._report().is_realistic
        assert not self._report(FeasibilitySignal.UNREALISTIC).is_realistic

    def test_estimates_by_transform(self):
        assert self._report().estimates_by_transform() == {"t": 0.05}

    def test_signal_str(self):
        assert str(FeasibilitySignal.REALISTIC) == "REALISTIC"
        assert str(FeasibilitySignal.UNREALISTIC) == "UNREALISTIC"


class TestIncrementalState:
    @pytest.fixture()
    def state(self, rng):
        nearest = {name: rng.integers(0, 50, size=20) for name in ("a", "b")}
        train_labels = rng.integers(0, 3, size=50)
        test_labels = rng.integers(0, 3, size=20)
        return IncrementalState(nearest, train_labels, test_labels, 3)

    def test_empty_caches_raise(self):
        with pytest.raises(DataValidationError):
            IncrementalState({}, np.zeros(3), np.zeros(1), 3)

    def test_estimates_match_cover_hart(self, state):
        estimates = state.estimates()
        assert set(estimates) == {"a", "b"}
        for value in estimates.values():
            assert 0.0 <= value <= 1.0

    def test_ber_estimate_is_min(self, state):
        _, best = state.ber_estimate()
        assert best == min(state.estimates().values())

    def test_signal_threshold(self, state):
        _, estimate = state.ber_estimate()
        # Just-reachable target (epsilon guards float round-trip).
        assert state.signal(1.0 - estimate - 1e-9) is FeasibilitySignal.REALISTIC
        assert (
            state.signal(1.0 - estimate + 0.01) is FeasibilitySignal.UNREALISTIC
        )

    def test_invalid_target_raises(self, state):
        with pytest.raises(DataValidationError):
            state.signal(0.0)

    def test_apply_cleaning_propagates_to_all_caches(self, state):
        before = state.estimates()
        state.apply_cleaning(
            np.arange(50), np.zeros(50, dtype=int),
            np.arange(20), np.zeros(20, dtype=int),
        )
        after = state.estimates()
        # All labels zero: every cache now reports zero error -> zero BER.
        assert all(v == 0.0 for v in after.values())
        assert before != after


class TestCoverHartRoundTrip:
    def test_incremental_estimate_consistency(self, rng):
        nn = rng.integers(0, 30, size=10)
        train_labels = rng.integers(0, 2, size=30)
        test_labels = rng.integers(0, 2, size=10)
        state = IncrementalState({"x": nn}, train_labels, test_labels, 2)
        error = np.mean(train_labels[nn] != test_labels)
        assert state.estimates()["x"] == pytest.approx(
            cover_hart_lower_bound(error, 2)
        )
