"""Unit tests for quantile bands, Wilson intervals and dataset I/O."""

import numpy as np
import pytest

from repro.datasets.io import load_dataset, save_dataset
from repro.estimators.confidence import (
    _Z_95,
    ber_estimate_interval,
    wilson_interval,
)
from repro.estimators.cover_hart import OneNNEstimator
from repro.exceptions import DataValidationError
from repro.feebee.variance import estimate_with_quantiles


class TestWilsonInterval:
    def test_contains_point(self):
        interval = wilson_interval(0.2, 100)
        assert interval.low <= 0.2 <= interval.high
        assert interval.contains(0.2)

    def test_width_shrinks_with_samples(self):
        small = wilson_interval(0.2, 50)
        large = wilson_interval(0.2, 5000)
        assert large.width < small.width

    def test_extreme_rates_stay_in_unit_interval(self):
        assert wilson_interval(0.0, 10).low == pytest.approx(0.0, abs=1e-12)
        assert wilson_interval(1.0, 10).high == pytest.approx(1.0, abs=1e-12)

    def test_higher_confidence_wider(self):
        narrow = wilson_interval(0.3, 200, confidence=0.8)
        wide = wilson_interval(0.3, 200, confidence=0.99)
        assert wide.width > narrow.width

    def test_validation(self):
        with pytest.raises(DataValidationError):
            wilson_interval(1.5, 10)
        with pytest.raises(DataValidationError):
            wilson_interval(0.2, 0)
        with pytest.raises(DataValidationError):
            wilson_interval(0.2, 10, confidence=1.0)

    @pytest.mark.parametrize(
        "confidence", [1e-6, 0.5, 0.9, 0.95, 0.99, 0.999999]
    )
    @pytest.mark.parametrize(
        ("error_rate", "num_samples"),
        [(0.0, 1), (0.2, 100), (0.5, 37), (0.013, 10_000), (1.0, 7)],
    )
    def test_bit_identical_to_norm_ppf(
        self, error_rate, num_samples, confidence
    ):
        from scipy.stats import norm

        z = float(norm.ppf(0.5 + confidence / 2.0))
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
        interval = wilson_interval(error_rate, num_samples, confidence)
        assert interval.low == max(0.0, center - margin)
        assert interval.high == min(1.0, center + margin)

    def test_default_z_is_the_scipy_quantile(self):
        # The 95% band reads z from a constant so a study imports no
        # scipy; it must be the very float scipy computes.
        from scipy.special import ndtri

        assert _Z_95 == float(ndtri(0.975)) == float(ndtri(0.5 + 0.95 / 2.0))

    def test_coverage_monte_carlo(self, rng):
        # ~95% of Wilson intervals over binomial draws cover the truth.
        truth = 0.15
        n = 200
        covered = 0
        runs = 300
        for _ in range(runs):
            errors = rng.random(n) < truth
            interval = wilson_interval(errors.mean(), n)
            covered += interval.contains(truth)
        assert covered / runs > 0.9


class TestBEREstimateInterval:
    def test_endpoints_through_cover_hart(self):
        interval = ber_estimate_interval(0.2, 500, 10)
        from repro.estimators.cover_hart import cover_hart_lower_bound

        assert interval.point == pytest.approx(
            cover_hart_lower_bound(0.2, 10)
        )
        assert interval.low <= interval.point <= interval.high

    def test_small_test_set_band_is_wide(self):
        # The SST2 effect: a sub-1K test set yields a visibly wider band
        # than a 10K test set at the same error.
        small = ber_estimate_interval(0.1, 200, 2)
        large = ber_estimate_interval(0.1, 10_000, 2)
        assert small.width > 3 * large.width


class TestQuantileBands:
    def test_band_contains_median(self, dataset):
        band = estimate_with_quantiles(
            OneNNEstimator(), dataset, num_runs=6, rng=0
        )
        assert band.low <= band.median <= band.high
        assert len(band.values) == 6
        assert band.contains(band.median)

    def test_smaller_test_set_more_spread(self, dataset):
        stable = estimate_with_quantiles(
            OneNNEstimator(), dataset, num_runs=8,
            subsample_test=dataset.num_test, rng=0,
        )
        unstable = estimate_with_quantiles(
            OneNNEstimator(), dataset, num_runs=8,
            subsample_test=30, rng=0,
        )
        assert unstable.spread >= stable.spread

    def test_validation(self, dataset):
        with pytest.raises(DataValidationError):
            estimate_with_quantiles(OneNNEstimator(), dataset, num_runs=1)
        with pytest.raises(DataValidationError):
            estimate_with_quantiles(
                OneNNEstimator(), dataset, quantiles=(0.9, 0.1)
            )

    def test_deterministic_with_seed(self, dataset):
        a = estimate_with_quantiles(
            OneNNEstimator(), dataset, num_runs=4, rng=11
        )
        b = estimate_with_quantiles(
            OneNNEstimator(), dataset, num_runs=4, rng=11
        )
        np.testing.assert_array_equal(a.values, b.values)


class TestDatasetIO:
    def test_roundtrip(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "unit_task")
        assert path.suffix == ".npz"
        loaded = load_dataset(path)
        assert loaded.name == dataset.name
        assert loaded.num_classes == dataset.num_classes
        np.testing.assert_array_equal(loaded.train_x, dataset.train_x)
        np.testing.assert_array_equal(loaded.test_y, dataset.test_y)

    def test_noisy_roundtrip_keeps_clean_labels(self, dataset, tmp_path):
        from repro.cleaning.workflow import make_noisy_dataset

        noisy = make_noisy_dataset(dataset, 0.3, rng=0)
        path = save_dataset(noisy, tmp_path / "noisy.npz")
        loaded = load_dataset(path)
        assert loaded.is_noisy
        np.testing.assert_array_equal(loaded.clean_train_y, noisy.clean_train_y)
        assert loaded.label_noise_rate() == pytest.approx(
            noisy.label_noise_rate()
        )

    def test_scalar_extras_survive(self, dataset, tmp_path):
        dataset.extras["note"] = "hello"
        dataset.extras["unpicklable"] = object()  # dropped silently
        path = save_dataset(dataset, tmp_path / "x")
        loaded = load_dataset(path)
        assert loaded.extras["note"] == "hello"
        assert "unpicklable" not in loaded.extras
        del dataset.extras["note"], dataset.extras["unpicklable"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_dataset(tmp_path / "nope.npz")

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(DataValidationError):
            load_dataset(path)

    def test_oracle_not_persisted(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "d")
        loaded = load_dataset(path)
        assert loaded.oracle is None
        assert loaded.true_ber is None
