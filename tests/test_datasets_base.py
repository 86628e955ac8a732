"""Unit tests for repro.datasets.base.Dataset."""

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.exceptions import DataValidationError


def _make(n_train=30, n_test=10, c=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        name="toy",
        train_x=rng.normal(size=(n_train, dim)),
        train_y=rng.integers(0, c, n_train),
        test_x=rng.normal(size=(n_test, dim)),
        test_y=rng.integers(0, c, n_test),
        num_classes=c,
    )


class TestValidation:
    def test_valid_construction(self):
        ds = _make()
        assert ds.num_train == 30
        assert ds.num_test == 10
        assert ds.raw_dim == 4

    def test_length_mismatch_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataValidationError):
            Dataset(
                "bad", rng.normal(size=(5, 2)), np.zeros(4, dtype=int),
                rng.normal(size=(3, 2)), np.zeros(3, dtype=int), 2,
            )

    def test_dim_mismatch_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataValidationError):
            Dataset(
                "bad", rng.normal(size=(5, 2)), np.zeros(5, dtype=int),
                rng.normal(size=(3, 3)), np.zeros(3, dtype=int), 2,
            )

    def test_label_out_of_range_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataValidationError, match="labels out of range"):
            Dataset(
                "bad", rng.normal(size=(5, 2)), np.full(5, 7),
                rng.normal(size=(3, 2)), np.zeros(3, dtype=int), 2,
            )

    @pytest.mark.parametrize("split", ["train_y", "test_y"])
    @pytest.mark.parametrize(
        "corrupt",
        [lambda y: y + 0.5, lambda y: np.where(y == 0, np.nan, y),
         lambda y: np.where(y == 0, np.inf, y)],
        ids=["half", "nan", "inf"],
    )
    def test_non_integral_labels_raise(self, split, corrupt):
        # A plain int64 cast would truncate these silently, and a study
        # on the truncated labels would still report.
        ds = _make()
        fields = dict(
            name="bad", train_x=ds.train_x, train_y=ds.train_y,
            test_x=ds.test_x, test_y=ds.test_y, num_classes=3,
        )
        fields[split] = corrupt(fields[split].astype(np.float64))
        with pytest.raises(DataValidationError, match="integral"):
            Dataset(**fields)

    def test_integral_float_labels_load(self):
        ds = _make()
        loaded = Dataset(
            "floats", ds.train_x, ds.train_y.astype(np.float32),
            ds.test_x, ds.test_y.astype(np.float64), 3,
        )
        assert loaded.train_y.dtype == loaded.test_y.dtype == np.int64
        np.testing.assert_array_equal(loaded.train_y, ds.train_y)
        np.testing.assert_array_equal(loaded.test_y, ds.test_y)

    def test_bad_modality_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataValidationError, match="modality"):
            Dataset(
                "bad", rng.normal(size=(5, 2)), np.zeros(5, dtype=int),
                rng.normal(size=(3, 2)), np.zeros(3, dtype=int), 2,
                modality="audio",
            )


class TestNoisyDerivation:
    def test_clean_labels_retained(self):
        ds = _make()
        noisy_train = (ds.train_y + 1) % 3
        noisy = ds.with_noisy_labels(noisy_train, ds.test_y)
        assert noisy.is_noisy
        np.testing.assert_array_equal(noisy.clean_train_y, ds.train_y)
        np.testing.assert_array_equal(noisy.train_y, noisy_train)

    def test_noise_rate(self):
        ds = _make()
        noisy = ds.with_noisy_labels((ds.train_y + 1) % 3, ds.test_y)
        expected = ds.num_train / (ds.num_train + ds.num_test)
        assert noisy.label_noise_rate() == pytest.approx(expected)

    def test_clean_dataset_noise_rate_zero(self):
        assert _make().label_noise_rate() == 0.0

    def test_name_suffix(self):
        ds = _make()
        noisy = ds.with_noisy_labels(ds.train_y, ds.test_y, name_suffix="x")
        assert noisy.name == "toy_x"

    def test_length_mismatch_raises(self):
        ds = _make()
        with pytest.raises(DataValidationError):
            ds.with_noisy_labels(ds.train_y[:-1], ds.test_y)

    def test_non_integral_noisy_labels_raise(self):
        ds = _make()
        with pytest.raises(DataValidationError, match="integral"):
            ds.with_noisy_labels(ds.train_y + 0.5, ds.test_y)
        with pytest.raises(DataValidationError, match="integral"):
            ds.with_noisy_labels(ds.train_y, np.full(ds.num_test, np.nan))

    def test_extras_merged(self):
        ds = _make()
        ds.extras["base"] = 1
        noisy = ds.with_noisy_labels(ds.train_y, ds.test_y, extras={"rho": 0.2})
        assert noisy.extras == {"base": 1, "rho": 0.2}


class TestSubsample:
    def test_sizes(self):
        sub = _make().subsample(10, 5, rng=0)
        assert sub.num_train == 10
        assert sub.num_test == 5

    def test_too_large_raises(self):
        with pytest.raises(DataValidationError):
            _make().subsample(1000)

    def test_deterministic(self):
        ds = _make()
        a = ds.subsample(10, 5, rng=3)
        b = ds.subsample(10, 5, rng=3)
        np.testing.assert_array_equal(a.train_x, b.train_x)

    def test_subsample_preserves_clean_labels(self):
        ds = _make()
        noisy = ds.with_noisy_labels((ds.train_y + 1) % 3, ds.test_y)
        sub = noisy.subsample(10, 5, rng=0)
        assert sub.clean_train_y is not None
        # Clean labels still aligned: noisy = clean + 1 mod 3 on train.
        np.testing.assert_array_equal(
            sub.train_y, (sub.clean_train_y + 1) % 3
        )

    def test_true_ber_none_without_oracle(self):
        assert _make().true_ber is None
