"""Unit tests for the non-1NN estimators (kNN-LOO, DE-kNN, KDE, GHP,
extrapolation) and the estimator registry."""

import numpy as np
import pytest

from repro.estimators import (
    DeKNNEstimator,
    ESTIMATOR_REGISTRY,
    GHPEstimator,
    KDEEstimator,
    KNNExtrapolationEstimator,
    KNNLooEstimator,
    OneNNEstimator,
    get_estimator,
)
from repro.estimators.base import BEREstimate, register_estimator
from repro.estimators.ghp import friedman_rafsky_cross_edges, pairwise_ber_bounds
from repro.exceptions import DataValidationError, EstimatorError


@pytest.fixture(scope="module")
def easy_split():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
    y_train = rng.integers(0, 3, 400)
    y_test = rng.integers(0, 3, 150)
    x_train = centers[y_train] + rng.normal(size=(400, 2))
    x_test = centers[y_test] + rng.normal(size=(150, 2))
    return x_train, y_train, x_test, y_test


@pytest.fixture(scope="module")
def hard_split(hard_dataset):
    return (
        hard_dataset.train_x,
        hard_dataset.train_y,
        hard_dataset.test_x,
        hard_dataset.test_y,
    )


ALL_ESTIMATORS = [
    KNNLooEstimator(k=5),
    DeKNNEstimator(k=10),
    KDEEstimator(),
    GHPEstimator(max_points_per_class=150),
    KNNExtrapolationEstimator(num_grid_points=5),
]


class TestCommonBehaviour:
    @pytest.mark.parametrize(
        "estimator", ALL_ESTIMATORS, ids=lambda e: e.name
    )
    def test_estimate_in_unit_interval(self, estimator, easy_split):
        estimate = estimator.estimate(*easy_split, 3)
        assert isinstance(estimate, BEREstimate)
        assert 0.0 <= estimate.value <= 1.0

    @pytest.mark.parametrize(
        "estimator", ALL_ESTIMATORS, ids=lambda e: e.name
    )
    def test_easy_task_scores_low(self, estimator, easy_split):
        # Classes are ~8 sigma apart: every estimator should report a
        # near-zero BER.
        estimate = estimator.estimate(*easy_split, 3)
        assert estimate.value < 0.08

    @pytest.mark.parametrize(
        "estimator",
        [KNNLooEstimator(k=5), DeKNNEstimator(k=10), GHPEstimator(max_points_per_class=150)],
        ids=lambda e: e.name,
    )
    def test_hard_task_scores_higher_than_easy(
        self, estimator, easy_split, hard_split
    ):
        easy = estimator.estimate(*easy_split, 3).value
        hard = estimator.estimate(*hard_split, 2).value
        assert hard > easy


class TestLabelRange:
    """Labels outside ``[0, num_classes)`` raise a validation error; the
    estimators index per-class counts by label, so such a label would
    either be counted as another class or index past the counts."""

    @pytest.mark.parametrize(
        "estimator", [OneNNEstimator(), *ALL_ESTIMATORS], ids=lambda e: e.name
    )
    @pytest.mark.parametrize("bad", [3, -1])
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_out_of_range_labels_raise(self, estimator, bad, side, rng):
        x = rng.normal(size=(4, 2))
        good = np.array([0, 1, 1, 0])
        labels = np.array([0, bad, 1, 1])
        train_y, test_y = (labels, good) if side == "train" else (good, labels)
        with pytest.raises(DataValidationError, match=r"must lie in \[0, 2\)"):
            estimator.estimate(x, train_y, x, test_y, 2)


class TestKNNLoo:
    def test_k_clamped_to_sample_size(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, 6)
        estimate = KNNLooEstimator(k=100).estimate(x, y, x, y, 2)
        assert estimate.details["k"] < 12

    def test_invalid_k_raises(self):
        with pytest.raises(DataValidationError):
            KNNLooEstimator(k=0)


class TestDeKNN:
    def test_posterior_plug_in_on_uniform_labels(self, rng):
        # Labels independent of features: plug-in estimate near 1 - 1/C.
        x_train = rng.normal(size=(600, 3))
        y_train = rng.integers(0, 2, 600)
        x_test = rng.normal(size=(200, 3))
        y_test = rng.integers(0, 2, 200)
        estimate = DeKNNEstimator(k=30).estimate(x_train, y_train, x_test, y_test, 2)
        assert estimate.value == pytest.approx(0.5, abs=0.1)


class TestKDE:
    def test_bandwidth_validation(self):
        with pytest.raises(DataValidationError):
            KDEEstimator(bandwidth=-1.0)

    def test_explicit_bandwidth(self, easy_split):
        estimate = KDEEstimator(bandwidth=1.0).estimate(*easy_split, 3)
        assert estimate.value < 0.1

    def test_single_class_train_raises(self, rng):
        x = rng.normal(size=(20, 2))
        with pytest.raises(EstimatorError):
            KDEEstimator().estimate(
                x, np.zeros(20, dtype=int), x, np.zeros(20, dtype=int), 2
            )


class TestGHP:
    def test_cross_edges_low_for_separated_clusters(self, rng):
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2)) + 100.0
        assert friedman_rafsky_cross_edges(a, b) == 1

    def test_cross_edges_high_for_identical_distributions(self, rng):
        a = rng.normal(size=(100, 2))
        b = rng.normal(size=(100, 2))
        # Expected cross edges ~ 2mn/(m+n) = 100 under H0; allow slack.
        assert friedman_rafsky_cross_edges(a, b) > 50

    def test_pairwise_bounds_ordering(self, rng):
        a = rng.normal(size=(60, 2))
        b = rng.normal(size=(60, 2)) + 1.5
        lower, upper = pairwise_ber_bounds(a, b)
        assert 0.0 <= lower <= upper <= 0.5

    def test_identical_distributions_bounds_near_half(self, rng):
        a = rng.normal(size=(150, 2))
        b = rng.normal(size=(150, 2))
        lower, upper = pairwise_ber_bounds(a, b)
        assert upper > 0.35

    def test_subsampling_keeps_estimator_usable(self, easy_split):
        estimate = GHPEstimator(max_points_per_class=30).estimate(*easy_split, 3)
        assert estimate.value < 0.15


class TestExtrapolation:
    def test_requires_three_grid_points(self):
        with pytest.raises(DataValidationError):
            KNNExtrapolationEstimator(num_grid_points=2)

    def test_fixed_dim_fit(self, easy_split):
        estimator = KNNExtrapolationEstimator(num_grid_points=5, effective_dim=2)
        estimate = estimator.estimate(*easy_split, 3)
        assert estimate.details["effective_dim"] == 2
        assert 0.0 <= estimate.details["r_infinity"] <= 1.0

    def test_curve_is_recorded(self, easy_split):
        estimate = KNNExtrapolationEstimator(num_grid_points=5).estimate(
            *easy_split, 3
        )
        sizes = estimate.details["curve_sizes"]
        assert sizes == sorted(sizes)
        assert len(sizes) == len(estimate.details["curve_errors"])

    @pytest.mark.parametrize("effective_dim", [None, 4])
    def test_non_converging_fit_raises_estimator_error(
        self, easy_split, monkeypatch, effective_dim
    ):
        import scipy.optimize

        def no_convergence(*args, **kwargs):
            raise RuntimeError("Optimal parameters not found")

        monkeypatch.setattr(scipy.optimize, "curve_fit", no_convergence)
        estimator = KNNExtrapolationEstimator(
            num_grid_points=5, effective_dim=effective_dim
        )
        with pytest.raises(EstimatorError, match="fit failed"):
            estimator.estimate(*easy_split, 3)


class TestRegistry:
    def test_all_estimators_registered(self):
        for name in ("1nn", "knn_loo", "de_knn", "kde", "ghp", "knn_extrapolation"):
            assert name in ESTIMATOR_REGISTRY

    def test_get_estimator_with_kwargs(self):
        estimator = get_estimator("de_knn", k=7)
        assert estimator.k == 7

    def test_unknown_name_raises(self):
        with pytest.raises(EstimatorError, match="unknown estimator"):
            get_estimator("magic")

    def test_duplicate_registration_raises(self):
        with pytest.raises(EstimatorError, match="already registered"):

            @register_estimator("1nn")
            class Duplicate:  # pragma: no cover - never instantiated
                pass
