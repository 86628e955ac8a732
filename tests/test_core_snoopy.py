"""Integration-grade unit tests for the Snoopy system itself."""

import numpy as np
import pytest

from repro.core.result import FeasibilitySignal
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.exceptions import DataValidationError
from repro.noise.models import inject_uniform_noise
from repro.transforms.linear import PCATransform


@pytest.fixture()
def noisy_dataset(dataset):
    train = inject_uniform_noise(dataset.train_y, 0.4, dataset.num_classes, rng=0)
    test = inject_uniform_noise(dataset.test_y, 0.4, dataset.num_classes, rng=1)
    return dataset.with_noisy_labels(train.noisy_labels, test.noisy_labels)


class TestConfig:
    def test_default_strategy(self):
        assert SnoopyConfig().strategy == "successive_halving_tangent"

    def test_unknown_strategy_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(strategy="genetic")

    def test_perfect_requires_arm_name(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(strategy="perfect")

    @pytest.mark.parametrize("pull_size", [0, -5])
    def test_non_positive_pull_size_raises(self, pull_size):
        # Rejected up front: 0 must not read as "use the default", and
        # -5 must not wait to fail inside successive halving.
        with pytest.raises(DataValidationError, match="pull_size"):
            SnoopyConfig(pull_size=pull_size)

    def test_empty_catalog_raises(self):
        with pytest.raises(DataValidationError):
            Snoopy([])


class TestRun:
    def test_report_fields(self, dataset, catalog):
        report = Snoopy(catalog).run(dataset, target_accuracy=0.6)
        assert report.dataset_name == dataset.name
        assert report.best_transform in catalog.names
        assert 0.0 <= report.ber_estimate <= 1.0
        assert report.gap == pytest.approx(0.4 - report.ber_estimate)
        assert report.total_sim_cost_seconds > 0
        assert report.wall_seconds > 0

    def test_min_aggregation(self, dataset, catalog):
        report = Snoopy(catalog).run(dataset, target_accuracy=0.6)
        per_transform = report.estimates_by_transform()
        assert report.ber_estimate == pytest.approx(min(per_transform.values()))

    def test_signal_realistic_for_loose_target(self, dataset, catalog):
        report = Snoopy(catalog).run(dataset, target_accuracy=0.5)
        assert report.signal is FeasibilitySignal.REALISTIC
        assert report.is_realistic

    def test_signal_unrealistic_for_impossible_target(self, noisy_dataset, catalog):
        # 40% uniform noise on a 4-class task: BER >= 0.3; accuracy 0.99
        # is unreachable and Snoopy must say so.
        report = Snoopy(catalog).run(noisy_dataset, target_accuracy=0.99)
        assert report.signal is FeasibilitySignal.UNREALISTIC

    def test_invalid_target_raises(self, dataset, catalog):
        with pytest.raises(DataValidationError):
            Snoopy(catalog).run(dataset, target_accuracy=0.0)

    def test_best_transform_is_high_fidelity(self, dataset, catalog):
        report = Snoopy(
            catalog, SnoopyConfig(strategy="full", seed=0)
        ).run(dataset, target_accuracy=0.6)
        assert report.best_transform in ("emb_high", "emb_mid")

    def test_curves_recorded(self, dataset, catalog):
        report = Snoopy(catalog).run(dataset, target_accuracy=0.6)
        assert report.best_transform in report.curves
        curve = report.curves[report.best_transform]
        assert curve.final_size == dataset.num_train  # winner topped up
        assert len(curve.sizes) >= 2

    def test_summary_renders(self, dataset, catalog):
        report = Snoopy(catalog).run(dataset, target_accuracy=0.6)
        text = report.summary()
        assert "Feasibility study" in text
        assert str(report.signal) in text


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy",
        ["full", "uniform", "successive_halving", "successive_halving_tangent"],
    )
    def test_all_strategies_run(self, dataset, catalog, strategy):
        config = SnoopyConfig(strategy=strategy, seed=0)
        report = Snoopy(catalog, config).run(dataset, target_accuracy=0.6)
        assert report.strategy.startswith(strategy.split("_tangent")[0])

    def test_sh_cheaper_than_full(self, dataset, catalog):
        full = Snoopy(catalog, SnoopyConfig(strategy="full", seed=0)).run(
            dataset, 0.6
        )
        sh = Snoopy(
            catalog, SnoopyConfig(strategy="successive_halving", seed=0)
        ).run(dataset, 0.6)
        assert sh.total_sim_cost_seconds < full.total_sim_cost_seconds

    def test_perfect_runs_single_arm(self, dataset, catalog):
        config = SnoopyConfig(strategy="perfect", perfect_arm_name="emb_high")
        report = Snoopy(catalog, config).run(dataset, target_accuracy=0.6)
        assert report.best_transform == "emb_high"
        assert len(report.per_transform) >= 1

    def test_perfect_unknown_arm_raises(self, dataset, catalog):
        config = SnoopyConfig(strategy="perfect", perfect_arm_name="nope")
        with pytest.raises(DataValidationError):
            Snoopy(catalog, config).run(dataset, target_accuracy=0.6)

    def test_perfect_bills_only_its_arm(self, dataset, catalog):
        """No other arm is built, so none bills its test-set inference."""
        config = SnoopyConfig(
            strategy="perfect", perfect_arm_name="emb_high", seed=0
        )
        report = Snoopy(catalog, config).run(dataset, target_accuracy=0.6)
        (row,) = report.per_transform
        assert row.sim_cost_seconds > 0
        assert report.total_sim_cost_seconds == row.sim_cost_seconds

    def test_perfect_unknown_arm_raises_before_any_transform(
        self, dataset, monkeypatch
    ):
        calls = []
        for method in ("fit", "transform"):
            original = getattr(PCATransform, method)

            def counting(self, x, _original=original, _method=method):
                calls.append(_method)
                return _original(self, x)

            monkeypatch.setattr(PCATransform, method, counting)
        catalog = [PCATransform(4), PCATransform(8)]
        config = SnoopyConfig(strategy="perfect", perfect_arm_name="nope")
        with pytest.raises(DataValidationError, match="not in catalog"):
            Snoopy(catalog, config).run(dataset, target_accuracy=0.6)
        assert calls == []

    def test_deterministic_given_seed(self, dataset, catalog):
        a = Snoopy(catalog, SnoopyConfig(seed=5)).run(dataset, 0.6)
        b = Snoopy(catalog, SnoopyConfig(seed=5)).run(dataset, 0.6)
        assert a.ber_estimate == b.ber_estimate
        assert a.best_transform == b.best_transform


class TestIncrementalState:
    def test_state_requires_run(self, catalog):
        with pytest.raises(DataValidationError):
            Snoopy(catalog).incremental_state()

    def test_state_matches_report(self, noisy_dataset, catalog):
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        report = system.run(noisy_dataset, target_accuracy=0.9)
        state = system.incremental_state()
        _, estimate = state.ber_estimate()
        assert estimate == pytest.approx(report.ber_estimate)

    def test_cleaning_all_labels_recovers_clean_estimate(
        self, dataset, noisy_dataset, catalog
    ):
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        system.run(noisy_dataset, target_accuracy=0.9)
        state = system.incremental_state()
        _, before = state.ber_estimate()
        state.apply_cleaning(
            np.arange(noisy_dataset.num_train), dataset.train_y,
            np.arange(noisy_dataset.num_test), dataset.test_y,
        )
        _, after = state.ber_estimate()
        assert after < before

    def test_states_are_independent(self, dataset, noisy_dataset, catalog):
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        system.run(noisy_dataset, target_accuracy=0.9)
        cleaned = system.incremental_state()
        untouched = system.incremental_state()
        before = untouched.estimates()
        cleaned.apply_cleaning(
            np.arange(noisy_dataset.num_train), dataset.train_y,
            np.arange(noisy_dataset.num_test), dataset.test_y,
        )
        assert cleaned.estimates() != before
        assert untouched.estimates() == before

    def test_state_holds_only_pulled_arms(self, dataset, catalog):
        name = catalog.names[-1]
        system = Snoopy(
            catalog,
            SnoopyConfig(strategy="perfect", perfect_arm_name=name, seed=0),
        )
        report = system.run(dataset, target_accuracy=0.9)
        state = system.incremental_state()
        assert state.transform_names == [name]
        assert state.ber_estimate() == (name, report.ber_estimate)

    def test_signal_flips_after_cleaning(self, dataset, noisy_dataset, catalog):
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        report = system.run(noisy_dataset, target_accuracy=0.62)
        state = system.incremental_state()
        assert state.signal(0.62) is report.signal
        state.apply_cleaning(
            np.arange(noisy_dataset.num_train), dataset.train_y,
            np.arange(noisy_dataset.num_test), dataset.test_y,
        )
        # Fully cleaned: the moderately easy target must become realistic.
        assert state.signal(0.62) is FeasibilitySignal.REALISTIC
