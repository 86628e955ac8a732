"""Execution-engine tests: the round scheduler and cross-backend parity.

The headline guarantee of the round scheduler is that the ``serial`` and
``thread`` backends produce *bit-identical* feasibility reports — same
winner, same losses, same curves — across allocation strategies and
seeds.  These tests pin that contract.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.engine import EXECUTION_BACKENDS, RoundScheduler
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.datasets.base import Dataset
from repro.exceptions import DataValidationError
from repro.transforms.store import EmbeddingStore


class _Arm:
    """A stand-in arm recording the thread its method ran on."""

    def __init__(self, value):
        self.value = value
        self.thread = None

    def square(self, offset=0):
        self.thread = threading.get_ident()
        return self.value * self.value + offset


class TestBackends:
    def test_execution_backends(self):
        assert EXECUTION_BACKENDS == ("serial", "thread")

    def test_unknown_backend_raises(self):
        with pytest.raises(DataValidationError):
            RoundScheduler("quantum")

    def test_invalid_max_workers_raises(self):
        with pytest.raises(DataValidationError):
            RoundScheduler(max_workers=0)

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_run_preserves_order(self, backend):
        arms = [_Arm(value) for value in range(7)]
        with RoundScheduler(backend, max_workers=2) as scheduler:
            assert scheduler.run(arms, "square", offset=1) == [
                1, 2, 5, 10, 17, 26, 37
            ]

    def test_empty_round_returns_nothing(self):
        assert RoundScheduler("thread").run([], "square") == []

    def test_single_arm_skips_pool(self):
        scheduler = RoundScheduler("thread", max_workers=2)
        arm = _Arm(3)
        assert scheduler.run([arm], "square") == [9]
        assert scheduler._pool is None
        assert arm.thread == threading.get_ident()

    def test_serial_never_builds_a_pool(self):
        scheduler = RoundScheduler("serial", max_workers=2)
        arms = [_Arm(1), _Arm(2)]
        scheduler.run(arms, "square")
        assert scheduler._pool is None
        assert {arm.thread for arm in arms} == {threading.get_ident()}

    def test_close_is_idempotent(self):
        scheduler = RoundScheduler("thread", max_workers=2)
        arms = [_Arm(1), _Arm(2)]
        scheduler.run(arms, "square")
        assert scheduler._pool is not None
        assert threading.get_ident() not in {arm.thread for arm in arms}
        scheduler.close()
        scheduler.close()
        assert scheduler._pool is None


def _report_fingerprint(report):
    """Everything observable about a report, for exact comparison."""
    return {
        "signal": report.signal,
        "ber": report.ber_estimate,
        "best": report.best_transform,
        "gap": report.gap,
        "strategy": report.strategy,
        "sim_cost": report.total_sim_cost_seconds,
        "per_transform": [
            (r.transform_name, r.samples_used, r.one_nn_error,
             r.estimate.value, r.sim_cost_seconds)
            for r in report.per_transform
        ],
        "curves": {
            name: (curve.sizes.tolist(), curve.errors.tolist())
            for name, curve in report.curves.items()
        },
        "confident": report.signal_confident,
    }


def _run(catalog, dataset, strategy, backend, seed=0):
    config = SnoopyConfig(
        strategy=strategy,
        seed=seed,
        execution_backend=backend,
        max_workers=2,
    )
    system = Snoopy(catalog, config)
    report = system.run(dataset, target_accuracy=0.7)
    losses = {arm.name: list(arm.losses) for arm in system._state.arms}
    return _report_fingerprint(report), losses


class TestBackendParity:
    """serial vs thread must be bit-identical."""

    @pytest.mark.parametrize(
        "strategy",
        ["successive_halving_tangent", "successive_halving", "uniform", "full"],
    )
    def test_thread_matches_serial(self, dataset, catalog, strategy):
        ref_report, ref_losses = _run(catalog, dataset, strategy, "serial")
        thr_report, thr_losses = _run(catalog, dataset, strategy, "thread")
        assert thr_report == ref_report
        assert thr_losses == ref_losses

    @pytest.mark.parametrize("seed", [1, 2])
    def test_parity_across_seeds(self, dataset, catalog, seed):
        ref, _ = _run(
            catalog, dataset, "successive_halving_tangent", "serial", seed
        )
        thr, _ = _run(
            catalog, dataset, "successive_halving_tangent", "thread", seed
        )
        assert thr == ref

    def test_arms_share_a_read_only_dataset(self, dataset, catalog):
        """Arms on pool threads read the dataset's own arrays, in place."""
        frozen = Dataset(
            "frozen", dataset.train_x.copy(), dataset.train_y.copy(),
            dataset.test_x.copy(), dataset.test_y.copy(), dataset.num_classes,
        )
        for array in (frozen.train_x, frozen.train_y, frozen.test_x,
                      frozen.test_y):
            array.setflags(write=False)
        reports = {}
        for backend in EXECUTION_BACKENDS:
            config = SnoopyConfig(
                seed=0, execution_backend=backend, max_workers=2
            )
            system = Snoopy(catalog, config)
            reports[backend] = _report_fingerprint(system.run(frozen, 0.7))
            assert all(
                arm._train_x is frozen.train_x for arm in system._state.arms
            )
        assert reports["thread"] == reports["serial"]

    def test_store_disabled_still_runs(self, dataset, catalog):
        config = SnoopyConfig(seed=0, embedding_cache_bytes=0)
        system = Snoopy(catalog, config)
        assert system.store is None
        report = system.run(dataset, target_accuracy=0.7)
        assert report.best_transform in catalog.names


def _count_transform_calls(catalog):
    """Wrap each transform's transform() with a per-catalog call counter."""
    counter = {"calls": 0}
    for transform in catalog:
        original = transform.transform

        def counting(x, _original=original):
            counter["calls"] += 1
            return _original(x)

        transform.transform = counting
    return counter


def _count_class_transform_calls(monkeypatch, catalog):
    """Count transform() calls by patching the transforms' classes.

    Patching the class leaves every instance's pickled state untouched,
    so a fresh store derives the same content tokens and finds the
    spill files an earlier run wrote.
    """
    counter = {"calls": 0}
    for cls in {type(transform) for transform in catalog}:
        original = cls.transform

        def counting(self, x, _original=original):
            counter["calls"] += 1
            return _original(self, x)

        monkeypatch.setattr(cls, "transform", counting)
    return counter


@pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
class TestWarmStore:
    def test_second_strategy_run_embeds_nothing(
        self, dataset, catalog, backend
    ):
        """A warm store serves a second strategy with zero transform calls."""
        store = EmbeddingStore()
        first = Snoopy(
            catalog,
            SnoopyConfig(strategy="full", seed=0, execution_backend=backend),
            store=store,
        )
        first.run(dataset, target_accuracy=0.7)
        counter = _count_transform_calls(catalog)
        second = Snoopy(
            catalog,
            SnoopyConfig(strategy="uniform", seed=0, execution_backend=backend),
            store=store,
        )
        report = second.run(dataset, target_accuracy=0.7)
        assert counter["calls"] == 0
        assert report.best_transform in catalog.names

    def test_rerun_same_system_embeds_nothing(self, dataset, catalog, backend):
        system = Snoopy(
            catalog, SnoopyConfig(seed=0, execution_backend=backend)
        )
        system.run(dataset, target_accuracy=0.7)
        counter = _count_transform_calls(catalog)
        system.run(dataset, target_accuracy=0.7)
        assert counter["calls"] == 0

    def test_warm_report_matches_cold(self, dataset, catalog, backend):
        cold = Snoopy(catalog, SnoopyConfig(seed=0)).run(dataset, 0.7)
        system = Snoopy(
            catalog, SnoopyConfig(seed=0, execution_backend=backend)
        )
        system.run(dataset, 0.7)
        warm = system.run(dataset, 0.7)
        assert _report_fingerprint(warm) == _report_fingerprint(cold)

    def test_capped_study_on_primed_spill_dir_embeds_nothing(
        self, dataset, catalog, backend, tmp_path, monkeypatch
    ):
        """Evicted blocks promote back from disk, also on pool threads."""
        cold = Snoopy(catalog, SnoopyConfig(seed=0)).run(dataset, 0.7)
        store_dir = str(tmp_path / "spill")
        prime = SnoopyConfig(seed=0, strategy="full", store_dir=store_dir)
        with Snoopy(catalog, prime) as system:
            system.run(dataset, 0.7)
            working_set = system.store.stats.current_bytes
        counter = _count_class_transform_calls(monkeypatch, catalog)
        capped = SnoopyConfig(
            seed=0,
            execution_backend=backend,
            max_workers=2,
            store_dir=store_dir,
            embedding_cache_bytes=working_set // 16,
        )
        with Snoopy(catalog, capped) as system:
            report = system.run(dataset, 0.7)
            stats = system.store.stats
        blocks = [
            name for name in os.listdir(store_dir) if name.endswith(".blk")
        ]
        assert counter["calls"] == 0
        assert stats.misses == 0
        assert stats.evictions > 0
        # More promotes than distinct blocks: evicted blocks came back.
        assert stats.spill_hits > len(blocks)
        assert _report_fingerprint(report) == _report_fingerprint(cold)


class TestConfigValidation:
    @pytest.mark.parametrize("backend", ["gpu", "process"])
    def test_unknown_execution_backend_raises(self, backend):
        with pytest.raises(DataValidationError):
            SnoopyConfig(execution_backend=backend)

    def test_invalid_max_workers_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(max_workers=0)

    def test_negative_cache_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(embedding_cache_bytes=-1)


class TestPublicLabelAccessors:
    """The incremental path reads labels through public properties now."""

    def test_arm_label_properties(self, dataset, catalog):
        from repro.bandit.arms import build_arms

        order = np.random.default_rng(0).permutation(dataset.num_train)
        arms = build_arms(list(catalog)[:1], dataset, order)
        arm = arms[0]
        arm.pull(50)
        train = arm.train_labels
        test = arm.test_labels
        assert len(train) == dataset.num_train
        assert np.array_equal(test, dataset.test_y)
        # Copies: mutating the returned arrays must not touch arm state.
        train[:] = -1
        test[:] = -1
        assert not np.array_equal(arm.train_labels, train)
        assert not np.array_equal(arm.test_labels, test)

    def test_progressive_test_labels_copy(self, dataset):
        from repro.knn.progressive import ProgressiveOneNN

        evaluator = ProgressiveOneNN(dataset.test_x, dataset.test_y)
        labels = evaluator.test_labels
        labels[:] = -1
        assert np.array_equal(evaluator.test_labels, dataset.test_y)
