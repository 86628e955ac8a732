"""Run-loop tests: the round scheduler, warm stores and config checks.

The round scheduler pulls each arm of a round in turn and returns the
results in arm order.  A study's arms read the dataset's own arrays in
place, a warm :class:`EmbeddingStore` serves a later study with zero
transform calls and the cold study's exact report, and misconfigured
runs raise :class:`DataValidationError`.
"""

import os

import numpy as np
import pytest

from repro.core.engine import RoundScheduler
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.datasets.base import Dataset
from repro.exceptions import DataValidationError
from repro.transforms.store import EmbeddingStore


class _Arm:
    """A stand-in arm with one pull-like method."""

    def __init__(self, value):
        self.value = value

    def square(self, offset=0):
        return self.value * self.value + offset


class TestBackends:
    """``RoundScheduler``, the one loop every round runs through."""

    def test_run_preserves_order(self):
        arms = [_Arm(value) for value in range(7)]
        assert RoundScheduler().run(arms, "square", offset=1) == [
            1, 2, 5, 10, 17, 26, 37
        ]

    def test_empty_round_returns_nothing(self):
        assert RoundScheduler().run([], "square") == []


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


class TestBackendParity:
    """A study on read-only inputs, and one with no store."""

    def test_arms_share_a_read_only_dataset(self, dataset, catalog):
        """Arms read the dataset's own arrays, in place."""
        frozen = Dataset(
            "frozen", dataset.train_x.copy(), dataset.train_y.copy(),
            dataset.test_x.copy(), dataset.test_y.copy(), dataset.num_classes,
        )
        for array in (frozen.train_x, frozen.train_y, frozen.test_x,
                      frozen.test_y):
            array.setflags(write=False)
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        system.run(frozen, 0.7)
        _, _, arms = system._last_run
        assert all(arm._train_x is frozen.train_x for arm in arms)

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


#: A study with no store: every warm study must reproduce its report, so
#: a store fault that a cold study through a store would share shows.
STORELESS = SnoopyConfig(seed=0, embedding_cache_bytes=0)


class TestWarmStore:
    def test_second_strategy_run_embeds_nothing(self, dataset, catalog):
        """A warm store serves a second strategy with zero transform calls.

        The warm run reproduces that strategy's report without a store, so
        a block served to the wrong transform or rows shows.
        """
        uniform = SnoopyConfig(strategy="uniform", seed=0)
        storeless = SnoopyConfig(
            strategy="uniform", seed=0, embedding_cache_bytes=0
        )
        cold = Snoopy(catalog, storeless).run(dataset, target_accuracy=0.7)
        store = EmbeddingStore()
        first = Snoopy(
            catalog, SnoopyConfig(strategy="full", seed=0), store=store
        )
        first.run(dataset, target_accuracy=0.7)
        counter = _count_transform_calls(catalog)
        second = Snoopy(catalog, uniform, store=store)
        report = second.run(dataset, target_accuracy=0.7)
        assert counter["calls"] == 0
        assert _report_fingerprint(report) == _report_fingerprint(cold)

    def test_rerun_same_system_embeds_nothing(self, dataset, catalog):
        reference = Snoopy(catalog, STORELESS).run(dataset, 0.7)
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        system.run(dataset, target_accuracy=0.7)
        counter = _count_transform_calls(catalog)
        warm = system.run(dataset, target_accuracy=0.7)
        assert counter["calls"] == 0
        assert _report_fingerprint(warm) == _report_fingerprint(reference)

    def test_warm_report_matches_cold(self, dataset, catalog):
        """Both runs of one system reproduce the study with no store."""
        cold = Snoopy(catalog, STORELESS).run(dataset, 0.7)
        system = Snoopy(catalog, SnoopyConfig(seed=0))
        first = system.run(dataset, 0.7)
        warm = system.run(dataset, 0.7)
        assert _report_fingerprint(first) == _report_fingerprint(cold)
        assert _report_fingerprint(warm) == _report_fingerprint(cold)

    def test_capped_study_on_primed_spill_dir_embeds_nothing(
        self, dataset, catalog, tmp_path, monkeypatch
    ):
        """Evicted blocks promote back from disk with zero transform calls."""
        cold = Snoopy(catalog, STORELESS).run(dataset, 0.7)
        store_dir = str(tmp_path / "spill")
        prime = SnoopyConfig(seed=0, strategy="full", store_dir=store_dir)
        with Snoopy(catalog, prime) as system:
            system.run(dataset, 0.7)
            working_set = system.store.stats.current_bytes
        counter = _count_class_transform_calls(monkeypatch, catalog)
        capped = SnoopyConfig(
            seed=0,
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
    def test_negative_cache_raises(self):
        with pytest.raises(DataValidationError):
            SnoopyConfig(embedding_cache_bytes=-1)

