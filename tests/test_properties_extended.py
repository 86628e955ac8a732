"""Second batch of property-based tests: bounds, splits, allocation.

Covers invariants added after the first property batch: Wilson interval
laws, tangent lower bounds on convex curves, stratified-split laws, and
successive-halving budget accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandit.tangent import tangent_lower_bound
from repro.datasets.splits import stratified_kfold, stratified_split
from repro.estimators.confidence import ber_estimate_interval, wilson_interval
from repro.noise.features import inject_missing_features


class TestWilsonProperties:
    @given(
        error=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=100_000),
    )
    def test_interval_contains_point_and_stays_in_unit(self, error, n):
        interval = wilson_interval(error, n)
        assert -1e-12 <= interval.low <= error + 1e-9
        assert error - 1e-9 <= interval.high <= 1.0 + 1e-12

    @given(
        error=st.floats(min_value=0.01, max_value=0.99),
        n1=st.integers(min_value=10, max_value=1000),
        n2=st.integers(min_value=10, max_value=1000),
    )
    def test_width_monotone_in_samples(self, error, n1, n2):
        small, large = sorted((n1, n2))
        assert (
            wilson_interval(error, large).width
            <= wilson_interval(error, small).width + 1e-12
        )

    @given(
        error=st.floats(min_value=0.0, max_value=0.8),
        n=st.integers(min_value=5, max_value=10_000),
        c=st.integers(min_value=2, max_value=100),
    )
    def test_ber_interval_ordered(self, error, n, c):
        interval = ber_estimate_interval(error, n, c)
        # 1e-9 absorbs float noise in the Wilson endpoints at error = 0.
        assert interval.low <= interval.point + 1e-9
        assert interval.point <= interval.high + 1e-9


class TestTangentProperties:
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        exponent=st.floats(min_value=0.1, max_value=1.5),
        horizon=st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_lower_bounds_any_power_law(self, scale, exponent, horizon):
        # Power-law curves are convex decreasing: the secant through the
        # last two points must under-predict every future value.
        sizes = np.array([64.0, 128.0, 256.0])
        losses = scale * sizes ** (-exponent)
        target = int(sizes[-1]) * horizon
        bound = tangent_lower_bound(sizes, losses, target)
        true_future = scale * target ** (-exponent)
        assert bound <= true_future + 1e-9


class TestSplitProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fraction=st.floats(min_value=0.1, max_value=0.5),
        num_classes=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_and_stratifies(self, seed, fraction, num_classes):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, num_classes, size=120)
        # Ensure every class occurs at least twice.
        labels[: 2 * num_classes] = np.repeat(np.arange(num_classes), 2)
        train, test = stratified_split(labels, fraction, rng=seed)
        assert len(set(train.tolist()) & set(test.tolist())) == 0
        assert len(train) + len(test) == len(labels)
        assert set(labels[train]) == set(labels[test])

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_folds=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_kfold_partitions(self, seed, num_folds):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=90)
        folds = stratified_kfold(labels, num_folds, rng=seed)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(90))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 3


class TestMissingFeatureProperties:
    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_imputation_never_produces_non_finite(self, fraction, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(30, 5))
        result = inject_missing_features(features, fraction, rng=seed)
        assert np.isfinite(result.noisy_features).all()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_unmasked_entries_untouched(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(20, 4))
        result = inject_missing_features(features, 0.4, rng=seed)
        np.testing.assert_array_equal(
            result.noisy_features[~result.mask], features[~result.mask]
        )


class TestSuccessiveHalvingBudget:
    @given(
        budget_factor=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_total_samples_bounded_by_budget(self, budget_factor, seed, dataset):
        # SH never embeds more than its budget plus one pull of slack
        # per arm (chunk rounding).
        from repro.bandit.arms import build_arms
        from repro.bandit.successive_halving import successive_halving
        from repro.transforms.linear import IdentityTransform, PCATransform
        from repro.transforms.pretrained import SimulatedEmbedding

        projection = dataset.oracle.latent_projection
        transforms = [
            IdentityTransform(dataset.raw_dim),
            PCATransform(6),
            SimulatedEmbedding("a", 8, 0.5, 1e-5, projection, seed=1),
            SimulatedEmbedding("b", 8, 0.7, 1e-5, projection, seed=2),
        ]
        for transform in transforms:
            transform.fit(dataset.train_x)
        order = np.random.default_rng(seed).permutation(dataset.num_train)
        arms = build_arms(transforms, dataset, order)
        budget = budget_factor * dataset.num_train
        pull_size = 64
        result = successive_halving(arms, budget, pull_size=pull_size)
        slack = len(arms) * pull_size
        assert result.total_samples <= budget + slack
