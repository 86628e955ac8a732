"""Unit tests for the bandit subpackage (arms, SH, tangent, uniform)."""

import tracemalloc

import numpy as np
import pytest

from repro.bandit.arms import TransformationArm, build_arms
from repro.bandit.successive_halving import successive_halving
from repro.bandit.tangent import tangent_lower_bound
from repro.bandit.uniform import uniform_allocation
from repro.datasets.base import Dataset
from repro.exceptions import BudgetError, ConvergenceError, DataValidationError
from repro.knn.brute_force import BruteForceKNN
from repro.transforms.linear import IdentityTransform, PCATransform
from repro.transforms.store import EmbeddingStore


def _order(dataset, seed):
    return np.random.default_rng(seed).permutation(dataset.num_train)


@pytest.fixture()
def arms(dataset, catalog):
    return build_arms(catalog, dataset, _order(dataset, 0))


class TestTangent:
    def test_two_point_secant(self):
        # Through (100, 0.5) and (200, 0.4): at 400, bound = 0.2.
        assert tangent_lower_bound([100, 200], [0.5, 0.4], 400) == pytest.approx(0.2)

    def test_clipped_at_zero(self):
        assert tangent_lower_bound([100, 200], [0.5, 0.1], 800) == 0.0

    def test_rising_tail_uses_last_loss(self):
        assert tangent_lower_bound([100, 200], [0.3, 0.4], 400) == pytest.approx(0.4)

    def test_single_point_returns_zero(self):
        assert tangent_lower_bound([100], [0.5], 200) == 0.0

    def test_target_before_last_point_raises(self):
        with pytest.raises(ConvergenceError):
            tangent_lower_bound([100, 200], [0.5, 0.4], 150)

    def test_is_lower_bound_of_convex_curve(self):
        sizes = np.array([100, 200, 400, 800])
        losses = 10.0 / np.sqrt(sizes)  # convex decreasing
        bound = tangent_lower_bound(sizes[:3], losses[:3], 800)
        assert bound <= losses[3] + 1e-12


class TestArms:
    def test_pull_accounting(self, arms):
        arm = arms[0]
        arm.pull(50)
        arm.pull(50)
        assert arm.samples_used == 100
        assert len(arm.losses) == 2
        assert arm.sim_cost >= 0

    def test_pull_matches_brute_force(self, dataset, catalog, arms):
        arm = next(a for a in arms if a.name == "emb_high")
        arm.pull(dataset.num_train)
        transform = catalog["emb_high"]
        train_f = transform.transform(dataset.train_x)
        test_f = transform.transform(dataset.test_x)
        expected = (
            BruteForceKNN()
            .fit(train_f, dataset.train_y)
            .error(test_f, dataset.test_y)
        )
        assert arm.current_loss == pytest.approx(expected)

    def test_exhausted_pull_is_noop(self, dataset, arms):
        arm = arms[0]
        arm.pull(dataset.num_train)
        cost = arm.sim_cost
        loss = arm.current_loss
        arm.pull(100)
        assert arm.exhausted
        assert arm.sim_cost == cost
        assert arm.current_loss == loss

    def test_negative_pull_raises(self, arms):
        with pytest.raises(BudgetError):
            arms[0].pull(-1)

    def test_unfitted_transform_rejected(self, dataset):
        from repro.transforms.linear import PCATransform

        with pytest.raises(DataValidationError, match="fitted"):
            TransformationArm(
                PCATransform(4), dataset.train_x, dataset.train_y,
                dataset.test_x, dataset.test_y,
            )

    def test_current_loss_before_pull_is_inf(self, arms):
        assert arms[0].current_loss == np.inf

    @pytest.mark.parametrize("with_store", [False, True])
    def test_order_reads_the_permuted_pool(self, dataset, catalog, with_store):
        order = _order(dataset, 5)
        transform = catalog["emb_mid"]

        def arm(train_x, train_y, **kwargs):
            store = EmbeddingStore(block_rows=64) if with_store else None
            return TransformationArm(
                transform, train_x, train_y, dataset.test_x, dataset.test_y,
                store=store, **kwargs,
            )

        through_order = arm(dataset.train_x, dataset.train_y, order=order)
        materialized = arm(dataset.train_x[order], dataset.train_y[order])
        for size in (50, 130, 1000):
            assert through_order.pull(size) == materialized.pull(size)
        assert through_order.exhausted
        np.testing.assert_array_equal(
            through_order.evaluator.nearest_labels,
            materialized.evaluator.nearest_labels,
        )

    @pytest.mark.parametrize(
        "order", [[[0, 1]], [0.5, 1.5], [0, 600], [-1]],
        ids=["2-d", "float", "past-the-end", "negative"],
    )
    def test_invalid_order_raises(self, dataset, catalog, order):
        with pytest.raises(DataValidationError, match="order"):
            TransformationArm(
                catalog["emb_mid"], dataset.train_x, dataset.train_y,
                dataset.test_x, dataset.test_y, order=np.array(order),
            )

    def test_label_length_mismatch_raises(self, dataset, catalog):
        with pytest.raises(DataValidationError, match="length mismatch"):
            TransformationArm(
                catalog["emb_mid"], dataset.train_x, dataset.train_y[:-1],
                dataset.test_x, dataset.test_y,
                order=_order(dataset, 0),
            )

    def test_build_arms_holds_no_permuted_pool(self):
        rng = np.random.default_rng(0)
        pool = Dataset(
            "pool", rng.normal(size=(20000, 32)), rng.integers(0, 2, 20000),
            rng.normal(size=(20, 32)), rng.integers(0, 2, 20), num_classes=2,
        )
        transforms = [
            IdentityTransform(32).fit(pool.train_x),
            PCATransform(4).fit(pool.train_x),
        ]
        order = _order(pool, 0)
        tracemalloc.start()
        try:
            arms = build_arms(transforms, pool, order, store=EmbeddingStore())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A permuted copy of the 5 MB pool alone would pass the bound.
        assert peak < pool.train_x.nbytes / 2
        assert all(arm._train_x is pool.train_x for arm in arms)

    def test_build_arms_holds_each_test_embedding_once(self):
        rng = np.random.default_rng(0)
        pool = Dataset(
            "pool", rng.normal(size=(200, 64)), rng.integers(0, 2, 200),
            rng.normal(size=(4000, 64)), rng.integers(0, 2, 4000),
            num_classes=2,
        )
        transforms = [
            PCATransform(dim).fit(pool.train_x) for dim in (32, 48)
        ]
        embeddings = sum(4 * pool.num_test * t.output_dim for t in transforms)
        tracemalloc.start()
        try:
            arms = build_arms(
                transforms, pool, _order(pool, 0),
                store=EmbeddingStore(dtype="float32"), dtype="float32",
            )
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The store's hot blocks and each arm's evaluator share one
        # buffer; a private copy per evaluator would double it.
        assert held < 1.5 * embeddings
        assert len(arms) == 2

    def test_unfitted_transforms_fit_on_one_permuted_pool(self, dataset):
        seen = []

        class Recording(PCATransform):
            def fit(self, x):
                seen.append(x)
                return super().fit(x)

        order = _order(dataset, 2)
        build_arms([Recording(4), Recording(3)], dataset, order)
        assert seen[0] is seen[1]
        np.testing.assert_array_equal(seen[0], dataset.train_x[order])

    def test_build_arms_shares_sample_order(self, dataset, catalog):
        arms = build_arms(catalog, dataset, _order(dataset, 3))
        for arm in arms:
            arm.pull(100)
        # All arms consumed the same first 100 (shuffled) samples, so
        # their evaluators saw identical label sequences.
        assert len({arm.samples_used for arm in arms}) == 1


class TestSuccessiveHalving:
    def test_returns_single_winner(self, dataset, arms):
        result = successive_halving(arms, budget=3 * dataset.num_train)
        assert result.winner in arms
        assert result.total_samples <= 3 * dataset.num_train + len(arms) * 64

    def test_winner_is_good_arm(self, dataset, arms):
        result = successive_halving(arms, budget=3 * dataset.num_train)
        assert result.winner_name in ("emb_high", "emb_mid")

    def test_budget_split_is_uneven(self, dataset, arms):
        result = successive_halving(arms, budget=3 * dataset.num_train)
        used = result.samples_per_arm
        assert max(used.values()) > min(used.values())

    def test_too_small_budget_raises(self, arms):
        with pytest.raises(BudgetError):
            successive_halving(arms, budget=3)

    def test_empty_arms_raises(self):
        with pytest.raises(BudgetError):
            successive_halving([], budget=100)

    def test_round_survivors_halve(self, dataset, arms):
        result = successive_halving(arms, budget=3 * dataset.num_train)
        counts = [len(s) for s in result.round_survivors]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1


class TestTangentVariant:
    def test_same_winner_as_plain_sh(self, dataset, catalog):
        plain_arms = build_arms(catalog, dataset, _order(dataset, 0))
        tangent_arms = build_arms(catalog, dataset, _order(dataset, 0))
        budget = 3 * dataset.num_train
        plain = successive_halving(plain_arms, budget, use_tangent=False)
        tangent = successive_halving(tangent_arms, budget, use_tangent=True)
        assert plain.winner_name == tangent.winner_name

    def test_tangent_never_costs_more(self, dataset, catalog):
        plain_arms = build_arms(catalog, dataset, _order(dataset, 0))
        tangent_arms = build_arms(catalog, dataset, _order(dataset, 0))
        budget = 3 * dataset.num_train
        plain = successive_halving(plain_arms, budget, use_tangent=False)
        tangent = successive_halving(tangent_arms, budget, use_tangent=True)
        assert tangent.total_samples <= plain.total_samples

    def test_strategy_label(self, dataset, arms):
        result = successive_halving(
            arms, budget=3 * dataset.num_train, use_tangent=True
        )
        assert result.strategy == "successive_halving_tangent"


class TestUniform:
    def test_equal_allocation(self, dataset, catalog):
        arms = build_arms(catalog, dataset, _order(dataset, 0))
        result = uniform_allocation(arms, budget=len(arms) * 200)
        assert set(result.samples_per_arm.values()) == {200}

    def test_budget_below_arm_count_raises(self, arms):
        with pytest.raises(BudgetError):
            uniform_allocation(arms, budget=2)
