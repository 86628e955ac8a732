"""Property-based tests (hypothesis) for core invariants.

These check the algebraic laws the paper's machinery rests on — bound
orderings, noise-evolution identities, stochasticity of transition
matrices, streaming/batch equivalence — over generated inputs rather
than hand-picked examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.guidance import fit_log_linear
from repro.core.incremental import IncrementalState
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.knn.brute_force import BruteForceKNN
from repro.knn.metrics import cosine_distances, euclidean_distances
from repro.knn.progressive import ProgressiveOneNN
from repro.noise.theory import (
    ber_after_pairwise_noise,
    ber_after_uniform_noise,
    ber_under_transition,
)
from repro.noise.transition import TransitionMatrix

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestCoverHartProperties:
    @given(
        error=st.floats(min_value=0.0, max_value=1.0),
        num_classes=st.integers(min_value=2, max_value=1000),
    )
    def test_bound_between_half_error_and_error(self, error, num_classes):
        bound = cover_hart_lower_bound(error, num_classes)
        assert error / 2 - 1e-12 <= bound <= error + 1e-12

    @given(
        e1=st.floats(min_value=0.0, max_value=1.0),
        e2=st.floats(min_value=0.0, max_value=1.0),
        num_classes=st.integers(min_value=2, max_value=50),
    )
    def test_monotone(self, e1, e2, num_classes):
        lo, hi = sorted((e1, e2))
        assert cover_hart_lower_bound(lo, num_classes) <= (
            cover_hart_lower_bound(hi, num_classes) + 1e-12
        )

    @given(
        error=st.floats(min_value=0.0, max_value=0.99),
        c1=st.integers(min_value=2, max_value=20),
        c2=st.integers(min_value=2, max_value=20),
    )
    def test_bound_decreasing_in_class_count(self, error, c1, c2):
        # More classes -> larger radicand -> smaller bound.
        lo_c, hi_c = sorted((c1, c2))
        assert cover_hart_lower_bound(error, hi_c) <= (
            cover_hart_lower_bound(error, lo_c) + 1e-12
        )


class TestNoiseTheoryProperties:
    @given(
        ber=st.floats(min_value=0.0, max_value=0.5),
        rho=st.floats(min_value=0.0, max_value=1.0),
        num_classes=st.integers(min_value=2, max_value=100),
    )
    def test_uniform_noise_keeps_ber_in_range(self, ber, rho, num_classes):
        ber = min(ber, 1 - 1 / num_classes)
        noisy = ber_after_uniform_noise(ber, rho, num_classes)
        assert ber - 1e-12 <= noisy <= 1 - 1 / num_classes + 1e-12

    @given(
        ber=st.floats(min_value=0.0, max_value=0.5),
        rho1=st.floats(min_value=0.0, max_value=1.0),
        rho2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_uniform_noise_monotone_in_rho(self, ber, rho1, rho2):
        lo, hi = sorted((rho1, rho2))
        assert ber_after_uniform_noise(ber, lo, 4) <= (
            ber_after_uniform_noise(ber, hi, 4) + 1e-12
        )

    @given(
        ber=st.floats(min_value=0.0, max_value=0.5),
        rho=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_pairwise_noise_bounded_by_half(self, ber, rho):
        # Within the argmax-preserving regime (rho <= 1/2) the noisy BER
        # of pairwise flipping never exceeds chance level 1/2.
        assert ber_after_pairwise_noise(ber, rho) <= 0.5 + 1e-12

    @given(
        rho=st.floats(min_value=0.0, max_value=0.8),
        num_classes=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_theorem_matches_lemma_for_uniform_matrix(
        self, rho, num_classes, seed
    ):
        rng = np.random.default_rng(seed)
        posteriors = rng.dirichlet(np.ones(num_classes), size=200)
        clean = float(np.mean(1 - posteriors.max(axis=1)))
        t = TransitionMatrix.uniform(rho, num_classes)
        assert ber_under_transition(posteriors, t) == pytest.approx(
            ber_after_uniform_noise(clean, rho, num_classes), abs=1e-9
        )


class TestTransitionMatrixProperties:
    @given(
        num_classes=st.integers(min_value=2, max_value=20),
        mean_flip=st.floats(min_value=0.0, max_value=0.45),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_construction_always_valid(self, num_classes, mean_flip, seed):
        t = TransitionMatrix.class_dependent_random(
            num_classes, mean_flip, flip_spread=mean_flip / 2, rng=seed
        )
        np.testing.assert_allclose(t.matrix.sum(axis=0), 1.0, atol=1e-8)
        assert t.preserves_argmax()
        assert 0.0 <= t.noise_level() <= 0.5


class TestMetricProperties:
    @given(
        data=arrays(
            np.float64, (8, 3),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    def test_euclidean_triangle_inequality(self, data):
        # The Gram-matrix formula carries *relative* float error (the
        # standard trade-off of the fast ||a||^2+||b||^2-2ab path), so
        # the triangle inequality is checked with a relative tolerance.
        dist = euclidean_distances(data, data)
        for i in range(len(data)):
            for j in range(len(data)):
                for k in range(len(data)):
                    slack = 1e-6 * (1.0 + dist[i, j])
                    assert dist[i, j] <= dist[i, k] + dist[k, j] + slack

    @given(
        data=arrays(
            np.float64, (6, 4),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    def test_cosine_symmetry(self, data):
        dist = cosine_distances(data, data)
        np.testing.assert_allclose(dist, dist.T, atol=1e-10)


class TestStreamingEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        split=st.integers(min_value=1, max_value=79),
    )
    @settings(max_examples=25, deadline=None)
    def test_progressive_matches_batch_for_any_split(self, seed, split):
        rng = np.random.default_rng(seed)
        train_x = rng.normal(size=(80, 3))
        train_y = rng.integers(0, 3, 80)
        test_x = rng.normal(size=(20, 3))
        test_y = rng.integers(0, 3, 20)
        evaluator = ProgressiveOneNN(test_x, test_y)
        evaluator.partial_fit(train_x[:split], train_y[:split])
        evaluator.partial_fit(train_x[split:], train_y[split:])
        expected = BruteForceKNN().fit(train_x, train_y).error(test_x, test_y)
        assert evaluator.error() == pytest.approx(expected)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_incremental_cache_equals_recompute_after_random_cleaning(
        self, seed
    ):
        rng = np.random.default_rng(seed)
        train_x = rng.normal(size=(60, 3))
        train_y = rng.integers(0, 3, 60)
        test_x = rng.normal(size=(15, 3))
        test_y = rng.integers(0, 3, 15)
        _, idx = BruteForceKNN().fit(train_x, train_y).kneighbors(test_x, k=1)
        state = IncrementalState({"x": idx[:, 0]}, train_y, test_y, 3)
        flip = rng.choice(60, size=10, replace=False)
        new_labels = rng.integers(0, 3, 10)
        state.apply_cleaning(flip, new_labels, [], [])
        modified = train_y.copy()
        modified[flip] = new_labels
        expected = BruteForceKNN().fit(train_x, modified).error(test_x, test_y)
        assert state.errors()["x"] == pytest.approx(expected)


class TestLogLinearFitProperties:
    @given(
        alpha=st.floats(min_value=0.05, max_value=2.0),
        intercept=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_recovery_of_power_laws(self, alpha, intercept):
        sizes = np.array([50.0, 100, 200, 400, 800])
        errors = np.exp(intercept) * sizes ** (-alpha)
        fit = fit_log_linear(sizes, errors)
        assert fit.alpha == pytest.approx(alpha, abs=1e-8)
        assert fit.intercept == pytest.approx(intercept, abs=1e-8)
