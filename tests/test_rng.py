"""Unit tests for repro.rng."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.rng import ensure_rng, spawn


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(5).random(3)
        b = ensure_rng(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(42)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_negative_seed_raises(self):
        with pytest.raises(
            DataValidationError, match="seed must be non-negative, got -1"
        ):
            ensure_rng(-1)


class TestSpawn:
    def test_count(self):
        children = spawn(ensure_rng(0), 4)
        assert len(children) == 4

    def test_children_independent(self):
        children = spawn(ensure_rng(0), 2)
        a = children[0].random(5)
        b = children[1].random(5)
        assert not np.allclose(a, b)

    def test_reproducible_from_parent_seed(self):
        first = [g.random() for g in spawn(ensure_rng(7), 3)]
        second = [g.random() for g in spawn(ensure_rng(7), 3)]
        assert first == second

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)

    def test_zero_count(self):
        assert spawn(ensure_rng(0), 0) == []
