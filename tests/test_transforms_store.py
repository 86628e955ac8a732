"""Unit tests for the shared EmbeddingStore."""

import gc
import threading

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.transforms.linear import IdentityTransform, PCATransform
from repro.transforms.store import (
    EmbeddingStore,
    embed_or_transform,
)


class CountingTransform(IdentityTransform):
    """Identity transform that counts transform() invocations and rows."""

    def __init__(self, dim, name="counting"):
        super().__init__(dim)
        self.name = name
        self.calls = 0
        self.rows_embedded = 0

    def transform(self, x):
        self.calls += 1
        self.rows_embedded += len(x)
        return super().transform(x)


@pytest.fixture()
def data(rng):
    return rng.normal(size=(300, 6))


@pytest.fixture()
def transform(data):
    return CountingTransform(6).fit(data)


class TestEmbedExactness:
    def test_embed_matches_direct_transform(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        out = store.embed(transform, data)
        np.testing.assert_array_equal(out, data)

    def test_embed_rows_matches_slice(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        out = store.embed_rows(transform, data, 37, 215)
        np.testing.assert_array_equal(out, data[37:215])

    def test_empty_range(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        out = store.embed_rows(transform, data, 10, 10)
        assert out.shape == (0, transform.output_dim)

    def test_invalid_range_raises(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        with pytest.raises(DataValidationError):
            store.embed_rows(transform, data, 10, 5)
        with pytest.raises(DataValidationError):
            store.embed_rows(transform, data, 0, len(data) + 1)

    def test_non_2d_raises(self, transform):
        store = EmbeddingStore()
        with pytest.raises(DataValidationError):
            store.embed(transform, np.zeros(5))


class TestMemoization:
    def test_second_identical_request_is_all_hits(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        store.embed(transform, data)
        calls_after_first = transform.calls
        out = store.embed(transform, data)
        assert transform.calls == calls_after_first
        np.testing.assert_array_equal(out, data)
        assert store.stats.hits > 0

    def test_different_chunk_boundaries_share_blocks(self, data, transform):
        """Block alignment: pulls of size 50 warm pulls of size 70."""
        store = EmbeddingStore(block_rows=64)
        for start in range(0, len(data), 50):
            store.embed_rows(transform, data, start, min(start + 50, len(data)))
        transform.calls = 0
        for start in range(0, len(data), 70):
            store.embed_rows(transform, data, start, min(start + 70, len(data)))
        assert transform.calls == 0

    def test_content_addressing_across_array_objects(self, data, transform):
        """A rebuilt but identical array hits purely on content."""
        store = EmbeddingStore(block_rows=64)
        store.embed(transform, data)
        transform.calls = 0
        out = store.embed(transform, data.copy())
        assert transform.calls == 0
        np.testing.assert_array_equal(out, data)

    def test_distinct_transforms_do_not_collide(self, data):
        a = CountingTransform(6, name="same").fit(data)
        b = PCATransform(3).fit(data)
        b.name = "same"  # adversarial: same display name, different map
        store = EmbeddingStore(block_rows=64)
        out_a = store.embed(a, data)
        out_b = store.embed(b, data)
        assert out_a.shape != out_b.shape

    def test_missing_blocks_embed_in_contiguous_runs(self, data, transform):
        """A cold multi-block request costs one transform call."""
        store = EmbeddingStore(block_rows=64)
        store.embed(transform, data)
        assert transform.calls == 1

    def test_partial_block_request_embeds_whole_block(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        store.embed_rows(transform, data, 10, 20)
        assert transform.rows_embedded == 64
        transform.calls = 0
        # The rest of the block is already warm.
        store.embed_rows(transform, data, 0, 64)
        assert transform.calls == 0


class TestEvictionAndStats:
    def test_lru_eviction_respects_budget(self, data, transform):
        block_bytes = 64 * 6 * 8
        store = EmbeddingStore(max_bytes=2 * block_bytes, block_rows=64)
        store.embed(transform, data)  # 5 blocks through a 2-block budget
        stats = store.stats
        assert stats.current_bytes <= store.max_bytes
        assert stats.evictions >= 3
        assert len(store) <= 2

    def test_evicted_blocks_recompute(self, data, transform):
        block_bytes = 64 * 6 * 8
        store = EmbeddingStore(max_bytes=2 * block_bytes, block_rows=64)
        store.embed(transform, data)
        transform.calls = 0
        out = store.embed(transform, data)
        assert transform.calls > 0  # early blocks were evicted
        np.testing.assert_array_equal(out, data)

    def test_hit_rate(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        assert store.stats.hit_rate == 0.0
        store.embed(transform, data)
        store.embed(transform, data)
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_clear(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        store.embed(transform, data)
        store.close()
        assert len(store) == 0
        assert store.stats.current_bytes == 0

    def test_invalid_budget_raises(self):
        with pytest.raises(DataValidationError):
            EmbeddingStore(max_bytes=0)
        with pytest.raises(DataValidationError):
            EmbeddingStore(block_rows=0)


class TestLifecycle:
    """The store must never pin sources or transforms (leak per run)."""

    def test_dead_source_releases_digest_cache(self, transform, rng):
        store = EmbeddingStore(block_rows=64)
        for _ in range(4):
            # Fresh pool per "run", as Snoopy builds train_x[order] anew.
            pool = rng.normal(size=(300, 6))
            store.embed(transform, pool)
            del pool
            gc.collect()
        assert len(store._digests) == 0
        assert len(store._digest_refs) == 0

    def test_live_source_keeps_digest_cache(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        store.embed(transform, data)
        gc.collect()
        assert len(store._digests) == 1

    def test_dead_transform_releases_token_and_blocks(self, data):
        store = EmbeddingStore(block_rows=64)
        transform = CountingTransform(6, name="ephemeral").fit(data)
        store.embed(transform, data)
        assert len(store) == 5
        del transform
        gc.collect()
        assert len(store) == 0
        assert store.stats.current_bytes == 0
        assert len(store._tokens) == 0

    def test_recycled_transform_id_cannot_alias(self, data):
        """A new transform never inherits a dead transform's blocks."""
        store = EmbeddingStore(block_rows=64)
        first = CountingTransform(6, name="same").fit(data)
        store.embed(first, data)
        del first
        gc.collect()
        second = CountingTransform(6, name="same").fit(data)
        store.embed(second, data)
        assert second.calls > 0  # recomputed, not served from a ghost


class TestOutputSafety:
    def test_cached_single_block_is_read_only(self, data, transform):
        store = EmbeddingStore(block_rows=512)
        out = store.embed(transform, data)
        with pytest.raises(ValueError):
            out[0, 0] = 42.0


class TestThreadSafety:
    def test_concurrent_embeds_are_consistent(self, data):
        transforms = [
            CountingTransform(6, name=f"t{i}").fit(data) for i in range(4)
        ]
        store = EmbeddingStore(block_rows=32)
        errors = []

        def worker(transform):
            try:
                for _ in range(5):
                    out = store.embed(transform, data)
                    np.testing.assert_array_equal(out, data)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in transforms
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestEmbedOrTransform:
    def test_without_store_delegates(self, data, transform):
        out = embed_or_transform(None, transform, data)
        np.testing.assert_array_equal(out, data)
        assert transform.calls == 1

    def test_with_store_memoizes(self, data, transform):
        store = EmbeddingStore(block_rows=64)
        embed_or_transform(store, transform, data)
        transform.calls = 0
        embed_or_transform(store, transform, data)
        assert transform.calls == 0
