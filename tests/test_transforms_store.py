"""Unit tests for the shared EmbeddingStore."""

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.knn.kernels import resolve_dtype
from repro.transforms import store as store_module
from repro.transforms.linear import IdentityTransform, PCATransform
from repro.transforms.store import EmbeddingStore


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


def _buffer(array):
    """The array whose memory ``array`` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


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
        assert not out.flags.writeable

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

    @pytest.mark.parametrize(
        "rows, hot_blocks, evictions", [(512, 2, 0), (16384, 0, 64)]
    )
    def test_budget_counts_the_buffers_hot_blocks_keep_alive(
        self, rows, hot_blocks, evictions
    ):
        # One transform call embeds a run of missing blocks, and its
        # blocks are views of the call's output.  Two 256 x 16 float32
        # blocks fill the budget: a 2-block run fits, a 64-block run's
        # 1 MiB output does not, so none of its blocks stays hot.
        outputs = []

        class Recording(PCATransform):
            def transform(self, x):
                out = super().transform(x).astype(np.float32)
                outputs.append(weakref.ref(out))
                return out

        x = np.random.default_rng(0).normal(size=(rows, 32))
        pca = Recording(16).fit(x)
        store = EmbeddingStore(
            max_bytes=2 * 256 * 16 * 4, block_rows=256, dtype="float32"
        )
        store.embed(pca, x)
        buffers = {
            id(_buffer(block)): _buffer(block).nbytes
            for block in store._blocks.values()
        }
        stats = store.stats
        assert stats.current_bytes == sum(buffers.values())
        assert stats.current_bytes <= stats.max_bytes
        assert (len(store), stats.evictions) == (hot_blocks, evictions)
        gc.collect()
        assert len(outputs) == 1
        assert (outputs[0]() is not None) == bool(hot_blocks)

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
            # A fresh pool per run.
            pool = rng.normal(size=(300, 6))
            store.embed(transform, pool)
            del pool
            gc.collect()
        assert len(store._digests) == 0
        assert len(store._digest_refs) == 0

    def test_dead_order_releases_digest_cache(self, data, transform, rng):
        store = EmbeddingStore(block_rows=64)
        for _ in range(4):
            # A fresh permutation per run over one live source, as
            # Snoopy draws one per study.
            order = rng.permutation(len(data))
            store.embed_rows(transform, data, 0, len(data), order=order)
            del order
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

    def test_dead_transform_releases_its_run_buffer(self, data):
        # Five hot blocks, all views of one transform call's output.
        store = EmbeddingStore(block_rows=64)
        pca = PCATransform(3).fit(data)
        store.embed(pca, data)
        assert store.stats.current_bytes == len(data) * 3 * 8
        del pca
        gc.collect()
        assert len(store) == 0
        assert store.stats.current_bytes == 0

    def test_dropped_store_needs_no_cyclic_collection(self, data, rng):
        """No reference cycle keeps a dropped store, or its blocks, alive."""
        store = EmbeddingStore(block_rows=64)
        transform = CountingTransform(6).fit(data)
        order = rng.permutation(len(data))
        store.embed_rows(transform, data, 0, len(data), order=order)
        dead = weakref.ref(store)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del store
            assert dead() is None
        finally:
            if enabled:
                gc.enable()
        del transform, order  # their callbacks find no store: a no-op
        gc.collect()

    @pytest.mark.parametrize("spare_blocks, trims", [(0, True), (1, False)])
    def test_close_releases_the_heap_after_a_large_hot_tier(
        self, monkeypatch, spare_blocks, trims
    ):
        """A hot tier of ``_TRIM_BYTES`` trims at close; one block less
        does not, and neither does a second close."""
        calls = []
        monkeypatch.setattr(
            store_module, "_release_free_heap", lambda: calls.append(1)
        )
        block_rows, dim = 4096, 64
        rows = store_module._TRIM_BYTES // (dim * 4) - spare_blocks * block_rows
        source = np.zeros((rows, dim), dtype=np.float32)
        store = EmbeddingStore(dtype="float32", block_rows=block_rows)
        transform = IdentityTransform(dim).fit(source[:1])
        store.embed(transform, source)
        assert store.stats.current_bytes == source.nbytes
        store.close()
        store.close()
        assert calls == ([1] if trims else [])

    def test_release_free_heap_is_safe_to_call(self):
        # glibc trims; a C library without malloc_trim makes it a no-op.
        store_module._release_free_heap()

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


class TestOrderedSource:
    """``embed_rows(..., order=o)`` serves what ``source[o]`` would."""

    def test_matches_materialized_source(self, tmp_path, data, rng):
        order = rng.permutation(len(data))
        pool = data[order]
        pca = PCATransform(3).fit(data)
        through_order = EmbeddingStore(
            block_rows=64, store_dir=tmp_path / "order"
        )
        materialized = EmbeddingStore(
            block_rows=64, store_dir=tmp_path / "pool"
        )
        # Straddling blocks, a partial last block, then all rows, warm.
        for start, stop in [(37, 215), (250, 300), (0, 300)]:
            np.testing.assert_array_equal(
                through_order.embed_rows(pca, data, start, stop, order=order),
                materialized.embed_rows(pca, pool, start, stop),
            )
            assert through_order.stats == materialized.stats
        assert sorted(os.listdir(tmp_path / "order")) == sorted(
            os.listdir(tmp_path / "pool")
        )

    @pytest.mark.parametrize(
        "prime_with_order", [True, False], ids=["order-primes", "pool-primes"]
    )
    def test_spill_dir_serves_the_other_path(
        self, tmp_path, data, rng, prime_with_order
    ):
        order = rng.permutation(len(data))
        pool = data[order]

        def embed(store, transform, with_order):
            if with_order:
                return store.embed_rows(
                    transform, data, 0, len(data), order=order
                )
            return store.embed(transform, pool)

        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            embed(store, CountingTransform(6).fit(data), prime_with_order)
        fresh = CountingTransform(6).fit(data)
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            out = embed(store, fresh, not prime_with_order)
            assert store.stats.misses == 0
        assert fresh.calls == 0
        np.testing.assert_array_equal(out, pool)

    def test_one_order_over_two_sources_never_shares_digests(
        self, data, transform, rng
    ):
        order = rng.permutation(len(data))
        other = data + 1.0
        store = EmbeddingStore(block_rows=64)
        store.embed_rows(transform, data, 0, len(data), order=order)
        out = store.embed_rows(transform, other, 0, len(data), order=order)
        np.testing.assert_array_equal(out, other[order])
        assert transform.calls == 2

    @pytest.mark.parametrize(
        "order",
        [np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([0, 300]),
         np.array([-1, 0])],
        ids=["2-d", "float", "past-the-end", "negative"],
    )
    def test_invalid_order_raises(self, data, transform, order):
        store = EmbeddingStore(block_rows=64)
        with pytest.raises(DataValidationError, match="order"):
            store.embed_rows(transform, data, 0, 1, order=order)


class TestOutputSafety:
    def test_cached_single_block_is_read_only(self, data, transform):
        store = EmbeddingStore(block_rows=512)
        out = store.embed(transform, data)
        with pytest.raises(ValueError):
            out[0, 0] = 42.0


class Affine(IdentityTransform):
    """Element-wise, so a row's output never depends on its batch."""

    def transform(self, x):
        return 0.5 * super().transform(x) - 1.0


class TestReturnedArrays:
    """Every array ``embed_rows`` returns is read-only and exact.

    Each request shape runs through a pass-through transform on a
    float64 store (its run shares memory with the source) and through an
    element-wise transform on a float32 store, reading an ``order``.
    """

    @pytest.fixture(params=["pass-through", "ordered-float32"])
    def case(self, request, data, rng):
        if request.param == "pass-through":
            return lambda: CountingTransform(6).fit(data), None, None
        order = rng.permutation(len(data))
        return lambda: Affine(6).fit(data), "float32", order

    @staticmethod
    def _check(out, transform, data, case, start, stop):
        _, dtype, order = case
        rows = data if order is None else data[order]
        expected = np.asarray(
            transform.transform(rows[start:stop]), dtype=resolve_dtype(dtype)
        )
        assert not out.flags.writeable
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)

    def test_one_block(self, data, case):
        make, dtype, order = case
        transform = make()
        store = EmbeddingStore(block_rows=64, dtype=dtype)
        out = store.embed_rows(transform, data, 70, 100, order=order)
        self._check(out, transform, data, case, 70, 100)

    def test_one_run_is_a_view_its_hot_blocks_share(self, data, case):
        make, dtype, order = case
        transform = make()
        store = EmbeddingStore(block_rows=64, dtype=dtype)
        out = store.embed_rows(transform, data, 10, 200, order=order)
        assert store.stats.misses == 4
        assert any(
            np.shares_memory(out, block) for block in store._blocks.values()
        )
        self._check(out, transform, data, case, 10, 200)

    def test_hits_mixed_with_a_fresh_run(self, data, case):
        make, dtype, order = case
        transform = make()
        store = EmbeddingStore(block_rows=64, dtype=dtype)
        store.embed_rows(transform, data, 64, 128, order=order)
        out = store.embed_rows(transform, data, 10, 250, order=order)
        assert (store.stats.hits, store.stats.misses) == (1, 4)
        self._check(out, transform, data, case, 10, 250)

    def test_spill_promoted_blocks(self, tmp_path, data, case):
        make, dtype, order = case
        with EmbeddingStore(
            block_rows=64, dtype=dtype, store_dir=tmp_path
        ) as store:
            store.embed_rows(make(), data, 0, len(data), order=order)
        transform = make()
        store = EmbeddingStore(block_rows=64, dtype=dtype, store_dir=tmp_path)
        out = store.embed_rows(transform, data, 10, 250, order=order)
        assert (store.stats.spill_hits, store.stats.misses) == (4, 0)
        self._check(out, transform, data, case, 10, 250)


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

    def test_concurrent_ordered_embeds_keep_the_budget_exact(self, data, rng):
        # Two transforms share a token and so race on the same keys;
        # a 3-block budget makes every insert evict.  Each worker's runs
        # share one gathered buffer, so a lost update in the per-buffer
        # counts would leave current_bytes off the hot tier's buffers.
        order = rng.permutation(len(data))
        transforms = [CountingTransform(6, name="shared").fit(data)
                      for _ in range(2)]
        transforms += [CountingTransform(6, name=f"t{i}").fit(data)
                       for i in range(4)]
        store = EmbeddingStore(max_bytes=3 * 32 * 6 * 8, block_rows=32)
        errors = []

        def worker(transform):
            try:
                for _ in range(3):
                    for start in range(0, len(data), 70):
                        stop = min(start + 70, len(data))
                        out = store.embed_rows(
                            transform, data, start, stop, order=order
                        )
                        np.testing.assert_array_equal(
                            out, data[order[start:stop]]
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in transforms
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        buffers = {
            id(_buffer(block)): _buffer(block).nbytes
            for block in store._blocks.values()
        }
        assert store.stats.current_bytes == sum(buffers.values())
        assert store.stats.current_bytes <= store.max_bytes
        assert store.stats.evictions > 0

