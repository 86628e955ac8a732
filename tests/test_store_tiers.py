"""Tests for the EmbeddingStore's disk spill tier, its lifecycle and a
warm restart of ``repro study`` in fresh interpreters."""

import contextlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.transforms import store as store_module
from repro.transforms.linear import IdentityTransform, PCATransform
from repro.transforms.store import (
    _SPILL_MAGIC,
    _SPILL_SUFFIX,
    EmbeddingStore,
    _read_spill,
    _write_spill,
    clear_spill_dir,
    scan_spill_dir,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class CountingTransform(IdentityTransform):
    """Identity transform counting transform() invocations.

    The counter mutates the transform's pickled state, so this helper is
    only for single-process tests (the store caches the content token by
    object identity, making in-process counting safe).
    """

    def __init__(self, dim, name="counting"):
        super().__init__(dim)
        self.name = name
        self.calls = 0

    def transform(self, x):
        self.calls += 1
        return super().transform(x)


class ScaledTransform(IdentityTransform):
    """Scales rows through a lambda, so the transform does not pickle."""

    def __init__(self, dim, scale):
        super().__init__(dim)
        self.name = "proj"
        self.scale = lambda x: scale * x

    def transform(self, x):
        return self.scale(super().transform(x))


@pytest.fixture()
def data(rng):
    return rng.normal(size=(300, 6))


@pytest.fixture()
def transform(data):
    return CountingTransform(6).fit(data)


def _spill_files(directory):
    return sorted(
        name for name in os.listdir(directory)
        if name.endswith(_SPILL_SUFFIX)
    )


def _flip_payload_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def _write_raw_block(directory, file_id, meta):
    """A payload-less block file with an arbitrary JSON header."""
    header = json.dumps(meta).encode()
    (directory / (file_id + _SPILL_SUFFIX)).write_bytes(
        _SPILL_MAGIC + len(header).to_bytes(4, "little") + header
    )


class TestSpillFileFormat:
    def test_round_trip_preserves_dtype_shape_content(self, tmp_path, rng):
        for dtype in ("float32", "float64", "uint8", "int64"):
            array = (rng.random((13, 7)) * 100).astype(dtype)
            _write_spill(str(tmp_path), f"block-{dtype}", array)
            back = _read_spill(str(tmp_path), f"block-{dtype}")
            assert back.dtype == array.dtype
            assert back.shape == array.shape
            np.testing.assert_array_equal(back, array)

    def test_read_back_is_read_only(self, tmp_path):
        _write_spill(str(tmp_path), "ro", np.ones((4, 4)))
        back = _read_spill(str(tmp_path), "ro")
        with pytest.raises(ValueError):
            back[0, 0] = 2.0

    def test_missing_file_is_none(self, tmp_path):
        assert _read_spill(str(tmp_path), "never-written") is None

    def test_corrupted_payload_is_miss_and_removed(self, tmp_path):
        _write_spill(str(tmp_path), "victim", np.ones((8, 8)))
        path = tmp_path / ("victim" + _SPILL_SUFFIX)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(blob))
        assert _read_spill(str(tmp_path), "victim") is None
        assert not path.exists()

    def test_truncated_file_is_miss_and_removed(self, tmp_path):
        _write_spill(str(tmp_path), "victim", np.ones((8, 8)))
        path = tmp_path / ("victim" + _SPILL_SUFFIX)
        path.write_bytes(path.read_bytes()[:-20])
        assert _read_spill(str(tmp_path), "victim") is None
        assert not path.exists()

    def test_garbage_file_is_miss_and_removed(self, tmp_path):
        path = tmp_path / ("junk" + _SPILL_SUFFIX)
        path.write_bytes(b"not a block file at all")
        assert _read_spill(str(tmp_path), "junk") is None
        assert not path.exists()


class TestSpillTier:
    def test_blocks_written_through_to_disk(self, tmp_path, data, transform):
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            store.embed(transform, data)
            assert len(_spill_files(tmp_path)) == 5
            assert store.stats.spill_writes == 5

    def test_eviction_keeps_spilled_copy_and_promotes_on_hit(
        self, tmp_path, data, transform
    ):
        block_bytes = 64 * 6 * 8
        with EmbeddingStore(
            max_bytes=2 * block_bytes, block_rows=64, store_dir=tmp_path
        ) as store:
            store.embed(transform, data)  # 5 blocks through 2-block budget
            assert store.stats.evictions >= 3
            transform.calls = 0
            out = store.embed(transform, data)
            # Every evicted block came back from disk, none recomputed.
            assert transform.calls == 0
            assert store.stats.spill_hits >= 3
            np.testing.assert_array_equal(out, data)

    def test_warm_from_disk_fresh_store_zero_transform_calls(
        self, tmp_path, data
    ):
        first = CountingTransform(6, name="warm").fit(data)
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            store.embed(first, data)
        # A *new* store and a rebuilt-but-identical transform: every
        # block must come from the spill tier (simulates a process
        # restart / another tenant on the same store_dir).
        second = CountingTransform(6, name="warm").fit(data)
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            out = store.embed(second, data)
            assert second.calls == 0
            assert store.stats.misses == 0
            assert store.stats.spill_hits == 5
        np.testing.assert_array_equal(out, data)

    def test_different_transforms_never_share_spill_files(
        self, tmp_path, data
    ):
        ident = CountingTransform(6, name="same").fit(data)
        pca = PCATransform(3).fit(data)
        pca.name = "same"
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            a = store.embed(ident, data)
            b = store.embed(pca, data)
            assert a.shape != b.shape

    def test_float32_and_float64_stores_do_not_share(self, tmp_path, data):
        first = CountingTransform(6, name="dt").fit(data)
        with EmbeddingStore(
            block_rows=64, store_dir=tmp_path, dtype="float32"
        ) as store:
            store.embed(first, data)
        second = CountingTransform(6, name="dt").fit(data)
        with EmbeddingStore(
            block_rows=64, store_dir=tmp_path, dtype="float64"
        ) as store:
            out = store.embed(second, data)
            # The float32 files must not serve the float64 store.
            assert second.calls > 0
            assert out.dtype == np.float64

    def test_spill_budget_prunes_oldest_files(self, tmp_path, data, transform):
        block_file_bytes = 64 * 6 * 8 + 120  # payload + header slack
        with EmbeddingStore(
            block_rows=64,
            store_dir=tmp_path,
            spill_bytes=2 * block_file_bytes,
        ) as store:
            store.embed(transform, data)  # writes 5 block files
            assert len(_spill_files(tmp_path)) <= 2
            assert store.stats.spill_current_bytes <= store.spill_bytes

    def test_failed_write_through_leaves_no_tmp_files(
        self, tmp_path, data, transform, monkeypatch
    ):
        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.os, "replace", refuse)
        with EmbeddingStore(
            max_bytes=64 * 6 * 8, block_rows=64, store_dir=tmp_path
        ) as store:
            out = store.embed(transform, data[:128])
            assert store.stats.spill_writes == 0
        np.testing.assert_array_equal(out, data[:128])
        assert os.listdir(tmp_path) == []

    def test_corrupt_after_promote_is_a_miss(self, tmp_path, data):
        source = data[:128]  # two 64-row blocks
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            store.embed(CountingTransform(6).fit(data), source)
        transform = CountingTransform(6).fit(data)
        with EmbeddingStore(
            max_bytes=64 * 6 * 8, block_rows=64, store_dir=tmp_path
        ) as store:
            # Both blocks are promoted from disk; block 0 is evicted.
            store.embed(transform, source)
            assert store.stats.spill_hits == 2
            assert store.stats.evictions == 1
            for name in _spill_files(tmp_path):
                _flip_payload_byte(tmp_path / name)
            rows = store.embed_rows(transform, source, 0, 64)
            assert store.stats.misses == 1
        assert transform.calls == 1
        np.testing.assert_array_equal(rows, source[:64])

    def test_corrupt_spill_block_recomputes(self, tmp_path, data, transform):
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            store.embed(transform, data)
        for name in _spill_files(tmp_path):
            path = tmp_path / name
            blob = bytearray(path.read_bytes())
            blob[-3] ^= 0xFF
            path.write_bytes(bytes(blob))
        fresh = CountingTransform(6).fit(data)
        with EmbeddingStore(block_rows=64, store_dir=tmp_path) as store:
            result = store.embed(fresh, data)
            assert fresh.calls > 0  # recomputed, never crashed
            np.testing.assert_array_equal(result, data)

    def test_session_tokens_stay_out_of_the_spill_tier(self, tmp_path, rng):
        # Each store numbers its session tokens from 0, so the two
        # transforms would share token and block ids on disk.
        source = rng.normal(size=(512, 8))
        with EmbeddingStore(store_dir=tmp_path) as store:
            store.embed(ScaledTransform(8, scale=1.0), source)
        with EmbeddingStore(store_dir=tmp_path) as store:
            rows = store.embed(ScaledTransform(8, scale=100.0), source)
            assert store.stats.spill_hits == 0
        np.testing.assert_array_equal(rows, 100.0 * source)
        assert _spill_files(tmp_path) == []

    def test_block_file_ids_are_stable_across_versions(self):
        # Spill file names are the persistence format: a spill dir
        # written by an earlier version must keep warm-starting, so the
        # id of a given block key is pinned to its historical value.
        key = ("pca@0123456789abcdef01234567/<f4", bytes(range(16)))
        with EmbeddingStore() as store:
            assert store._block_id(key) == "7bc7430fcf4491e286506df8355bd52e"


def _study_cli(*args):
    """``repro study sst2`` in a fresh interpreter; its report, untimed."""
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited])),
    }
    result = subprocess.run(
        [sys.executable, "-m", "repro", "study", "sst2", "--target", "0.9",
         "--scale", "0.05", "--json", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    del report["wall_seconds"]
    return report


class TestRestart:
    def test_warm_restart_embeds_nothing_and_matches_no_store(self, tmp_path):
        """A new process on a primed spill dir serves every block from disk.

        Each study runs in its own interpreter.  A forked child would
        inherit the parent's objects at their addresses, so a transform
        token that varies between processes would look stable there.
        The warm run's 1 MiB hot tier is below its working set, so its
        blocks promote from disk.  A miss writes its block through, so
        an unchanged set of block files means zero transform calls.  The
        reference has no store, so a fault both store runs share shows.
        """
        reference = _study_cli("--embedding-cache-mb", "0")
        store_dir = tmp_path / "spill"
        cold = _study_cli("--store-dir", str(store_dir))
        blocks = _spill_files(store_dir)
        warm = _study_cli(
            "--store-dir", str(store_dir), "--embedding-cache-mb", "1"
        )
        assert blocks
        assert _spill_files(store_dir) == blocks
        assert cold == reference
        assert warm == reference


class TestScanAndClear:
    def test_scan_reports_layout(self, tmp_path):
        _write_spill(str(tmp_path), "a", np.zeros((8, 4), dtype=np.float32))
        entries = scan_spill_dir(str(tmp_path))
        assert len(entries) == 1
        assert entries[0]["dtype"] == "float32"
        assert entries[0]["shape"] == "8x4"
        assert entries[0]["bytes"] > 8 * 4 * 4

    def test_scan_missing_dir_is_empty(self, tmp_path):
        assert scan_spill_dir(str(tmp_path / "nope")) == []

    def test_malformed_header_lists_as_unknown_and_reads_as_miss(
        self, tmp_path, capsys
    ):
        _write_raw_block(
            tmp_path, "bad", {"dtype": 5, "shape": [2, 2], "digest": "0"}
        )
        _write_spill(str(tmp_path), "good", np.zeros((2, 3)))
        entries = {e["file"]: e for e in scan_spill_dir(str(tmp_path))}
        assert entries["bad.blk"]["dtype"] == "?"
        assert entries["bad.blk"]["shape"] == "?"
        assert entries["good.blk"]["shape"] == "2x3"
        assert main(["store", "stats", "--store-dir", str(tmp_path)]) == 0
        assert "bad.blk" in capsys.readouterr().out
        assert _read_spill(str(tmp_path), "bad") is None
        assert not (tmp_path / "bad.blk").exists()

    def test_scan_skips_files_removed_since_listing(
        self, tmp_path, monkeypatch
    ):
        _write_spill(str(tmp_path), "kept", np.zeros((2, 3)))
        listdir = os.listdir
        monkeypatch.setattr(
            store_module.os, "listdir",
            lambda path: listdir(path) + ["gone" + _SPILL_SUFFIX],
        )
        assert [e["file"] for e in scan_spill_dir(str(tmp_path))] == [
            "kept" + _SPILL_SUFFIX
        ]

    def test_store_index_skips_files_removed_since_listing(
        self, tmp_path, monkeypatch
    ):
        kept = _write_spill(str(tmp_path), "kept", np.zeros((2, 3)))
        _write_spill(str(tmp_path), "gone", np.zeros((2, 3)))
        scandir = os.scandir

        def racing_scandir(path):
            # "gone" is listed, then removed before its stat, as by a
            # concurrent `repro store clear` or spill-LRU unlink.
            with scandir(path) as listing:
                entries = list(listing)
            os.unlink(tmp_path / ("gone" + _SPILL_SUFFIX))
            return contextlib.nullcontext(entries)

        monkeypatch.setattr(store_module.os, "scandir", racing_scandir)
        store = EmbeddingStore(store_dir=tmp_path)
        assert list(store._spill_index) == ["kept"]
        assert store.stats.spill_current_bytes == kept

    def test_clear_removes_files_and_reports_bytes(self, tmp_path):
        _write_spill(str(tmp_path), "a", np.zeros((8, 4)))
        _write_spill(str(tmp_path), "b", np.zeros((8, 4)))
        files, reclaimed = clear_spill_dir(str(tmp_path))
        assert files == 2
        assert reclaimed > 0
        assert _spill_files(tmp_path) == []

    def test_clear_keeps_files_that_are_not_blocks(self, tmp_path):
        _write_spill(str(tmp_path), "a", np.zeros((8, 4)))
        (tmp_path / "a.blk.tmp4242").write_bytes(b"partial write")
        unrelated = ["notes.blk.txt", "backup.blk.bak", "x.blkfoo",
                     "y.blk.tmpx"]
        for name in unrelated:
            (tmp_path / name).write_bytes(b"keep me")
        files, _ = clear_spill_dir(str(tmp_path))
        assert files == 2
        assert sorted(os.listdir(tmp_path)) == sorted(unrelated)


class TestLifecycle:
    def test_close_drops_hot_tier_keeps_spill(self, tmp_path, data, transform):
        store = EmbeddingStore(block_rows=64, store_dir=tmp_path)
        store.embed(transform, data)
        store.close()
        assert len(store) == 0
        assert store.stats.current_bytes == 0
        assert len(_spill_files(tmp_path)) == 5

    def test_close_is_idempotent(self):
        store = EmbeddingStore()
        store.close()
        store.close()
