"""Shared embedding memoization: in-memory hot tier + disk spill tier.

Feature extraction dominates a feasibility study's runtime (Section V of
the paper), yet studies that share data and a catalog embed the same
chunks with the same transformations again and again: once per
allocation strategy compared, and once more by every restart of the
same study.  The :class:`EmbeddingStore` removes that repeated work.

Design
------
- **Block-aligned, content-addressed.**  A request for rows
  ``[start, stop)`` of a source matrix is rounded out to fixed-size row
  blocks aligned to the *source* (not to the request), and each block is
  keyed by ``(transform, blake2b(block bytes))``.  Two strategies that
  pull the same shuffled pool with different chunk boundaries therefore
  share every cached block, and a second run that draws the same order
  over the same data (same seed) hits purely on content.  Transform
  tokens are themselves content-derived (a digest of the transform's
  pickled, fitted state), so the *same* transform rebuilt in another
  process — or another run — addresses the *same* blocks.  A transform
  that does not pickle gets a token unique to this store, and its
  blocks never leave the hot tier.
- **Two tiers.**  The *hot* tier maps block keys to in-process arrays
  under a byte-budgeted LRU.  The *spill* tier (``store_dir``) holds
  content-addressed files: every computed block is written through to
  disk when it is inserted, so eviction only drops the in-memory copy,
  and a spill hit promotes the block back into the hot tier.  The spill
  tier persists across processes and across runs: a fresh store pointed
  at a warm ``store_dir`` serves every block with **zero** transform
  calls.  Spill files carry a payload digest that every promote
  verifies; a corrupted or truncated file is deleted and treated as a
  miss — never a crash.
- **Byte-budgeted LRU, per tier.**  ``max_bytes`` bounds the hot tier,
  ``spill_bytes`` the spill tier (least-recently-used files are
  unlinked), so the store is safe to leave attached to a long-lived
  service and corpora larger than RAM stream through the hot budget.
  The hot tier counts the buffers its blocks keep alive: blocks cut
  from one transform run are views of the run's output, which counts
  once and is freed only when its last block leaves.
- **Read-only, shared outputs.**  Each transform run's output buffer is
  marked read-only, and so is every array the store returns.  A request
  whose blocks all come from one run is served as a view of that run's
  buffer, so a caller that keeps it (an arm's 1NN evaluator binding the
  embedded test set) shares the memory the hot tier holds instead of
  copying it.  A pass-through run, which shares memory with its source,
  is copied once, so freezing it never freezes the caller's array.
- **Memory goes back when the store does.**  The store's weakref
  callbacks hold it weakly, so a dropped store is freed at once rather
  than by the cyclic collector, and closing a store that held a large
  hot tier hands the heap pages it leaves free back to the OS.
- **Permuted sources without a permuted copy.**  A caller that reads a
  matrix in another row order passes the matrix and the ``order``;
  logical row ``i`` is ``source[order[i]]``, gathered one block at a
  time for its digest and one run of missing blocks at a time for the
  transform.  Block bytes, and so block ids, equal those of the
  materialized ``source[order]``.
- **Thread-safe.**  Bookkeeping is guarded by a lock while the actual
  ``transform.transform`` calls (and spill-file reads) run outside it,
  so a caller may share one store across its own threads, and threads
  embedding through different transforms do not wait on each other.

A transform must not be re-fitted while a live store holds its blocks:
re-fitting changes its output without changing the input bytes, and the
store derives a transform's content token once, on first use.  Callers
fit a transform before any store embeds through it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import resolve_dtype

#: Default byte budget for the hot tier (256 MiB).
DEFAULT_CACHE_BYTES = 256 * 2**20

#: Default byte budget for the spill tier (1 GiB).
DEFAULT_SPILL_BYTES = 2**30

#: Default rows per cached block; requests are rounded out to blocks.
DEFAULT_BLOCK_ROWS = 256

#: Closing a store whose hot tier held at least this many bytes hands
#: the heap's free pages back to the OS.  Measured on back-to-back
#: studies in one process (one core): after hot tiers of 22.6-84 MiB
#: the trim took 1-3 ms and returned 17-57 MB, with no resolved change
#: in the next study's time; after 8 MiB hot tiers served from the
#: spill tier, trimming made each next study about 13% slower, as it
#: faulted back in the pages it would have reused.
_TRIM_BYTES = 16 * 2**20

_SPILL_MAGIC = b"RPROSPL1"
_SPILL_SUFFIX = ".blk"
# Block files and the tmp files of in-flight or failed writes.
_SPILL_FILE = re.compile(r".*\.blk(\.tmp\d+)?", re.DOTALL)


def default_store_dir() -> str:
    """The conventional persistent spill location (CLI ``repro store``)."""
    configured = os.environ.get("REPRO_STORE_DIR")
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "store"
    )


@dataclass(frozen=True)
class StoreStats:
    """Cumulative cache counters of an :class:`EmbeddingStore`."""

    hits: int
    misses: int
    evictions: int
    current_bytes: int
    max_bytes: int
    spill_hits: int = 0
    spill_writes: int = 0
    spill_current_bytes: int = 0
    spill_max_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of block lookups served from cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


# ----------------------------------------------------------------------
# Spill-tier file helpers (content-verified, atomically replaced)
# ----------------------------------------------------------------------


def _spill_path(directory: str, file_id: str) -> str:
    return os.path.join(directory, file_id + _SPILL_SUFFIX)


def _write_spill(directory: str, file_id: str, array: np.ndarray) -> int:
    """Atomically write one content-verified block file; returns bytes."""
    payload = np.ascontiguousarray(array).tobytes()
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    header = json.dumps(
        {"dtype": array.dtype.str, "shape": list(array.shape),
         "digest": digest}
    ).encode()
    path = _spill_path(directory, file_id)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_SPILL_MAGIC)
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return 12 + len(header) + len(payload)


def _read_header(fh) -> tuple[np.dtype, tuple[int, ...], str]:
    """Parse a block file's header: ``(dtype, shape, payload digest)``.

    Anything malformed — magic, length, JSON, dtype or shape — raises
    ``ValueError``; I/O failures propagate as ``OSError``.
    """
    if fh.read(8) != _SPILL_MAGIC:
        raise ValueError("bad magic")
    length = int.from_bytes(fh.read(4), "little")
    try:
        meta = json.loads(fh.read(length))
        dtype = np.dtype(meta["dtype"])
        shape = tuple(meta["shape"])
        digest = meta["digest"]
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed header: {error!r}") from None
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        raise ValueError(f"malformed shape {shape!r}")
    return dtype, shape, digest


def _read_spill(directory: str, file_id: str) -> np.ndarray | None:
    """Read + verify one spill file; corrupt/truncated files are removed.

    The digest check requires touching every payload byte once — the
    price of guaranteeing a torn, truncated or bit-flipped file is
    reported as a miss (recompute) instead of serving garbage.
    """
    path = _spill_path(directory, file_id)
    try:
        with open(path, "rb") as fh:
            dtype, shape, digest = _read_header(fh)
            payload = fh.read()
        if len(payload) != math.prod(shape) * dtype.itemsize:
            raise ValueError("truncated payload")
        actual = hashlib.blake2b(payload, digest_size=16).hexdigest()
        if actual != digest:
            raise ValueError("payload digest mismatch")
        array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        array.setflags(write=False)
        return array
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def scan_spill_dir(directory: str) -> list[dict]:
    """Describe every block file in a spill dir (CLI ``repro store stats``).

    Returns one dict per file: ``{"file", "bytes", "dtype", "shape"}``;
    unreadable headers yield ``dtype="?"`` and ``shape="?"``, and a file
    removed since the directory listing is skipped.
    """
    entries = []
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return entries
    for name in names:
        if not name.endswith(_SPILL_SUFFIX):
            continue
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue  # a concurrent clear or spill-LRU unlink removed it
        dtype = shape = "?"
        try:
            with open(path, "rb") as fh:
                block_dtype, block_shape, _ = _read_header(fh)
            dtype = str(block_dtype)
            shape = "x".join(str(dim) for dim in block_shape)
        except (OSError, ValueError):
            pass
        entries.append(
            {"file": name, "bytes": size, "dtype": dtype, "shape": shape}
        )
    return entries


def clear_spill_dir(directory: str) -> tuple[int, int]:
    """Delete every block (and stray tmp) file; returns (files, bytes).

    Only ``*.blk`` and ``*.blk.tmp<pid>`` names are touched; any other
    file in the directory is left alone.
    """
    files = 0
    reclaimed = 0
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return 0, 0
    for name in names:
        if not _SPILL_FILE.fullmatch(name):
            continue
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            continue
        files += 1
        reclaimed += size
    return files, reclaimed


class EmbeddingStore:
    """Memoizes ``transform.transform`` outputs at block granularity.

    Parameters
    ----------
    max_bytes:
        Hot-tier byte budget; least-recently-used blocks are dropped
        once exceeded (a spill tier already holds its own copy).  It
        counts each buffer hot blocks keep alive once, so a transform
        run larger than the budget keeps none of its blocks hot.
    block_rows:
        Rows per cached block.  Requests covering partial blocks embed
        the whole block once — rows a progressive consumer would need
        shortly anyway — and serve every later overlapping request from
        cache regardless of its exact boundaries.
    dtype:
        Storage dtype for cached blocks ("float32"/"float64"; ``None``
        keeps float64).  Byte accounting always follows the actual
        block dtype (``nbytes``).  Source matrices are digested at
        float64, so content keys are independent of the storage dtype
        (the dtype is folded into the transform token instead, keeping
        float32 and float64 spill files apart).
    store_dir:
        Spill-tier directory.  When set, every computed block is written
        through to a content-addressed, digest-verified file, giving
        (a) persistence across runs and processes (a fresh store on a
        warm dir re-embeds nothing) and (b) an overflow tier for
        corpora larger than ``max_bytes``.
    spill_bytes:
        Spill-tier byte budget (default 1 GiB); oldest files are
        unlinked beyond it.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        dtype=None,
        store_dir: str | os.PathLike | None = None,
        spill_bytes: int | None = None,
    ):
        if max_bytes < 1:
            raise DataValidationError(
                f"max_bytes must be positive, got {max_bytes}"
            )
        if block_rows < 1:
            raise DataValidationError(
                f"block_rows must be positive, got {block_rows}"
            )
        if spill_bytes is not None and spill_bytes < 1:
            raise DataValidationError(
                f"spill_bytes must be positive, got {spill_bytes}"
            )
        self.max_bytes = int(max_bytes)
        self.block_rows = int(block_rows)
        self.dtype = dtype
        self.spill_bytes = int(
            DEFAULT_SPILL_BYTES if spill_bytes is None else spill_bytes
        )
        self._block_dtype = resolve_dtype(dtype)
        self._lock = threading.RLock()
        # (transform token, block digest) -> array (LRU, budgeted).
        self._blocks: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # id(buffer) -> hot blocks that are views of it; ``_bytes`` sums
        # the distinct buffers, which is what the hot tier keeps alive.
        self._owners: dict[int, int] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spill_hits = 0
        self._spill_writes = 0
        # Distinct transform objects get distinct tokens.  Tokens are
        # content-derived strings when the transform pickles (stable
        # across processes and runs — the basis of warm-from-disk cold
        # starts) and session tuples otherwise.  Weak references
        # guarantee a recycled id() can never alias two live transforms;
        # a collected transform drops its token mapping and hot blocks.
        self._tokens: dict[int, str | tuple] = {}
        self._token_refs: dict[int, weakref.ref] = {}
        self._token_counter = 0
        # Digest cache per (source, order) pair: (id(source), id(order)
        # or None) -> {block -> digest}, held weakly so that collecting
        # either array releases the entry.
        self._digests: dict[tuple, dict[int, bytes]] = {}
        self._digest_refs: dict[tuple, tuple[weakref.ref, ...]] = {}
        # Spill index: file id -> bytes on disk (LRU by access).
        self.store_dir: str | None = None
        self._spill_index: "OrderedDict[str, int]" = OrderedDict()
        self._spill_used = 0
        if store_dir is not None:
            self._set_store_dir(os.fspath(store_dir))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def embed(self, transform, x: np.ndarray) -> np.ndarray:
        """Embed a full matrix through the cache (blocks aligned to row 0)."""
        x = self._check_source(transform, x)
        return self.embed_rows(transform, x, 0, len(x))

    def embed_rows(
        self,
        transform,
        source: np.ndarray,
        start: int,
        stop: int,
        order: np.ndarray | None = None,
    ) -> np.ndarray:
        """Embed logical rows ``[start, stop)`` of ``source``, block-aligned.

        Without ``order`` the logical rows are ``source``'s own; with a
        1-D integer ``order``, logical row ``i`` is ``source[order[i]]``
        and blocks align to ``order``'s positions.  Rows are gathered one
        block at a time for the block digest and one run of missing
        blocks at a time for ``transform``, so ``source[order]`` is never
        materialized; blocks, their ids and the output equal those of
        ``embed_rows(transform, source[order], start, stop)``.

        Every returned array is read-only.  A request whose blocks all
        come from one transform run is served as a view of that run's
        buffer, which the hot tier's blocks view too; a single-block
        request is a view of its block, and any other request is a
        concatenation.
        """
        source = self._check_source(transform, source)
        if order is not None:
            order = np.asarray(order)
        with self._lock:
            digests = self._digest_cache(source, order)
        num_rows = len(source) if order is None else len(order)
        if not 0 <= start <= stop <= num_rows:
            raise DataValidationError(
                f"invalid row range [{start}, {stop}) for source of "
                f"{num_rows} rows"
            )
        if stop == start:
            return _read_only(
                np.empty((0, transform.output_dim), dtype=self._block_dtype)
            )
        token = self._transform_token(transform)
        # A session token names nothing on disk: a store opened later
        # restarts the counter behind it.
        spill = self.store_dir is not None and isinstance(token, str)
        block_size = self.block_rows
        first = start // block_size
        last = (stop - 1) // block_size
        pieces: dict[int, np.ndarray] = {}
        keys: dict[int, tuple] = {}
        missing: list[int] = []
        with self._lock:
            for block in range(first, last + 1):
                key = (
                    token, self._block_digest(digests, source, order, block)
                )
                keys[block] = key
                cached = self._lookup_hot(key)
                if cached is not None:
                    pieces[block] = cached
                else:
                    missing.append(block)
        # Spill-tier reads happen outside the lock: block files are
        # content-addressed and replaced atomically, so a concurrent
        # writer can only make a miss become a hit.
        spilled: dict[int, np.ndarray] = {}
        if spill and missing:
            still = []
            for block in missing:
                array = self._load_spilled(keys[block])
                if array is not None:
                    spilled[block] = array
                    pieces[block] = array
                else:
                    still.append(block)
            missing = still
        with self._lock:
            self._hits += (last - first + 1) - len(missing)
            self._misses += len(missing)
            for block, array in spilled.items():
                pieces[block] = self._insert_hot(keys[block], array)
        # Embed contiguous runs of missing blocks in one transform call
        # each, outside the lock so concurrent callers embed in parallel.
        for run_start, run_stop in _contiguous_runs(missing):
            lo = run_start * block_size
            hi = min(run_stop * block_size, num_rows)
            embedded = np.ascontiguousarray(
                transform.transform(take_rows(source, order, lo, hi)),
                dtype=self._block_dtype,
            )
            if np.may_share_memory(embedded, source):
                # Pass-through transforms (identity) return views of the
                # source; keep an independent copy of the run, so caller
                # mutations can't corrupt it (or be frozen below).
                embedded = embedded.copy()
            _read_only(embedded)
            for block in range(run_start, run_stop):
                pieces[block] = embedded[
                    block * block_size - lo : (block + 1) * block_size - lo
                ]
        if missing:
            with self._lock:
                for block in missing:
                    pieces[block] = self._insert_hot(
                        keys[block], pieces[block], write_through=spill
                    )
        if len(missing) == last - first + 1:
            # Every block came from the one run just embedded: serve a
            # view of its buffer, which the hot blocks share.
            lo = first * block_size
            return embedded[start - lo : stop - lo]
        parts = []
        for block in range(first, last + 1):
            lo = block * block_size
            a = max(start - lo, 0)
            b = min(stop - lo, block_size)
            parts.append(pieces[block][a:b])
        if len(parts) == 1:
            return parts[0]
        return _read_only(np.concatenate(parts, axis=0))

    def close(self) -> None:
        """Drop all hot blocks and digest caches; idempotent.

        When the hot tier held at least :data:`_TRIM_BYTES`, the heap
        pages left free go back to the OS (glibc's ``malloc_trim``), so
        a long-lived process does not stay at the resident size of its
        largest study: after a paper-scale cifar10 study (84 MiB hot),
        the process otherwise kept 111 MB of free heap resident once the
        study was gone.  Counters are kept.  The spill tier is left in
        place — it is the persistence medium; use
        :func:`clear_spill_dir` (CLI: ``repro store clear``) to prune it.
        """
        with self._lock:
            dropped = self._bytes
            self._blocks.clear()
            self._owners.clear()
            self._bytes = 0
            self._digests.clear()
            self._digest_refs.clear()
        if dropped >= _TRIM_BYTES:
            _release_free_heap()

    def __enter__(self) -> "EmbeddingStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
                spill_hits=self._spill_hits,
                spill_writes=self._spill_writes,
                spill_current_bytes=self._spill_used,
                spill_max_bytes=self.spill_bytes,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats
        return (
            f"EmbeddingStore(blocks={len(self)}, "
            f"bytes={stats.current_bytes}/{stats.max_bytes}, "
            f"spill={stats.spill_current_bytes}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )

    # ------------------------------------------------------------------
    # Internals: tiers
    # ------------------------------------------------------------------

    def _lookup_hot(self, key) -> np.ndarray | None:
        """Hot-tier lookup (lock held); counts nothing."""
        array = self._blocks.get(key)
        if array is not None:
            self._blocks.move_to_end(key)
        return array

    def _insert_hot(
        self, key, array: np.ndarray, write_through: bool = False
    ) -> np.ndarray:
        """Insert one block (lock held); returns the canonical array.

        A computed block is written through to the spill tier here
        (``write_through``), so eviction only ever drops.
        """
        existing = self._blocks.get(key)
        if existing is not None:
            self._blocks.move_to_end(key)
            return existing
        self._blocks[key] = array
        self._hold(array)
        if write_through:
            self._write_through(key, array)
        while self._bytes > self.max_bytes and self._blocks:
            _, evicted = self._blocks.popitem(last=False)
            self._release(evicted)
            self._evictions += 1
        return array

    def _hold(self, array: np.ndarray) -> None:
        """Count a block in: its buffer's bytes with its first block."""
        owner = _owner(array)
        held = self._owners.get(id(owner), 0)
        if not held:
            self._bytes += owner.nbytes
        self._owners[id(owner)] = held + 1

    def _release(self, array: np.ndarray) -> None:
        """Count a block out: its buffer's bytes leave with its last block.

        A hot block keeps its buffer alive, so an id in ``_owners``
        cannot be recycled before its count reaches zero.
        """
        owner = _owner(array)
        held = self._owners.pop(id(owner)) - 1
        if held:
            self._owners[id(owner)] = held
        else:
            self._bytes -= owner.nbytes

    def _write_through(self, key, array: np.ndarray) -> None:
        """Persist one block to the spill tier (lock held)."""
        file_id = self._block_id(key)
        if file_id in self._spill_index:
            self._spill_index.move_to_end(file_id)
            return
        try:
            size = _write_spill(self.store_dir, file_id, array)
        except OSError:
            return
        self._spill_writes += 1
        self._spill_insert(file_id, size)

    def _spill_insert(self, file_id: str, size: int) -> None:
        previous = self._spill_index.pop(file_id, None)
        if previous is not None:
            self._spill_used -= previous
        self._spill_index[file_id] = size
        self._spill_used += size
        while self._spill_used > self.spill_bytes and len(self._spill_index) > 1:
            victim, vsize = self._spill_index.popitem(last=False)
            self._spill_used -= vsize
            try:
                os.unlink(_spill_path(self.store_dir, victim))
            except OSError:
                pass

    def _load_spilled(self, key) -> np.ndarray | None:
        """Read and digest-verify one block from the spill tier."""
        file_id = self._block_id(key)
        array = _read_spill(self.store_dir, file_id)
        with self._lock:
            if array is None:
                # Possibly corrupt-and-removed: drop a stale index entry.
                size = self._spill_index.pop(file_id, None)
                if size is not None:
                    self._spill_used -= size
                return None
            self._spill_hits += 1
            if file_id in self._spill_index:
                self._spill_index.move_to_end(file_id)
            else:
                self._spill_insert(
                    file_id, 12 + array.nbytes + 96  # approx header
                )
        return array

    def _set_store_dir(self, directory: str) -> None:
        """Index the spill dir's block files, oldest mtime first.

        One ``stat`` per file; a file removed since the listing is
        skipped.
        """
        os.makedirs(directory, exist_ok=True)
        self.store_dir = directory
        entries = []
        with os.scandir(directory) as listing:
            for entry in listing:
                if not entry.name.endswith(_SPILL_SUFFIX):
                    continue
                try:
                    info = entry.stat()
                except OSError:
                    continue
                entries.append(
                    (info.st_mtime, entry.name[: -len(_SPILL_SUFFIX)],
                     info.st_size)
                )
        for _, file_id, size in sorted(entries):
            self._spill_index[file_id] = size
            self._spill_used += size

    # ------------------------------------------------------------------
    # Internals: keys, tokens, digests
    # ------------------------------------------------------------------

    def _block_id(self, key) -> str:
        """Stable hex id of a block key (spill-file naming)."""
        token, sub = key
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(str(token).encode("utf-8", "surrogatepass"))
        hasher.update(b"\x1f")
        hasher.update(sub)
        return hasher.hexdigest()

    @staticmethod
    def _check_source(transform, source: np.ndarray) -> np.ndarray:
        source = np.asarray(source, dtype=np.float64)
        if source.ndim != 2:
            raise DataValidationError(
                f"{transform.name}: source must be 2-D, got shape {source.shape}"
            )
        return source

    def _transform_token(self, transform) -> str | tuple:
        with self._lock:
            key = id(transform)
            token = self._tokens.get(key)
            if token is None:
                token = self._derive_token(transform)
                self._tokens[key] = token
                self._token_refs[key] = weakref.ref(
                    transform, _weak_call(self._drop_token, key, token)
                )
            return token

    def _derive_token(self, transform) -> str | tuple:
        """Content token when the transform pickles, session token else.

        A content token makes the key stable across processes and runs:
        a rebuilt identical transform warm-starts from the spill tier.
        The block dtype is folded in so float32 and float64 stores never
        share payload files.  Unpicklable transforms (e.g. a test
        monkeypatching ``transform`` with a closure) fall back to a
        ``(name, counter)`` session tuple, unique within this store
        only; :meth:`embed_rows` keeps its blocks in the hot tier —
        correct, just not persistent.
        """
        try:
            payload = pickle.dumps(transform, protocol=4)
        except Exception:
            token = (transform.name, self._token_counter)
            self._token_counter += 1
            return token
        digest = hashlib.blake2b(payload, digest_size=12).hexdigest()
        return f"{transform.name}@{digest}/{self._block_dtype.str}"

    def _drop_token(self, key: int, token: str | tuple) -> None:
        """Weakref purge: a transform died; its hot blocks are dropped.

        Spill files persist — they are the warm-start medium for an
        identical transform rebuilt later (and the spill LRU bounds
        them).
        """
        with self._lock:
            self._tokens.pop(key, None)
            self._token_refs.pop(key, None)
            # Another live transform with identical content (same token)
            # may still be using these blocks; only purge when this was
            # the token's last holder.
            if token not in self._tokens.values():
                stale = [key for key in self._blocks if key[0] == token]
                for key in stale:
                    self._release(self._blocks.pop(key))

    def _drop_digests(self, key: tuple) -> None:
        """Weakref purge: a source or order died; release its digests."""
        with self._lock:
            self._digests.pop(key, None)
            self._digest_refs.pop(key, None)

    def _digest_cache(
        self, source: np.ndarray, order: np.ndarray | None
    ) -> dict[int, bytes]:
        """Block digests of ``source`` read through ``order`` (lock held).

        Keyed by both arrays, so one ``order`` over two sources never
        shares digests.  ``order`` is validated when its entry is made.
        """
        key = (id(source), None if order is None else id(order))
        digests = self._digests.get(key)
        if digests is None:
            arrays = (source,)
            if order is not None:
                check_order(order, len(source))
                arrays = (source, order)
            self._digest_refs[key] = tuple(
                weakref.ref(array, _weak_call(self._drop_digests, key))
                for array in arrays
            )
            digests = self._digests[key] = {}
        return digests

    def _block_digest(
        self,
        digests: dict[int, bytes],
        source: np.ndarray,
        order: np.ndarray | None,
        block: int,
    ) -> bytes:
        digest = digests.get(block)
        if digest is None:
            lo = block * self.block_rows
            rows = np.ascontiguousarray(
                take_rows(source, order, lo, lo + self.block_rows)
            )
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(np.int64(rows.shape).tobytes())
            hasher.update(rows)
            digest = digests[block] = hasher.digest()
        return digest


def check_order(order, num_rows: int) -> np.ndarray:
    """Validate a row order: a 1-D integer array indexing ``num_rows`` rows."""
    order = np.asarray(order)
    if order.ndim != 1 or not np.issubdtype(order.dtype, np.integer):
        raise DataValidationError(
            f"order must be a 1-D integer array, got dtype {order.dtype} "
            f"and shape {order.shape}"
        )
    if len(order) and (order.min() < 0 or order.max() >= num_rows):
        raise DataValidationError(
            f"order indexes rows outside [0, {num_rows})"
        )
    return order


def take_rows(
    source: np.ndarray, order: np.ndarray | None, start: int, stop: int
) -> np.ndarray:
    """Logical rows ``[start, stop)`` of ``source`` read through ``order``.

    A view of ``source`` without an ``order``; with one, the rows
    ``source[order[start:stop]]``, gathered into a new array.
    """
    if order is None:
        return source[start:stop]
    return source[order[start:stop]]


def _weak_call(method, *args):
    """A weakref callback that calls ``method(*args)`` while its object lives.

    A callback holding the store strongly would put the store in a
    reference cycle with its own weakrefs, freed only by the cyclic
    collector; this one lets the store go as soon as its owner does.
    """
    method = weakref.WeakMethod(method)

    def callback(_ref):
        bound = method()
        if bound is not None:
            bound(*args)

    return callback


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the OS, where libc can.

    Hot blocks are heap allocations.  Once they are dropped, small
    long-lived allocations made while they were live can pin the heap's
    top, and glibc keeps everything below resident; it also keeps a free
    top smaller than twice the largest buffer the process has freed (up
    to 64 MiB).  ``malloc_trim`` releases those pages.  Other C
    libraries lack it, and this is a no-op there.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it."""
    array.setflags(write=False)
    return array


def _owner(array: np.ndarray) -> np.ndarray:
    """The array whose buffer ``array`` views: its last ndarray base."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _contiguous_runs(blocks: list[int]) -> list[tuple[int, int]]:
    """Group sorted block indices into half-open contiguous runs."""
    runs: list[tuple[int, int]] = []
    for block in blocks:
        if runs and runs[-1][1] == block:
            runs[-1] = (runs[-1][0], block + 1)
        else:
            runs.append((block, block + 1))
    return runs
