"""Shared embedding memoization: zero-copy hot tier + disk spill tier.

Feature extraction dominates a feasibility study's runtime (Section V of
the paper), yet the same chunk of training data is embedded by the same
transformation again and again: once per allocation strategy compared,
once more by the winner top-up, once more by every baseline that wants
the full representation, and once more by the post-cleaning re-run path.
The :class:`EmbeddingStore` removes all of that repeated work.

Design
------
- **Block-aligned, content-addressed.**  A request for rows
  ``[start, stop)`` of a source matrix is rounded out to fixed-size row
  blocks aligned to the *source* (not to the request), and each block is
  keyed by ``(transform, blake2b(block bytes))``.  Two strategies that
  pull the same shuffled pool with different chunk boundaries therefore
  share every cached block, and a second run that rebuilds an identical
  pool array (same seed, same data) hits purely on content.  Transform
  tokens are themselves content-derived (a digest of the transform's
  pickled, fitted state), so the *same* transform rebuilt in another
  process — or another run — addresses the *same* blocks.
- **Two tiers.**  The *hot* tier holds blocks in memory under a
  byte-budgeted LRU; with sharing enabled (:meth:`enable_sharing`, used
  by the ``process`` execution backend) hot blocks live in named
  POSIX shared-memory segments that worker processes attach **by name**
  and read zero-copy — nothing is pickled.  The *spill* tier
  (``store_dir``) holds content-addressed files: every cached block is
  written through to disk, evicting from the hot tier therefore *moves*
  a block to disk rather than discarding work, and a spill hit promotes
  the block back into the hot tier.  The spill tier persists across
  processes and across runs: a fresh store pointed at a warm
  ``store_dir`` serves every block with **zero** transform calls.
  Spill files carry a payload digest; a corrupted or truncated file is
  detected on read, deleted, and treated as a miss — never a crash.
- **Byte-budgeted LRU, per tier.**  ``max_bytes`` bounds the hot tier,
  ``spill_bytes`` the spill tier (least-recently-used files are
  unlinked), so the store is safe to leave attached to a long-lived
  service and corpora larger than RAM stream through the hot budget.
- **Thread-safe.**  Bookkeeping is guarded by a lock while the actual
  ``transform.transform`` calls (and spill-file reads) run outside it,
  so the ``thread`` execution backend embeds different arms
  concurrently.
- **Process-friendly.**  Pickling a store ships an attach *handle*
  (session name + spill dir + budgets, never block payloads).  One
  handle is materialized per worker process (repeated unpickles
  dedupe through a registry), it attaches hot segments by name, reads
  and writes the shared spill dir, and misses fall back to local
  computation.  Arbitrary arrays — e.g. an arm's training pool — can be
  pinned into the hot tier via :meth:`share_array` and shipped across
  the pool boundary as a tiny :class:`SharedArrayRef` instead of a
  pickled payload.

Lifecycle: the store owns its shared-memory segments.  ``close()``
(also triggered by a ``with`` block and by a ``weakref`` finalizer at
garbage collection / interpreter exit) unlinks every owned segment and
removes an auto-created ephemeral spill dir, so no ``/dev/shm`` entries
survive a run — even one that raises.  Forked children inheriting a
store object never unlink the parent's segments (creator-pid guard).

The store assumes a transform's fitted state is frozen once it has been
used for embedding — re-fitting a transform on different data changes
its output without changing the input bytes, so callers that re-fit
must call :meth:`EmbeddingStore.invalidate` for that transform (which
also re-derives its content token).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError
from repro.knn.kernels import resolve_dtype

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory

    _SHM_AVAILABLE = True
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None
    _SHM_AVAILABLE = False

#: Default byte budget for the hot tier (256 MiB).
DEFAULT_CACHE_BYTES = 256 * 2**20

#: Default byte budget for the spill tier (1 GiB).
DEFAULT_SPILL_BYTES = 2**30

#: Default rows per cached block; requests are rounded out to blocks.
DEFAULT_BLOCK_ROWS = 256

_SEGMENT_MAGIC = b"RPROSHM1"
_SEGMENT_HEADER = 256
_SPILL_MAGIC = b"RPROSPL1"
_SPILL_SUFFIX = ".blk"
_SHARED_TOKEN = "\x00shared"


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
    pinned_bytes: int = 0
    shared_segments: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of block lookups served from cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable reference to an array pinned via :meth:`share_array`."""

    key: tuple
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize


class _HotBlock:
    """One hot-tier entry: an array, optionally backed by a shm segment."""

    __slots__ = ("array", "segment", "name", "owned", "spilled")

    def __init__(self, array, segment=None, name=None, owned=False,
                 spilled=False):
        self.array = array
        self.segment = segment
        self.name = name
        self.owned = owned
        self.spilled = spilled

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


# ----------------------------------------------------------------------
# Shared-memory segment helpers (self-describing: header carries layout)
# ----------------------------------------------------------------------


_TRACKER_PATCH_LOCK = threading.Lock()


def _attach_segment(name: str):
    """Attach an existing segment without adopting unlink responsibility.

    Pre-3.13 ``SharedMemory`` registers *attached* segments with the
    resource tracker too, and forked pool workers share the parent's
    tracker process whose cache is a plain name set — a worker's
    register/unregister pair would erase the *owner's* entry (tracebacks
    in the tracker at unlink time, lost leak protection).  Suppress the
    registration during attach instead (3.13+ has ``track=False`` for
    exactly this).
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


def _write_segment(name: str, array: np.ndarray):
    """Create + fill a named segment; returns ``(segment, read-only view)``."""
    header = json.dumps(
        {"dtype": array.dtype.str, "shape": list(array.shape)}
    ).encode()
    if len(header) > _SEGMENT_HEADER - 20:
        raise DataValidationError(
            f"array header does not fit a segment header: {len(header)} B"
        )
    segment = shared_memory.SharedMemory(
        name=name, create=True, size=_SEGMENT_HEADER + max(1, array.nbytes)
    )
    buf = segment.buf
    buf[16:20] = len(header).to_bytes(4, "little")
    buf[20 : 20 + len(header)] = header
    view = np.ndarray(
        array.shape, dtype=array.dtype, buffer=buf, offset=_SEGMENT_HEADER
    )
    np.copyto(view, array)
    view.setflags(write=False)
    # Publish last: attachers treat a segment without magic+ready as
    # absent, so a half-written segment can never serve garbage.
    buf[0:8] = _SEGMENT_MAGIC
    buf[8:9] = b"\x01"
    _bind_lifetime(view, segment)
    return segment, view


def _read_segment(segment):
    """Read-only view of a published segment, or None if not ready."""
    buf = segment.buf
    if bytes(buf[0:8]) != _SEGMENT_MAGIC or buf[8] != 1:
        return None
    length = int.from_bytes(buf[16:20], "little")
    try:
        meta = json.loads(bytes(buf[20 : 20 + length]))
        view = np.ndarray(
            tuple(meta["shape"]),
            dtype=np.dtype(meta["dtype"]),
            buffer=buf,
            offset=_SEGMENT_HEADER,
        )
    except (ValueError, KeyError, TypeError):
        return None
    view.setflags(write=False)
    return view


def _close_segment(segment) -> None:
    try:
        segment.close()
    except Exception:  # pragma: no cover - platform oddities
        pass


def _bind_lifetime(array: np.ndarray, segment) -> None:
    """Unmap the segment when the last view of it is garbage collected.

    ``SharedMemory.close()`` unmaps even while numpy views of the buffer
    exist (numpy holds no export on the memoryview), so an eager close
    at eviction time would turn every caller-held view into a
    use-after-free.  Instead the finalize registry keeps the segment
    object alive exactly as long as its root view; when the view (and
    therefore every caller slice based on it) dies, the mapping is
    released.  Unlinking the *name* is independent and always safe.
    """
    weakref.finalize(array, _close_segment, segment)


def _unlink_segment(segment) -> None:
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover
        pass


def _release_segments(cleanup: dict) -> None:
    """Finalizer body: unlink owned segment names and drop the spill dir.

    Runs on ``close()``, at garbage collection and at interpreter exit.
    ``cleanup`` deliberately holds no reference to the store, and
    mappings are *not* closed here — each closes via its
    :func:`_bind_lifetime` finalizer once the last view dies.  A forked
    child inheriting the store object must never unlink the parent's
    segments — hence the creator-pid guard.
    """
    if os.getpid() != cleanup["pid"]:
        return
    for segment in list(cleanup["owned"].values()):
        _unlink_segment(segment)
    cleanup["owned"].clear()
    cleanup["attached"].clear()
    directory = cleanup.get("ephemeral_dir")
    cleanup["ephemeral_dir"] = None
    if directory:
        shutil.rmtree(directory, ignore_errors=True)


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
    with open(tmp, "wb") as fh:
        fh.write(_SPILL_MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        fh.write(payload)
    os.replace(tmp, path)
    return 12 + len(header) + len(payload)


def _read_spill(
    directory: str, file_id: str, memmap: bool = False
) -> np.ndarray | None:
    """Read + verify one spill file; corrupt/truncated files are removed.

    The digest check requires touching every payload byte once — the
    price of guaranteeing a torn, truncated or bit-flipped file is
    reported as a miss (recompute) instead of serving garbage.

    With ``memmap=True`` the payload is returned as a read-only
    :class:`numpy.memmap` at the payload offset and the digest check is
    skipped: the caller promises the same file was digest-verified on an
    earlier read this session (spill files are replaced atomically, so
    the bytes behind a given id are either the verified ones or a
    complete newer write).  Mapped pages are file-backed — the OS shares
    one physical copy across every process mapping the block and evicts
    clean pages under pressure, so large blocks page in without doubling
    RSS.
    """
    path = _spill_path(directory, file_id)
    try:
        with open(path, "rb") as fh:
            if fh.read(8) != _SPILL_MAGIC:
                raise ValueError("bad magic")
            length = int.from_bytes(fh.read(4), "little")
            meta = json.loads(fh.read(length))
            dtype = np.dtype(meta["dtype"])
            shape = tuple(meta["shape"])
            if memmap and int(np.prod(shape)) > 0:
                offset = 12 + length
                expected = offset + int(np.prod(shape)) * dtype.itemsize
                if os.fstat(fh.fileno()).st_size != expected:
                    raise ValueError("truncated payload")
                return np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
            payload = fh.read()
        if len(payload) != int(np.prod(shape)) * dtype.itemsize:
            raise ValueError("truncated payload")
        actual = hashlib.blake2b(payload, digest_size=16).hexdigest()
        if actual != meta["digest"]:
            raise ValueError("payload digest mismatch")
        array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        array.setflags(write=False)
        return array
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, OSError):
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def scan_spill_dir(directory: str) -> list[dict]:
    """Describe every block file in a spill dir (CLI ``repro store stats``).

    Returns one dict per file: ``{"file", "bytes", "dtype", "shape"}``;
    unreadable headers yield ``dtype="?"``.
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
        entry = {
            "file": name,
            "bytes": os.path.getsize(path),
            "dtype": "?",
            "shape": "?",
        }
        try:
            with open(path, "rb") as fh:
                if fh.read(8) == _SPILL_MAGIC:
                    length = int.from_bytes(fh.read(4), "little")
                    meta = json.loads(fh.read(length))
                    entry["dtype"] = str(np.dtype(meta["dtype"]))
                    entry["shape"] = "x".join(
                        str(d) for d in meta["shape"]
                    )
        except (OSError, ValueError, KeyError):
            pass
        entries.append(entry)
    return entries


def clear_spill_dir(directory: str) -> tuple[int, int]:
    """Delete every block (and stray tmp) file; returns (files, bytes)."""
    files = 0
    reclaimed = 0
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return 0, 0
    for name in names:
        if _SPILL_SUFFIX not in name:
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


# ----------------------------------------------------------------------
# Per-process handle registry: repeated unpickles of one store's handle
# dedupe to a single attached handle per process.
# ----------------------------------------------------------------------

_HANDLES: dict[str, tuple[int, "EmbeddingStore"]] = {}


def attach_handle(state: dict) -> "EmbeddingStore":
    """Materialize (or reuse) this process's handle for a shipped store.

    Used by ``EmbeddingStore.__reduce__`` and by the process backend's
    worker initializer, so every arm unpickled in a worker shares one
    handle — one attach cache, one digest cache, one local miss cache.
    The pid check makes fork-inherited registries self-correcting.
    """
    session = state["session"]
    entry = _HANDLES.get(session)
    if entry is not None and entry[0] == os.getpid():
        return entry[1]
    store = EmbeddingStore(
        max_bytes=state["max_bytes"],
        block_rows=state["block_rows"],
        dtype=state["dtype"],
        store_dir=state["store_dir"],
        spill_bytes=state["spill_bytes"],
    )
    store._session = session
    store._attached_mode = True
    _HANDLES[session] = (os.getpid(), store)
    return store


class EmbeddingStore:
    """Memoizes ``transform.transform`` outputs at block granularity.

    Parameters
    ----------
    max_bytes:
        Hot-tier byte budget; least-recently-used blocks are evicted
        (to the spill tier when one is configured) once exceeded.
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
        Spill-tier directory.  When set, every cached block is written
        through to a content-addressed, digest-verified file, giving
        (a) persistence across runs and processes (a fresh store on a
        warm dir re-embeds nothing), (b) a shared medium for process
        workers, and (c) an overflow tier for corpora larger than
        ``max_bytes``.
    spill_bytes:
        Spill-tier byte budget (default 1 GiB); oldest files are
        unlinked beyond it.
    shared:
        Start with shared-memory hot blocks (see
        :meth:`enable_sharing`).
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        dtype=None,
        store_dir: str | os.PathLike | None = None,
        spill_bytes: int | None = None,
        shared: bool = False,
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
        # (transform token, block digest) -> _HotBlock (LRU, budgeted).
        self._blocks: "OrderedDict[tuple, _HotBlock]" = OrderedDict()
        # Segments attached from another process's hot tier (unbounded:
        # views of memory owned — and budgeted — by the creator).
        self._attached_blocks: dict[tuple, _HotBlock] = {}
        # Arrays pinned via share_array: outside the LRU and the budget.
        self._pinned: dict[tuple, _HotBlock] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spill_hits = 0
        self._spill_writes = 0
        self._session = os.urandom(6).hex()
        self._creator_pid = os.getpid()
        self._attached_mode = False
        self._shared = False
        # Finalizer state: must never reference self (see module docs).
        self._cleanup = {
            "pid": os.getpid(),
            "owned": {},
            "attached": {},
            "ephemeral_dir": None,
        }
        self._finalizer = weakref.finalize(
            self, _release_segments, self._cleanup
        )
        # Distinct transform objects get distinct tokens.  Tokens are
        # content-derived when the transform pickles (stable across
        # processes and runs — the basis of warm-from-disk cold starts)
        # and session-unique otherwise.  Weak references guarantee a
        # recycled id() can never alias two live transforms; a collected
        # transform drops its token mapping and hot blocks.
        self._tokens: dict[int, str] = {}
        self._token_refs: dict[int, weakref.ref] = {}
        self._token_counter = 0
        # Spill files written this session, by token (for invalidate).
        self._token_spills: dict[str, set[str]] = {}
        # Per-source-array digest cache: id(source) -> {block -> digest},
        # held weakly so a collected source releases its cache.
        self._digests: dict[int, dict[int, bytes]] = {}
        self._digest_refs: dict[int, weakref.ref] = {}
        # id(array) -> (SharedArrayRef, weakref): re-sharing a resolved
        # or already-shared array is O(1), never a re-digest.
        self._shared_refs: dict[int, tuple[SharedArrayRef, weakref.ref]] = {}
        # Spill files promoted at least once this session: their payload
        # digest has been verified, so later promotes may memmap.
        self._spill_promoted: set[str] = set()
        # Spill index: file id -> bytes on disk (LRU by access).
        self.store_dir: str | None = None
        self._spill_index: "OrderedDict[str, int]" = OrderedDict()
        self._spill_used = 0
        if store_dir is not None:
            self._set_store_dir(os.fspath(store_dir))
        if shared:
            self.enable_sharing()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def embed(self, transform, x: np.ndarray) -> np.ndarray:
        """Embed a full matrix through the cache (blocks aligned to row 0)."""
        x = self._check_source(transform, x)
        return self.embed_rows(transform, x, 0, len(x))

    def embed_rows(
        self, transform, source: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Embed rows ``[start, stop)`` of ``source``, block-aligned.

        The returned array must be treated as read-only: single-block
        requests are served as views of cached blocks (multi-block
        requests concatenate, which copies).
        """
        source = self._check_source(transform, source)
        if not 0 <= start <= stop <= len(source):
            raise DataValidationError(
                f"invalid row range [{start}, {stop}) for source of "
                f"{len(source)} rows"
            )
        if stop == start:
            return np.empty((0, transform.output_dim), dtype=self._block_dtype)
        token = self._transform_token(transform)
        block_size = self.block_rows
        first = start // block_size
        last = (stop - 1) // block_size
        pieces: dict[int, np.ndarray] = {}
        keys: dict[int, tuple] = {}
        missing: list[int] = []
        with self._lock:
            for block in range(first, last + 1):
                key = (token, self._block_digest(source, block))
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
        if self.store_dir is not None and missing:
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
                pieces[block] = self._insert_hot(
                    keys[block], array, spilled=True
                )
        # Embed contiguous runs of missing blocks in one transform call
        # each, outside the lock so concurrent arms embed in parallel.
        for run_start, run_stop in _contiguous_runs(missing):
            lo = run_start * block_size
            hi = min(run_stop * block_size, len(source))
            embedded = np.asarray(
                transform.transform(source[lo:hi]), dtype=self._block_dtype
            )
            for block in range(run_start, run_stop):
                piece = np.ascontiguousarray(
                    embedded[block * block_size - lo : (block + 1) * block_size - lo]
                )
                if np.may_share_memory(piece, source):
                    # Pass-through transforms (identity) return views of
                    # the source; cache an independent copy so caller
                    # mutations can't corrupt it (or be frozen by the
                    # read-only flag below).
                    piece = piece.copy()
                piece.setflags(write=False)
                pieces[block] = piece
        if missing:
            with self._lock:
                for block in missing:
                    pieces[block] = self._insert_hot(
                        keys[block], pieces[block]
                    )
        parts = []
        for block in range(first, last + 1):
            lo = block * block_size
            a = max(start - lo, 0)
            b = min(stop - lo, block_size)
            parts.append(pieces[block][a:b])
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)

    def share_array(self, array: np.ndarray) -> SharedArrayRef | None:
        """Pin an array into the shared hot tier; return a picklable ref.

        The ref replaces the payload across a process-pool pickle
        boundary (see ``TransformationArm.__getstate__``): receivers
        call :meth:`resolve_array` and read the bytes zero-copy.
        Pinned arrays live outside the LRU budget and are released by
        :meth:`release_shared` (the run epilogue) or :meth:`close`.
        Returns ``None`` when the store cannot share (no shared-memory
        support, sharing not enabled, or a handle asked to share an
        array it has never resolved).
        """
        with self._lock:
            known = self._shared_refs.get(id(array))
            if known is not None:
                return known[0]
            if (
                not _SHM_AVAILABLE
                or not self._shared
                or self._attached_mode
            ):
                return None
            array = np.ascontiguousarray(array)
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(np.int64(array.shape).tobytes())
            hasher.update(array.tobytes())
            key = (_SHARED_TOKEN, hasher.digest())
            entry = self._pinned.get(key)
            if entry is None:
                name = self._segment_name(key)
                try:
                    segment, view = _write_segment(name, array)
                except (OSError, ValueError):
                    return None
                self._cleanup["owned"][name] = segment
                entry = _HotBlock(view, segment=segment, name=name, owned=True)
                self._pinned[key] = entry
            ref = SharedArrayRef(key, tuple(array.shape), array.dtype.str)
            self._remember_ref(array, ref)
            return ref

    def resolve_array(self, ref: SharedArrayRef) -> np.ndarray | None:
        """Zero-copy array for a :class:`SharedArrayRef` (or None if gone)."""
        with self._lock:
            entry = (
                self._pinned.get(ref.key)
                or self._attached_blocks.get(ref.key)
            )
            if entry is None and _SHM_AVAILABLE:
                array, segment, name = self._attach_block(ref.key)
                if array is not None:
                    entry = _HotBlock(array, segment=segment, name=name)
                    self._attached_blocks[ref.key] = entry
            if entry is None:
                return None
            self._remember_ref(entry.array, ref)
            return entry.array

    def release_shared(self) -> None:
        """Unpin (and unlink) every :meth:`share_array` segment."""
        with self._lock:
            for entry in self._pinned.values():
                self._free_entry(entry)
            self._pinned.clear()

    def enable_sharing(self) -> None:
        """Back the hot tier with named shared-memory segments.

        Called by :class:`repro.core.snoopy.Snoopy` when the ``process``
        execution backend is selected: new hot blocks are created as
        named segments workers attach zero-copy, existing hot blocks
        are migrated, and — when no ``store_dir`` is configured — an
        ephemeral spill dir is created so workers have a shared write
        medium (removed again at :meth:`close`).  A no-op on platforms
        without POSIX shared memory (workers then run cold, exactly the
        pre-sharing behaviour) and on attached handles.
        """
        if not _SHM_AVAILABLE or self._attached_mode:
            return
        with self._lock:
            if self.store_dir is None:
                directory = tempfile.mkdtemp(prefix="repro-store-")
                self._set_store_dir(directory)
                self._cleanup["ephemeral_dir"] = directory
            if self._shared:
                return
            self._shared = True
            for key, entry in list(self._blocks.items()):
                if entry.segment is not None:
                    continue
                upgraded = self._make_hot_entry(key, entry.array)
                upgraded.spilled = entry.spilled
                self._blocks[key] = upgraded

    def invalidate(self, transform) -> int:
        """Drop every cached block of ``transform`` (after a re-fit).

        Also forgets the transform's content token, so the next embed
        re-derives it from the *new* fitted state, and unlinks the
        spill files written for the old state this session.  Returns
        the number of hot blocks dropped.
        """
        with self._lock:
            identity = id(transform)
            token = self._tokens.pop(identity, None)
            self._token_refs.pop(identity, None)
            if token is None:
                return 0
            stale = [key for key in self._blocks if key[0] == token]
            for key in stale:
                entry = self._blocks.pop(key)
                self._bytes -= entry.nbytes
                self._free_entry(entry)
            for key in [k for k in self._attached_blocks if k[0] == token]:
                self._free_entry(self._attached_blocks.pop(key))
            for file_id in self._token_spills.pop(token, ()):  # this session
                size = self._spill_index.pop(file_id, None)
                if size is not None:
                    self._spill_used -= size
                if self.store_dir is not None:
                    try:
                        os.unlink(_spill_path(self.store_dir, file_id))
                    except OSError:
                        pass
            return len(stale)

    def clear(self) -> None:
        """Drop all hot blocks and digest caches (counters are kept).

        The spill tier is left in place — it is the persistence medium;
        use :func:`clear_spill_dir` (CLI: ``repro store clear``) to
        prune it.
        """
        with self._lock:
            for entry in self._blocks.values():
                self._free_entry(entry)
            self._blocks.clear()
            for entry in self._attached_blocks.values():
                self._free_entry(entry)
            self._attached_blocks.clear()
            self._bytes = 0
            self._digests.clear()
            self._digest_refs.clear()

    def close(self) -> None:
        """Release every segment (and ephemeral dir) owned; idempotent."""
        with self._lock:
            self.release_shared()
            self.clear()
            _release_segments(self._cleanup)
            if not self._attached_mode:
                # Drop (and close) this process's attach handle too, so
                # parent-side unpickles don't pin unlinked mappings.
                entry = _HANDLES.pop(self._session, None)
                if entry is not None and entry[1] is not self:
                    entry[1].close()
            else:
                entry = _HANDLES.get(self._session)
                if entry is not None and entry[1] is self:
                    _HANDLES.pop(self._session, None)

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
                pinned_bytes=sum(
                    entry.nbytes for entry in self._pinned.values()
                ),
                shared_segments=len(self._cleanup["owned"]),
            )

    @property
    def is_shared(self) -> bool:
        """Hot blocks live in named segments other processes can attach."""
        return self._shared

    @property
    def is_handle(self) -> bool:
        """This store is an attach handle for a store in another process."""
        return self._attached_mode

    @property
    def can_share_arrays(self) -> bool:
        """:meth:`share_array` refs are meaningful across this store."""
        return _SHM_AVAILABLE and (self._shared or self._attached_mode)

    def handle_state(self) -> dict:
        """Attach-handle configuration (what pickling a store ships)."""
        return {
            "session": self._session,
            "max_bytes": self.max_bytes,
            "block_rows": self.block_rows,
            "dtype": self.dtype,
            "store_dir": self.store_dir,
            "spill_bytes": self.spill_bytes,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats
        tier = "handle" if self._attached_mode else (
            "shared" if self._shared else "local"
        )
        return (
            f"EmbeddingStore({tier}, blocks={len(self)}, "
            f"bytes={stats.current_bytes}/{stats.max_bytes}, "
            f"spill={stats.spill_current_bytes}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )

    # ------------------------------------------------------------------
    # Pickling: ship an attach handle (config + session), never blocks.
    # ------------------------------------------------------------------

    def __reduce__(self):
        return (attach_handle, (self.handle_state(),))

    # ------------------------------------------------------------------
    # Internals: tiers
    # ------------------------------------------------------------------

    def _lookup_hot(self, key) -> np.ndarray | None:
        """Hot-tier lookup (lock held); counts nothing."""
        entry = self._blocks.get(key)
        if entry is not None:
            self._blocks.move_to_end(key)
            return entry.array
        entry = self._pinned.get(key)
        if entry is not None:
            return entry.array
        entry = self._attached_blocks.get(key)
        if entry is not None:
            return entry.array
        if self._attached_mode and _SHM_AVAILABLE:
            array, segment, name = self._attach_block(key)
            if array is not None:
                self._attached_blocks[key] = _HotBlock(
                    array, segment=segment, name=name
                )
                return array
        return None

    def _insert_hot(
        self, key, array: np.ndarray, spilled: bool = False
    ) -> np.ndarray:
        """Insert one block (lock held); returns the canonical array."""
        existing = self._blocks.get(key)
        if existing is not None:
            self._blocks.move_to_end(key)
            return existing.array
        entry = self._make_hot_entry(key, array)
        entry.spilled = spilled
        self._blocks[key] = entry
        self._bytes += entry.nbytes
        if self.store_dir is not None and not entry.spilled:
            self._write_through(key, entry)
        self._evict_over_budget()
        return entry.array

    def _make_hot_entry(self, key, array: np.ndarray) -> _HotBlock:
        if isinstance(array, np.memmap):
            # A promoted-again spill block: copying it into a shared
            # segment would materialize the pages it exists to avoid.
            # Keep it process-local; siblings memmap the same file and
            # share the single page-cache copy.
            return _HotBlock(array)
        if self._shared and not self._attached_mode and _SHM_AVAILABLE:
            name = self._segment_name(key)
            try:
                segment, view = _write_segment(name, array)
            except FileExistsError:
                # A same-named segment exists (another thread between
                # our lock windows, or a stale session collision): use
                # it if readable, else keep a process-local block.
                attached, segment, name = self._attach_block(key)
                if attached is not None:
                    return _HotBlock(attached, segment=segment, name=name)
                return _HotBlock(array)
            except (OSError, ValueError, DataValidationError):
                # /dev/shm exhausted (or header overflow): degrade to a
                # process-local block — correctness is unaffected.
                return _HotBlock(array)
            self._cleanup["owned"][name] = segment
            return _HotBlock(view, segment=segment, name=name, owned=True)
        return _HotBlock(array)

    def _attach_block(self, key):
        name = self._segment_name(key)
        try:
            segment = _attach_segment(name)
        except (FileNotFoundError, OSError):
            return None, None, None
        array = _read_segment(segment)
        if array is None:
            _close_segment(segment)  # no view exists yet: safe to unmap
            return None, None, None
        _bind_lifetime(array, segment)
        self._cleanup["attached"][name] = segment
        return array, segment, name

    def _free_entry(self, entry: _HotBlock) -> None:
        """Release a hot block's segment *name* (lock held).

        The mapping itself is closed by the block view's
        :func:`_bind_lifetime` finalizer once the last caller-held view
        dies — closing here would unmap memory those views still read.
        """
        segment = entry.segment
        if segment is None:
            return
        if entry.owned and os.getpid() == self._creator_pid:
            _unlink_segment(segment)
            self._cleanup["owned"].pop(entry.name, None)
        else:
            self._cleanup["attached"].pop(entry.name, None)
        entry.segment = None

    def _evict_over_budget(self) -> None:
        while self._bytes > self.max_bytes and self._blocks:
            key, entry = self._blocks.popitem(last=False)
            self._bytes -= entry.nbytes
            self._evictions += 1
            if self.store_dir is not None and not entry.spilled:
                # Move to the spill tier, don't discard the work.
                self._write_through(key, entry)
            self._free_entry(entry)

    def _write_through(self, key, entry: _HotBlock) -> None:
        """Persist one hot block to the spill tier (lock held)."""
        file_id = self._block_id(key)
        if file_id in self._spill_index:
            self._spill_index.move_to_end(file_id)
            entry.spilled = True
            return
        try:
            size = _write_spill(self.store_dir, file_id, entry.array)
        except OSError:
            return
        entry.spilled = True
        self._spill_writes += 1
        self._token_spills.setdefault(key[0], set()).add(file_id)
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
        """Read one block from the spill tier.

        A block's *first* promote this session copies and digest-verifies
        the payload; blocks hotter than one promote come back as
        read-only memmaps instead — no second verification pass, no
        second RSS copy, and (because :meth:`_make_hot_entry` keeps
        memmaps process-local) one OS page-cache copy shared by every
        worker that pages in the same block file.
        """
        if self.store_dir is None:
            return None
        file_id = self._block_id(key)
        with self._lock:
            verified = file_id in self._spill_promoted
        array = _read_spill(self.store_dir, file_id, memmap=verified)
        if array is None and verified:
            # Memmap open failed (file evicted/replaced mid-read): fall
            # back to the verifying copy path before declaring a miss.
            array = _read_spill(self.store_dir, file_id)
        with self._lock:
            if array is None:
                self._spill_promoted.discard(file_id)
                # Possibly corrupt-and-removed: drop a stale index entry.
                size = self._spill_index.pop(file_id, None)
                if size is not None:
                    self._spill_used -= size
                return None
            self._spill_hits += 1
            self._spill_promoted.add(file_id)
            if file_id in self._spill_index:
                self._spill_index.move_to_end(file_id)
            else:
                self._spill_insert(
                    file_id, 12 + array.nbytes + 96  # approx header
                )
        return array

    def _set_store_dir(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.store_dir = directory
        entries = []
        for name in os.listdir(directory):
            if not name.endswith(_SPILL_SUFFIX):
                continue
            path = os.path.join(directory, name)
            try:
                entries.append(
                    (os.path.getmtime(path), name[: -len(_SPILL_SUFFIX)],
                     os.path.getsize(path))
                )
            except OSError:
                continue
        for _, file_id, size in sorted(entries):
            self._spill_index[file_id] = size
            self._spill_used += size

    # ------------------------------------------------------------------
    # Internals: keys, tokens, digests
    # ------------------------------------------------------------------

    def _segment_name(self, key) -> str:
        return f"repro-{self._session}-{self._block_id(key)}"

    def _block_id(self, key) -> str:
        """Stable hex id of a block key (segment + spill-file naming)."""
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

    def _transform_token(self, transform) -> str:
        with self._lock:
            key = id(transform)
            token = self._tokens.get(key)
            if token is None:
                token = self._derive_token(transform)
                self._tokens[key] = token
                self._token_refs[key] = weakref.ref(
                    transform,
                    lambda _ref, key=key, token=token: self._drop_token(
                        key, token
                    ),
                )
            return token

    def _derive_token(self, transform) -> str:
        """Content token when the transform pickles, session token else.

        A content token makes the key stable across processes (workers
        address the parent's blocks) and across runs (a rebuilt
        identical transform warm-starts from the spill tier).  The
        block dtype is folded in so float32 and float64 stores never
        share payload files.  Unpicklable transforms (e.g. a test
        monkeypatching ``transform`` with a closure) fall back to a
        session-unique token — correct, just not shareable.
        """
        try:
            payload = pickle.dumps(transform, protocol=4)
        except Exception:
            token = f"{transform.name}#~{self._token_counter}"
            self._token_counter += 1
            return token
        digest = hashlib.blake2b(payload, digest_size=12).hexdigest()
        return f"{transform.name}@{digest}/{self._block_dtype.str}"

    def _drop_token(self, key: int, token: str) -> None:
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
            if token in self._tokens.values():
                return
            for k in [k for k in self._blocks if k[0] == token]:
                entry = self._blocks.pop(k)
                self._bytes -= entry.nbytes
                self._free_entry(entry)
            for k in [k for k in self._attached_blocks if k[0] == token]:
                self._free_entry(self._attached_blocks.pop(k))

    def _drop_digests(self, key: int) -> None:
        """Weakref purge: a source array died; release its digest cache."""
        with self._lock:
            self._digests.pop(key, None)
            self._digest_refs.pop(key, None)

    def _block_digest(self, source: np.ndarray, block: int) -> bytes:
        key = id(source)
        per_source = self._digests.get(key)
        if per_source is None:
            per_source = {}
            self._digests[key] = per_source
            self._digest_refs[key] = weakref.ref(
                source, lambda _ref, key=key: self._drop_digests(key)
            )
        digest = per_source.get(block)
        if digest is None:
            lo = block * self.block_rows
            rows = np.ascontiguousarray(source[lo : lo + self.block_rows])
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(np.int64(rows.shape).tobytes())
            hasher.update(rows.tobytes())
            digest = hasher.digest()
            per_source[block] = digest
        return digest

    def _remember_ref(self, array: np.ndarray, ref: SharedArrayRef) -> None:
        key = id(array)
        if key in self._shared_refs:
            return
        try:
            watcher = weakref.ref(
                array, lambda _r, key=key: self._shared_refs.pop(key, None)
            )
        except TypeError:  # pragma: no cover - non-weakref-able view
            return
        self._shared_refs[key] = (ref, watcher)


def embed_or_transform(
    store: EmbeddingStore | None, transform, x: np.ndarray
) -> np.ndarray:
    """Embed through ``store`` when one is attached, else directly."""
    if store is None:
        return transform.transform(x)
    return store.embed(transform, x)


def _contiguous_runs(blocks: list[int]) -> list[tuple[int, int]]:
    """Group sorted block indices into half-open contiguous runs."""
    runs: list[tuple[int, int]] = []
    for block in blocks:
        if runs and runs[-1][1] == block:
            runs[-1] = (runs[-1][0], block + 1)
        else:
            runs.append((block, block + 1))
    return runs
