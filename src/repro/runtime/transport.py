"""Zero-copy transport for the shard-serving runtime.

The ``"processes"`` shard executor moves two kinds of bulk payload across
the process boundary on the serving hot path:

* **per-batch payloads** — the query matrix out to every worker and the
  ranked top-k indices/scores back, and
* **per-epoch payloads** — the programmed shard engines published to the
  spool once per program epoch.

Both travel through memory the processes share, so no ndarray payload is
pickled on the steady-state path:

* :class:`SharedMemoryRing` keeps the executor's reusable
  ``multiprocessing.shared_memory`` segments.  The parent writes a query
  batch into a segment once; every worker maps the same physical pages and
  writes its shard's top-k distances/indices back **in place**, so only
  tiny job tuples cross the pipes.  Each dispatched batch holds its own
  segment until it is collected, so any number of threads may dispatch
  through one ring.  :class:`ShardBatchLayout` computes the byte layout of
  one dispatched batch (the query block followed by per-shard result
  blocks).
* :func:`write_spool_bundle` / :func:`load_spool_payload` publish each
  shard payload as one file: the pickle stream with its ndarray buffers
  extracted out-of-band (pickle protocol 5), each buffer at an aligned
  offset of the same file, under one CRC-32 that covers every byte.
  Workers memory-map the file and unpickle around read-only views of the
  map, so N workers on one host share one physical copy of each shard's
  programmed states instead of N deserialized clones.

:func:`write_checked_pickle` / :func:`load_checked_pickle` write and read
the files of durable snapshots (:mod:`repro.storage.snapshot`): bare
pickles whose size and CRC-32 the snapshot manifest records.  Every
unpickle in this module follows a CRC check, so a scribbled byte surfaces
as :class:`~repro.exceptions.SpoolIntegrityError` (a spool) or
:class:`~repro.exceptions.SnapshotIntegrityError` (a snapshot file), never
as garbage.

Lifecycle: segments are unlinked on ``close()``, on context-manager exit of
the owning executor, and by a :func:`weakref.finalize` safety net when the
owner is garbage collected without closing.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import pickle
import struct
import threading
import weakref
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - present on every platform CI runs on
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shm_module = None  # type: ignore[assignment]

#: The shared-memory module, or None on builds without ``_posixshmem``.
#: Typed ``Any`` because every call site is guarded by
#: :func:`shared_memory_available`, which mypy cannot see through.
_shared_memory: Any = _shm_module

from ..exceptions import ConfigurationError, SnapshotIntegrityError, SpoolIntegrityError


def shared_memory_available() -> bool:
    """Whether POSIX shared memory is usable in this interpreter."""
    return _shared_memory is not None


#: Byte alignment of every block inside a shared segment (cache-line sized,
#: and a multiple of every dtype alignment NumPy will map onto the block).
_BLOCK_ALIGNMENT = 64


def _aligned(nbytes: int) -> int:
    """Round ``nbytes`` up to the block alignment."""
    return -(-nbytes // _BLOCK_ALIGNMENT) * _BLOCK_ALIGNMENT


def _release_segments(segments: List) -> None:
    """Close and unlink every segment in ``segments``, emptying it in place.

    Module-level and fed a plain list so a :func:`weakref.finalize` can call
    it without keeping the owning ring alive.  ``close()`` can raise
    ``BufferError`` while NumPy views of the segment are still alive; the
    unlink (which frees the name and, once the views die, the pages) must
    still happen, so errors are swallowed per step.
    """
    while segments:
        segment = segments.pop()
        try:
            segment.close()
        except BufferError:  # a result view is still alive somewhere
            pass
        try:
            segment.unlink()
        except OSError:  # already gone
            pass


class SharedMemoryRing:
    """The reusable shared-memory segments of one executor.

    :meth:`acquire` hands a dispatched batch an idle segment that fits, or
    creates one; the batch holds it until :meth:`release` returns it (its
    results copied out) or :meth:`discard` unlinks it (the batch failed,
    and a worker may still write into it).  A held segment is never handed
    to another batch, so batches dispatched from any number of threads
    cannot overwrite each other's results, and steady-state serving still
    allocates nothing.  When no idle segment fits, the smallest idle one is
    unlinked before a new one is created: the ring then holds at most as
    many segments as batches were ever in flight at once.
    """

    def __init__(self) -> None:
        if not shared_memory_available():  # pragma: no cover - fallback hosts
            raise ConfigurationError("shared memory is unavailable in this interpreter")
        self._lock = threading.Lock()
        self._idle: List[Any] = []
        #: Every segment, held or idle, shared with the GC safety net:
        #: close() empties the list in place, turning a later finalize into
        #: a no-op.
        self._live: List[Any] = []
        self._finalizer = weakref.finalize(self, _release_segments, self._live)

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of the currently allocated segments (introspection/tests)."""
        with self._lock:
            return tuple(segment.name for segment in self._live)

    @property
    def in_use(self) -> int:
        """Segments held by dispatched, not yet collected batches."""
        with self._lock:
            return len(self._live) - len(self._idle)

    def acquire(self, nbytes: int) -> Any:
        """A segment of at least ``nbytes`` that no other batch holds."""
        with self._lock:
            for segment in reversed(self._idle):
                if segment.size >= nbytes:
                    self._idle.remove(segment)
                    return segment
            if self._idle:
                smallest = min(self._idle, key=lambda segment: segment.size)
                self._idle.remove(smallest)
                self._live.remove(smallest)
                _release_segments([smallest])
            segment = _shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
            self._live.append(segment)
            return segment

    def release(self, segment: Any) -> bool:
        """Return a held segment for reuse; False if :meth:`close` dropped it."""
        with self._lock:
            if segment not in self._live:
                return False
            if segment not in self._idle:
                self._idle.append(segment)
            return True

    def discard(self, segment: Any) -> None:
        """Unlink a held segment so that no later batch can reuse it."""
        with self._lock:
            if segment not in self._live:
                return
            self._live.remove(segment)
        _release_segments([segment])

    def close(self) -> None:
        """Unlink every segment (idempotent; the ring is reusable after)."""
        with self._lock:
            self._idle.clear()
            _release_segments(self._live)

    def __enter__(self) -> "SharedMemoryRing":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


class ShardBatchLayout:
    """Byte layout of one dispatched batch inside a shared segment.

    The query block sits at offset 0; per-shard top-k index and score
    blocks follow, one pair per shard, every block aligned to
    ``_BLOCK_ALIGNMENT``.

    Parameters
    ----------
    queries:
        The batch's query matrix (made C-contiguous; exposed as
        :attr:`queries`).
    shard_ks:
        Per-shard candidate counts (``min(k, shard rows)``), which size the
        result blocks.
    """

    def __init__(self, queries: np.ndarray, shard_ks: Sequence[int]) -> None:
        self.queries = np.ascontiguousarray(queries)
        self.num_queries = int(self.queries.shape[0])
        self.shard_ks = tuple(int(k) for k in shard_ks)
        self.query_offset = 0
        cursor = _aligned(self.queries.nbytes)
        self.index_offsets: List[int] = []
        self.score_offsets: List[int] = []
        for shard_k in self.shard_ks:
            block = self.num_queries * shard_k * np.dtype(np.int64).itemsize
            self.index_offsets.append(cursor)
            cursor = _aligned(cursor + block)
            self.score_offsets.append(cursor)
            cursor = _aligned(cursor + block)
        self.total_bytes = max(cursor, 1)

    def write_queries(self, segment: Any) -> None:
        """Copy the query block into ``segment`` (the transport's one copy)."""
        view = np.ndarray(
            self.queries.shape, dtype=self.queries.dtype, buffer=segment.buf
        )
        view[...] = self.queries

    def result_views(self, segment: Any, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(indices, scores)`` views of one shard's result blocks."""
        shape = (self.num_queries, self.shard_ks[shard])
        indices = np.ndarray(
            shape, dtype=np.int64, buffer=segment.buf, offset=self.index_offsets[shard]
        )
        scores = np.ndarray(
            shape, dtype=np.float64, buffer=segment.buf, offset=self.score_offsets[shard]
        )
        return indices, scores


# ----------------------------------------------------------------------
# Worker-side segment attachments
# ----------------------------------------------------------------------
#: Process-global cache of attached segments by name.  Ring segments are
#: reused across batches, so each worker attaches a handful of names once
#: and serves every subsequent batch from the mapping; the cache is bounded
#: because a ring holds no more segments than batches in flight, and
#: attachments whose segment the parent has unlinked are pruned eagerly so
#: dead pages are not pinned for the worker's lifetime.
_ATTACHED_SEGMENTS: "OrderedDict[str, Any]" = OrderedDict()
_MAX_ATTACHED_SEGMENTS = 8

#: Where the kernel exposes POSIX shared memory as files (Linux).  When the
#: directory exists, a cached attachment whose backing file is gone has
#: been unlinked by its owner and only our mapping keeps its pages alive.
_SHM_DIR = "/dev/shm"


def _close_attachment(segment: Any) -> None:
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a view outlived its job
        pass


def _prune_unlinked_attachments() -> None:
    """Drop cached attachments whose segments the owner has unlinked.

    A ring unlinks a too-small idle segment, or a failed batch's segment,
    in the parent, but the steady state only ever re-attaches the live
    ring names, so the dead mapping would otherwise survive below the LRU
    bound forever — N workers each pinning the replaced segment's pages.
    Only effective where shared memory is file-backed (Linux); elsewhere
    the LRU bound still applies.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux hosts
        return
    for name in [
        name
        for name in _ATTACHED_SEGMENTS
        if not os.path.exists(os.path.join(_SHM_DIR, name))
    ]:
        _close_attachment(_ATTACHED_SEGMENTS.pop(name))


def attach_segment(name: str) -> Any:
    """Attach (or return the cached attachment of) a shared segment."""
    segment = _ATTACHED_SEGMENTS.get(name)
    if segment is not None:
        _ATTACHED_SEGMENTS.move_to_end(name)
        return segment
    # A new name means the ring moved (first contact, or a segment was
    # replaced or discarded): prune what the owner unlinked.
    _prune_unlinked_attachments()
    segment = _shared_memory.SharedMemory(name=name)
    _ATTACHED_SEGMENTS[name] = segment
    while len(_ATTACHED_SEGMENTS) > _MAX_ATTACHED_SEGMENTS:
        _, stale = _ATTACHED_SEGMENTS.popitem(last=False)
        _close_attachment(stale)
    return segment


# ----------------------------------------------------------------------
# Memory-mapped spool entries
# ----------------------------------------------------------------------
_SPOOL_MAGIC = b"RSPOOL01"
_UINT32 = struct.Struct("<I")
#: The fixed prefix of a spool entry: magic, CRC-32, header length.  The
#: CRC covers every byte after its own field, to the end of the file.
_SPOOL_PREFIX = struct.Struct("<8sII")
_CHECKED_FROM = len(_SPOOL_MAGIC) + _UINT32.size


def write_spool_bundle(path: str, payload: Any) -> str:
    """Publish ``payload`` as one memory-mappable, checksummed file at ``path``.

    The file holds a fixed prefix (magic, CRC-32, header length), a JSON
    header (the stream's length and each buffer's offset and size), the
    protocol-5 pickle stream, and every contiguous ndarray buffer the
    pickler extracted out-of-band, each at a 64-byte-aligned offset, so
    :func:`load_spool_payload` can hand the unpickler views of one memory
    map.  The CRC-32 covers every byte after its own field, stored states
    included.  The file is written to ``<path>.tmp`` and ``os.replace``-d
    into place, so a reader never observes a half-written entry, and a
    republish replaces the entry at the same path.
    """
    buffers: List[pickle.PickleBuffer] = []
    stream = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    # The header records absolute buffer offsets, which depend on its own
    # length: recompute until that length stops changing (it only grows).
    header_bytes = 0
    while True:
        cursor = _SPOOL_PREFIX.size + header_bytes + len(stream)
        spans: List[List[int]] = []
        for view in views:
            offset = _aligned(cursor)
            spans.append([offset, view.nbytes])
            cursor = offset + view.nbytes
        header = json.dumps({"stream_bytes": len(stream), "buffers": spans}).encode()
        if len(header) == header_bytes:
            break
        header_bytes = len(header)
    pieces: List[Any] = [header, stream]
    cursor = _SPOOL_PREFIX.size + header_bytes + len(stream)
    for view, (offset, nbytes) in zip(views, spans):
        pieces += [bytes(offset - cursor), view]
        cursor = offset + nbytes
    crc = zlib.crc32(_UINT32.pack(header_bytes))
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_SPOOL_PREFIX.pack(_SPOOL_MAGIC, crc, header_bytes))
        for piece in pieces:
            fh.write(piece)
    os.replace(tmp, path)
    return path


def _spool_views(path: str) -> Tuple[memoryview, List[memoryview]]:
    """A spool entry's stream and buffers: read-only views of one memory map.

    The magic and the CRC-32 are checked before the header is parsed; a
    missing, empty, truncated or damaged entry raises
    :class:`~repro.exceptions.SpoolIntegrityError`.
    """
    try:
        with open(path, "rb") as fh:
            view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    except FileNotFoundError as exc:
        raise SpoolIntegrityError(f"spool entry missing at {path}") from exc
    except (OSError, ValueError) as exc:  # ValueError: an empty file cannot be mapped
        raise SpoolIntegrityError(f"spool entry unreadable at {path}: {exc}") from exc
    if len(view) < _SPOOL_PREFIX.size:
        raise SpoolIntegrityError(f"spool entry truncated at {path} ({len(view)} bytes)")
    magic, crc, header_bytes = _SPOOL_PREFIX.unpack_from(view)
    if magic != _SPOOL_MAGIC or zlib.crc32(view[_CHECKED_FROM:]) != crc:
        raise SpoolIntegrityError(f"spool entry corrupt at {path} (magic or checksum mismatch)")
    start = _SPOOL_PREFIX.size + header_bytes
    try:
        header = json.loads(bytes(view[_SPOOL_PREFIX.size : start]))
        stream = view[start : start + header["stream_bytes"]]
        buffers = [view[offset : offset + size] for offset, size in header["buffers"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise SpoolIntegrityError(f"spool entry header malformed at {path}: {exc}") from exc
    return stream, buffers


def write_checked_pickle(staging: str, filename: str, payload: Any) -> Dict[str, Any]:
    """Pickle ``payload`` to ``filename`` in ``staging``: one write, one fsync.

    Returns the file's snapshot-manifest entry: its ``file`` name and the
    ``bytes`` and ``crc32`` taken from the bytes in memory, which
    :func:`load_checked_pickle` checks before it unpickles.  The caller
    renames the staging directory into place.
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    with open(os.path.join(staging, filename), "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return {"file": filename, "bytes": len(data), "crc32": zlib.crc32(data) & 0xFFFFFFFF}


def load_checked_pickle(directory: str, entry: Dict[str, Any]) -> Any:
    """Unpickle the file a manifest ``entry`` names, once its size and CRC-32 match.

    The reader of :func:`write_checked_pickle`'s files.  A missing file, a
    size or checksum mismatch, or an unreadable stream raises
    :class:`~repro.exceptions.SnapshotIntegrityError`; nothing is
    unpickled before both checks pass.
    """
    path = os.path.join(directory, entry["file"])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) != entry["bytes"] or (zlib.crc32(data) & 0xFFFFFFFF) != entry["crc32"]:
            raise SnapshotIntegrityError(f"snapshot file at {path} is corrupt (checksum mismatch)")
        return pickle.loads(data)
    except (OSError, pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SnapshotIntegrityError(f"snapshot file at {path} is unreadable: {exc}") from exc


def load_spool_payload(path: str) -> Any:
    """Load a published spool entry once its magic and CRC-32 match.

    The file is memory-mapped once and the unpickler gets read-only views
    of that map as its out-of-band buffers, so every ndarray in the payload
    is backed by the page cache and shared physically across the workers
    of one host (the arrays come back read-only, which the search path
    never violates).  Nothing is unpickled before the checks pass: a
    missing, truncated or scribbled entry raises
    :class:`~repro.exceptions.SpoolIntegrityError` — a typed, recoverable
    signal the executor answers by republishing the entry — instead of
    crashing the worker on garbage bytes.
    """
    stream, buffers = _spool_views(path)
    try:
        return pickle.loads(stream, buffers=buffers)
    except (pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SpoolIntegrityError(f"spool entry unreadable at {path}: {exc}") from exc


def verify_spool_entry(path: str) -> bool:
    """Whether a published spool entry passes its magic and CRC-32 checks.

    The parent-side recovery check, the same one :func:`load_spool_payload`
    runs, without unpickling.  Used by the supervisor to decide which
    entries must be republished after a fault.
    """
    try:
        _spool_views(path)
    except SpoolIntegrityError:
        return False
    return True


def remove_spool_entry(path: str) -> None:
    """Delete a published spool entry (best effort)."""
    with contextlib.suppress(OSError):
        os.remove(path)


__all__ = [
    "SharedMemoryRing",
    "ShardBatchLayout",
    "attach_segment",
    "load_checked_pickle",
    "load_spool_payload",
    "remove_spool_entry",
    "shared_memory_available",
    "verify_spool_entry",
    "write_checked_pickle",
    "write_spool_bundle",
]
