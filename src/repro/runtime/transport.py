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
  shard payload as one file holding one frame (below).  Workers
  memory-map the file and unpickle around read-only views of the map, so
  N workers on one host share one physical copy of each shard's
  programmed states instead of N deserialized clones.

Spool entries, snapshot files (:func:`load_snapshot_file`) and journal
records (:func:`read_frames`) are all checksummed frames of
:func:`encode_frame`.  This is the only module that unpickles, and it
checks a frame's length and CRC-32 before it parses a header or
unpickles a byte, so a scribbled byte surfaces as
:class:`~repro.exceptions.SpoolIntegrityError` (a spool entry) or
:class:`~repro.exceptions.SnapshotIntegrityError` (a snapshot file or a
journal record), never as garbage.

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
from typing import Any, List, Optional, Sequence, Tuple, Type

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
# Checksummed frames: spool entries, snapshot files and journal records
# ----------------------------------------------------------------------
_FRAME_MAGIC = b"RFRAME01"
_UINT32 = struct.Struct("<I")
_UINT64 = struct.Struct("<Q")
#: A frame's fixed prefix: magic, the length's CRC-32, the frame's length,
#: the frame's CRC-32 (of every byte after its own field) and the header's length.
_FRAME_PREFIX = struct.Struct("<8sIQII")
_CHECKED_FROM = _FRAME_PREFIX.size - _UINT32.size
#: A decoded frame: its end offset, CRC-32, stream and buffers.
_Frame = Tuple[int, int, memoryview, List[memoryview]]


def encode_frame(payload: Any) -> Tuple[List[Any], int]:
    """``payload`` as one checksummed frame: its pieces, in order, and its CRC-32.

    After the fixed prefix come a JSON header (the stream's length and each
    buffer's offset and size, counted from the frame's start), the
    protocol-5 pickle stream, and every buffer the pickler extracted
    out-of-band, each at a 64-byte-aligned offset; the frame is padded to a
    multiple of 64 bytes, so frames written back to back stay aligned.  The
    length has a CRC of its own, so a reader tells a frame cut short from a
    damaged length.  An unchanged payload encodes to the same bytes.
    """
    buffers: List[pickle.PickleBuffer] = []
    stream = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    # The header records buffer offsets, which depend on its own length:
    # recompute until that length stops changing (it only grows).
    header_bytes = 0
    while True:
        cursor = _FRAME_PREFIX.size + header_bytes + len(stream)
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
    cursor = _FRAME_PREFIX.size + header_bytes + len(stream)
    for view, (offset, nbytes) in zip(views, spans):
        pieces += [bytes(offset - cursor), view]
        cursor = offset + nbytes
    frame_bytes = _aligned(cursor)
    pieces.append(bytes(frame_bytes - cursor))
    crc = zlib.crc32(_UINT32.pack(header_bytes))
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    length_crc = zlib.crc32(_UINT64.pack(frame_bytes))
    prefix = _FRAME_PREFIX.pack(_FRAME_MAGIC, length_crc, frame_bytes, crc, header_bytes)
    return [prefix, *pieces], crc


def _frame_at(data: memoryview, start: int, path: str, error: Type[Exception]) -> Optional[_Frame]:
    """The frame at byte ``start`` of ``data``, or None if ``data`` ends inside it.

    ``data`` ends inside a frame within its prefix, or short of the end its
    length names once that length passed its own CRC.  The frame's CRC-32
    is checked before the header is parsed; any other damage raises
    ``error``.  The stream and buffers are views of ``data``.
    """
    if len(data) - start < _FRAME_PREFIX.size:
        return None
    magic, length_crc, frame_bytes, crc, header_bytes = _FRAME_PREFIX.unpack_from(data, start)
    if (
        magic != _FRAME_MAGIC
        or zlib.crc32(_UINT64.pack(frame_bytes)) != length_crc
        or frame_bytes < _FRAME_PREFIX.size
    ):
        raise error(f"frame at byte {start} of {path} failed its magic or length checksum")
    end = start + frame_bytes
    if end > len(data):
        return None
    if zlib.crc32(data[start + _CHECKED_FROM : end]) != crc:
        raise error(f"frame at byte {start} of {path} failed its checksum")
    head = start + _FRAME_PREFIX.size
    try:
        header = json.loads(bytes(data[head : head + header_bytes]))
        stream = data[head + header_bytes : head + header_bytes + header["stream_bytes"]]
        spans = header["buffers"]
        buffers = [data[start + offset : start + offset + size] for offset, size in spans]
    except (ValueError, KeyError, TypeError) as exc:
        raise error(f"frame at byte {start} of {path} has a malformed header: {exc}") from exc
    return end, crc, stream, buffers


def _read_file(path: str, error: Type[Exception], mapped: bool) -> memoryview:
    """The bytes of the file at ``path``: a shared read-only map, or a writable copy."""
    try:
        with open(path, "rb") as fh:
            if mapped:
                return memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
            data = memoryview(bytearray(os.fstat(fh.fileno()).st_size))
            fh.readinto(data)
            return data
    except FileNotFoundError as exc:
        raise error(f"{path} is missing") from exc
    except (OSError, ValueError) as exc:  # ValueError: an empty file cannot be mapped
        raise error(f"{path} is unreadable: {exc}") from exc


def _read_frame(path: str, error: Type[Exception]) -> _Frame:
    """The one frame filling the file at ``path``, in views of its read-only map."""
    data = _read_file(path, error, mapped=True)
    frame = _frame_at(data, 0, path, error)
    if frame is None or frame[0] != len(data):
        raise error(f"{path} does not end where its frame's checksummed length says")
    return frame


def _unpickle(path: str, stream: memoryview, buffers: List[Any], error: Type[Exception]) -> Any:
    try:
        return pickle.loads(stream, buffers=buffers)
    except (pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise error(f"frame at {path} is unreadable: {exc}") from exc


def write_spool_bundle(path: str, payload: Any) -> int:
    """Publish ``payload`` as the one frame of a file at ``path``; return its CRC-32.

    The frame is written to ``<path>.tmp`` and ``os.replace``-d into place,
    so a reader never observes a half-written entry, and a republish
    replaces the entry at the same path.
    """
    pieces, crc = encode_frame(payload)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(pieces)
    os.replace(tmp, path)
    return crc


def load_spool_payload(path: str) -> Any:
    """Load a published spool entry once its frame's length and CRC-32 check.

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
    _, _, stream, buffers = _read_frame(path, SpoolIntegrityError)
    return _unpickle(path, stream, buffers, SpoolIntegrityError)


def verify_spool_entry(path: str) -> bool:
    """Whether a published spool entry passes its frame's checks.

    The parent-side recovery check, the same one :func:`load_spool_payload`
    runs, without unpickling.  Used by the supervisor to decide which
    entries must be republished after a fault.
    """
    try:
        _read_frame(path, SpoolIntegrityError)
    except SpoolIntegrityError:
        return False
    return True


def load_snapshot_file(path: str, crc: int) -> Any:
    """A snapshot file's payload, once its frame checks and has the CRC-32 ``crc``.

    The file is mapped as a spool entry is, and each restored array gets a
    writable ``bytearray`` of its own: views of the map would be read-only
    and keep the whole file mapped until the last of them died, after an
    append had replaced the rest.  A missing, cut or damaged file, or a
    frame other than the one whose CRC the manifest records, raises
    :class:`~repro.exceptions.SnapshotIntegrityError` before anything is
    unpickled.
    """
    _, found, stream, buffers = _read_frame(path, SnapshotIntegrityError)
    if found != crc:
        raise SnapshotIntegrityError(f"{path} is not the frame its manifest records (CRC-32)")
    own = [bytearray(buffer) for buffer in buffers]
    return _unpickle(path, stream, own, SnapshotIntegrityError)


def read_frames(path: str) -> Tuple[List[Any], int]:
    """The payloads of a file of frames written back to back, and where they end.

    A file that ends inside a frame has a torn tail: the whole frames
    before it are returned.  Any other damage raises
    :class:`~repro.exceptions.SnapshotIntegrityError`.
    """
    data = _read_file(path, SnapshotIntegrityError, mapped=False)
    payloads: List[Any] = []
    end = 0
    while True:
        frame = _frame_at(data, end, path, SnapshotIntegrityError)
        if frame is None:
            return payloads, end
        end, _, stream, buffers = frame
        payloads.append(_unpickle(path, stream, buffers, SnapshotIntegrityError))


def remove_spool_entry(path: str) -> None:
    """Delete a published spool entry (best effort)."""
    with contextlib.suppress(OSError):
        os.remove(path)


__all__ = [
    "SharedMemoryRing",
    "ShardBatchLayout",
    "attach_segment",
    "encode_frame",
    "load_snapshot_file",
    "load_spool_payload",
    "read_frames",
    "remove_spool_entry",
    "shared_memory_available",
    "verify_spool_entry",
    "write_spool_bundle",
]
