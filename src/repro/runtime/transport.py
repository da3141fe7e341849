"""Zero-copy transport for the shard-serving runtime.

The ``"processes"`` shard executor moves two kinds of bulk payload across
the process boundary on the serving hot path:

* **per-batch payloads** — the query matrix out to every worker and the
  ranked top-k indices/scores back, and
* **per-epoch payloads** — the programmed shard engines published to the
  spool once per program epoch.

Both travel through POSIX shared memory, so no ndarray payload is pickled
on the steady-state path:

* :class:`SharedMemoryRing` keeps the executor's reusable
  ``multiprocessing.shared_memory`` segments.  The parent writes a query
  batch into a segment once; every worker maps the same physical pages and
  writes its shard's top-k distances/indices back **in place**, so only
  tiny job tuples cross the pipes.  Each dispatched batch holds its own
  segment until it is collected, so any number of threads may dispatch
  through one ring.  :class:`ShardBatchLayout` computes the byte layout of
  one dispatched batch (the query block followed by per-shard result
  blocks).
* :func:`write_spool_bundle` / :func:`load_spool_payload` publish shard
  payloads as memory-mapped ``.npy`` bundles: the pickle stream is written
  with its ndarray buffers extracted out-of-band (pickle protocol 5) and
  each buffer lands in its own ``.npy`` file that workers
  ``np.load(mmap_mode="r")``.  N workers on one host then share one
  physical copy of each shard's programmed profiles instead of N
  deserialized clones — and a worker that never touches a shard never
  faults its pages in at all.

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

import json
import os
import pickle
import shutil
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
# Memory-mapped spool bundles
# ----------------------------------------------------------------------
_BUNDLE_PAYLOAD = "payload.pkl"
_BUNDLE_MANIFEST = "manifest.json"

#: Every field a bundle manifest must carry, with its JSON type.
_MANIFEST_FIELDS = {"format": int, "payload_crc32": int, "payload_bytes": int, "buffer_bytes": list}


def write_spool_bundle(path: str, payload: Any) -> str:
    """Publish ``payload`` as a memory-mappable bundle directory at ``path``.

    The pickle stream is written with every contiguous ndarray buffer
    extracted out-of-band (protocol 5); each buffer lands in its own
    ``buf<i>.npy`` so :func:`load_spool_payload` can hand ``np.load``
    memory maps back to the unpickler.  A ``manifest.json`` header records
    the stream's CRC-32 and every file's byte size, so readers detect a
    scribbled or truncated bundle (:class:`~repro.exceptions.SpoolIntegrityError`)
    instead of unpickling garbage.  The bundle is assembled in a sibling
    temp directory and renamed into place, so a reader can never observe a
    half-written bundle; callers encode the program epoch in ``path``,
    which is why a plain rename (no replace-over-existing) is enough.
    """
    buffers: List = []
    data = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    staging = f"{path}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    buffer_bytes = []
    for index, buffer in enumerate(buffers):
        buffer_path = os.path.join(staging, f"buf{index}.npy")
        np.save(buffer_path, np.frombuffer(buffer, dtype=np.uint8))
        buffer_bytes.append(os.path.getsize(buffer_path))
    with open(os.path.join(staging, _BUNDLE_PAYLOAD), "wb") as fh:
        fh.write(data)
    manifest = {
        "format": 1,
        "payload_crc32": zlib.crc32(data) & 0xFFFFFFFF,
        "payload_bytes": len(data),
        "buffer_bytes": buffer_bytes,
    }
    with open(os.path.join(staging, _BUNDLE_MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    os.rename(staging, path)
    return path


def _read_bundle_manifest(path: str) -> dict:
    """A bundle's manifest, with every field present and of its JSON type."""
    manifest_path = os.path.join(path, _BUNDLE_MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpoolIntegrityError(f"spool bundle manifest unreadable at {path}: {exc}") from exc
    # ``type(...) is`` rather than isinstance: JSON booleans are not sizes.
    if not (
        isinstance(manifest, dict)
        and all(type(manifest.get(field)) is kind for field, kind in _MANIFEST_FIELDS.items())
        and all(type(size) is int for size in manifest["buffer_bytes"])
    ):
        raise SpoolIntegrityError(
            f"spool bundle manifest malformed at {path} (a field is missing or mistyped)"
        )
    return manifest


def _read_verified_bundle(path: str) -> Tuple[bytes, int]:
    """A bundle's pickle stream and buffer count, checked against its manifest.

    The stream's length and CRC-32 must match, and every ``buf*.npy`` file
    must exist with its recorded byte size; anything else raises
    :class:`~repro.exceptions.SpoolIntegrityError`.
    """
    if not os.path.isdir(path):
        raise SpoolIntegrityError(f"spool entry missing at {path}")
    manifest = _read_bundle_manifest(path)
    with open(os.path.join(path, _BUNDLE_PAYLOAD), "rb") as fh:
        data = fh.read()
    if len(data) != manifest["payload_bytes"] or (
        zlib.crc32(data) & 0xFFFFFFFF
    ) != manifest["payload_crc32"]:
        raise SpoolIntegrityError(f"spool bundle payload corrupt at {path} (checksum mismatch)")
    for index, expected in enumerate(manifest["buffer_bytes"]):
        buffer_path = os.path.join(path, f"buf{index}.npy")
        try:
            actual = os.path.getsize(buffer_path)
        except OSError as exc:
            raise SpoolIntegrityError(f"spool bundle buffer missing at {buffer_path}") from exc
        if actual != expected:
            raise SpoolIntegrityError(
                f"spool bundle buffer truncated at {buffer_path} "
                f"({actual} bytes, expected {expected})"
            )
    return data, len(manifest["buffer_bytes"])


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
    """Load a published shard bundle, verified against its manifest.

    The pickled object is reconstructed around ``np.load(mmap_mode="r")``
    buffer views, so every ndarray in the payload is backed by the page
    cache and shared physically across the workers of one host (the
    arrays come back read-only, which the search path never violates).  A
    missing, truncated or scribbled bundle raises
    :class:`~repro.exceptions.SpoolIntegrityError` — a typed, recoverable
    signal the executor answers by republishing the entry — instead of
    crashing the worker on garbage bytes.
    """
    try:
        data, buffer_count = _read_verified_bundle(path)
        buffers = [
            np.load(os.path.join(path, f"buf{index}.npy"), mmap_mode="r")
            for index in range(buffer_count)
        ]
        return pickle.loads(data, buffers=buffers)
    except SpoolIntegrityError:
        raise
    except FileNotFoundError as exc:
        raise SpoolIntegrityError(f"spool entry missing at {path}") from exc
    except (OSError, pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SpoolIntegrityError(f"spool entry unreadable at {path}: {exc}") from exc


def verify_spool_entry(path: str) -> bool:
    """Whether a published spool bundle passes its manifest checks.

    The parent-side recovery check: cheap (checksums the pickle stream,
    stats the buffer files — never unpickles or maps the payload).  A
    bundle whose manifest is gone or lacks a field is damaged, not an
    older format: every bundle is written with a complete one.  Used by
    the supervisor to decide which entries must be republished after a
    fault.
    """
    try:
        _read_verified_bundle(path)
        return True
    except (SpoolIntegrityError, OSError):
        return False


def remove_spool_entry(path: str) -> None:
    """Delete a published spool bundle (best effort)."""
    shutil.rmtree(path, ignore_errors=True)


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
