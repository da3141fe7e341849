"""Zero-copy transports for the shard-serving runtime.

The ``"processes"`` shard executor moves two kinds of bulk payload across
the process boundary on the serving hot path:

* **per-batch payloads** — the query matrix out to every worker and the
  ranked top-k indices/scores back, and
* **per-epoch payloads** — the programmed shard engines published to the
  spool once per program epoch.

PR 4 shipped both through pickle, which costs one serialize + one
deserialize memcpy per array *and* pushes every byte through the worker
pipes.  This module removes both copies on hosts that support POSIX shared
memory:

* :class:`SharedMemoryRing` manages a small ring of reusable
  ``multiprocessing.shared_memory`` segments.  The parent writes a query
  batch into a segment once; every worker maps the same physical pages and
  writes its shard's top-k distances/indices back **in place**, so no
  ndarray payload is pickled in either direction and only tiny job tuples
  cross the pipes.  :class:`ShardBatchLayout` computes the byte layout of
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

Everything degrades transparently: when ``multiprocessing.shared_memory``
is unavailable (or segment allocation fails at runtime) the executor falls
back to the PR 4 pickle path, and :func:`load_spool_payload` reads both
spool formats, so mixed states during a fallback are safe.

Lifecycle: segments are unlinked on ``close()``, on context-manager exit of
the owning executor, and by a :func:`weakref.finalize` safety net when the
owner is garbage collected without closing.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import weakref
import zlib
from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - present on every platform CI runs on
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shm_module = None  # type: ignore[assignment]

#: The shared-memory module, or None on builds without ``_posixshmem``.
#: Typed ``Any`` because every call site is guarded by
#: :func:`shared_memory_available`, which mypy cannot see through.
_shared_memory: Any = _shm_module

from ..exceptions import ConfigurationError, SpoolIntegrityError
from ..utils.validation import check_int_in_range


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
    """A ring of reusable shared-memory segments for query/result batches.

    ``acquire(nbytes)`` hands out segments round-robin across ``depth``
    slots, creating (or growing) a slot's segment only when the requested
    batch does not fit.  Steady-state serving therefore allocates nothing:
    the same segments are rewritten batch after batch.  The ring depth keeps
    the previous batch's result blocks mapped while the next batch is being
    written, so callers may hold the returned result views across exactly
    one subsequent dispatch.

    Parameters
    ----------
    depth:
        Number of independent slots (>= 1).
    """

    def __init__(self, depth: int = 2) -> None:
        if not shared_memory_available():  # pragma: no cover - fallback hosts
            raise ConfigurationError(
                "shared memory is unavailable in this interpreter; "
                "use the pickle transport instead"
            )
        self.depth = check_int_in_range(depth, "depth", minimum=1)
        self._slots: List[Optional[Any]] = [None] * self.depth
        self._cursor = 0
        #: Live segments, shared with the GC safety net: close() empties the
        #: list in place, turning a later finalize into a no-op.
        self._live: List[Any] = []
        self._finalizer = weakref.finalize(self, _release_segments, self._live)

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of the currently allocated segments (introspection/tests)."""
        return tuple(segment.name for segment in self._live)

    def acquire(self, nbytes: int) -> Any:
        """A segment of at least ``nbytes``, reusing the next ring slot."""
        slot = self._cursor
        self._cursor = (self._cursor + 1) % self.depth
        segment = self._slots[slot]
        if segment is not None and segment.size >= nbytes:
            return segment
        if segment is not None:
            self._live.remove(segment)
            _release_segments([segment])
        segment = _shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
        self._slots[slot] = segment
        self._live.append(segment)
        return segment

    def close(self) -> None:
        """Unlink every segment (idempotent; the ring is reusable after)."""
        _release_segments(self._live)
        self._slots = [None] * self.depth
        self._cursor = 0

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
#: because a ring replaces (rather than accumulates) segment names, and
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

    A ring that grows a slot unlinks the old segment in the parent, but the
    steady state only ever re-attaches the live ring names, so the dead
    mapping would otherwise survive below the LRU bound forever — N workers
    each pinning the replaced segment's pages.  Only effective where shared
    memory is file-backed (Linux); elsewhere the LRU bound still applies.
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
    # A new name means the ring moved (first contact, or a slot was
    # replaced by a bigger batch): prune what the owner unlinked.
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

#: Header of checksummed pickle-spool files: magic, 4-byte little-endian
#: CRC-32 of the pickle stream, 8-byte little-endian stream length.
_PICKLE_MAGIC = b"RSPL\x01"
_PICKLE_HEADER_BYTES = len(_PICKLE_MAGIC) + 4 + 8


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


def write_spool_pickle(path: str, payload: Any, fsync: bool = False) -> str:
    """Publish ``payload`` as a checksummed pickle-spool file at ``path``.

    The pickle-transport counterpart of :func:`write_spool_bundle`: the
    stream is prefixed with a magic/CRC-32/length header and atomically
    replaced into place, so readers either see a verifiable complete file
    or the previous epoch's.  ``fsync=True`` flushes the file and its
    directory entry before returning — the durability contract snapshot
    shards need, and overkill for transport spools whose loss is healed
    by a republish.
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = (
        _PICKLE_MAGIC
        + (zlib.crc32(data) & 0xFFFFFFFF).to_bytes(4, "little")
        + len(data).to_bytes(8, "little")
    )
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as fh:
        fh.write(header + data)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    if fsync:
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return path


def _read_bundle_manifest(path: str) -> dict:
    manifest_path = os.path.join(path, _BUNDLE_MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpoolIntegrityError(f"spool bundle manifest unreadable at {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SpoolIntegrityError(f"spool bundle manifest malformed at {path}")
    return manifest


def _verify_bundle(path: str, manifest: dict, data: bytes) -> None:
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


def _read_pickle_spool(path: str) -> bytes:
    """The verified pickle stream of a pickle-spool file."""
    with open(path, "rb") as fh:
        head = fh.read(_PICKLE_HEADER_BYTES)
        if not head.startswith(_PICKLE_MAGIC):
            raise SpoolIntegrityError(f"spool file at {path} has no integrity header")
        data = fh.read()
    crc = int.from_bytes(head[len(_PICKLE_MAGIC) : len(_PICKLE_MAGIC) + 4], "little")
    length = int.from_bytes(head[len(_PICKLE_MAGIC) + 4 :], "little")
    if len(data) != length or (zlib.crc32(data) & 0xFFFFFFFF) != crc:
        raise SpoolIntegrityError(f"spool file corrupt at {path} (checksum mismatch)")
    return data


def load_pickle_spool_bytes(data: bytes, source: str, checksummed: bool = True) -> Any:
    """Unpickle an in-memory pickle-spool image, validating its framing.

    The zero-reread path for callers that already hold the whole file —
    the snapshot loader checksums each file against its manifest CRC
    first, then passes ``checksummed=False`` so the frame's own CRC (over
    the same bytes) is not recomputed.  Raises
    :class:`~repro.exceptions.SpoolIntegrityError` on bad framing exactly
    like :func:`load_spool_payload`.
    """
    if not data.startswith(_PICKLE_MAGIC):
        raise SpoolIntegrityError(f"spool image at {source} has no integrity header")
    head = data[:_PICKLE_HEADER_BYTES]
    payload = memoryview(data)[_PICKLE_HEADER_BYTES:]
    crc = int.from_bytes(head[len(_PICKLE_MAGIC) : len(_PICKLE_MAGIC) + 4], "little")
    length = int.from_bytes(head[len(_PICKLE_MAGIC) + 4 :], "little")
    if len(payload) != length:
        raise SpoolIntegrityError(f"spool image truncated at {source}")
    if checksummed and (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise SpoolIntegrityError(f"spool image corrupt at {source} (checksum mismatch)")
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SpoolIntegrityError(f"spool image unreadable at {source}: {exc}") from exc


def load_spool_payload(path: str) -> Any:
    """Load a published shard payload from either spool format, verified.

    Bundle directories reconstruct their pickled object around
    ``np.load(mmap_mode="r")`` buffer views, so every ndarray in the
    payload is backed by the page cache and shared physically across the
    workers of one host (the arrays come back read-only, which the search
    path never violates).  Plain files are the pickle spool.  Both formats
    carry checksummed headers; a missing, truncated or scribbled entry
    raises :class:`~repro.exceptions.SpoolIntegrityError` — a typed,
    recoverable signal the executor answers by evicting and republishing
    the entry — instead of crashing the worker on garbage bytes.
    """
    try:
        if os.path.isdir(path):
            manifest = _read_bundle_manifest(path)
            with open(os.path.join(path, _BUNDLE_PAYLOAD), "rb") as fh:
                data = fh.read()
            _verify_bundle(path, manifest, data)
            buffers: List[np.ndarray] = []
            index = 0
            while True:
                buffer_path = os.path.join(path, f"buf{index}.npy")
                if not os.path.exists(buffer_path):
                    break
                buffers.append(np.load(buffer_path, mmap_mode="r"))
                index += 1
            return pickle.loads(data, buffers=buffers)
        data = _read_pickle_spool(path)
        return pickle.loads(data)
    except SpoolIntegrityError:
        raise
    except FileNotFoundError as exc:
        raise SpoolIntegrityError(f"spool entry missing at {path}") from exc
    except (OSError, pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SpoolIntegrityError(f"spool entry unreadable at {path}: {exc}") from exc


def verify_spool_entry(path: str) -> bool:
    """Whether a published spool entry passes its integrity header.

    The parent-side recovery check: cheap (checksums the pickle stream,
    stats the buffer files — never unpickles or maps the payload).  An
    entry without its integrity header — a pickle file whose magic is
    overwritten, a bundle whose manifest is gone — is damaged, not an older
    format: every spool entry is written with one.  Used by the supervisor
    to decide which entries must be republished after a fault.
    """
    try:
        if os.path.isdir(path):
            manifest = _read_bundle_manifest(path)
            with open(os.path.join(path, _BUNDLE_PAYLOAD), "rb") as fh:
                data = fh.read()
            _verify_bundle(path, manifest, data)
            return True
        _read_pickle_spool(path)
        return True
    except (SpoolIntegrityError, OSError):
        return False


def remove_spool_entry(path: str) -> None:
    """Delete a published spool entry of either format (best effort)."""
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
        return
    try:
        os.remove(path)
    except OSError:
        pass


__all__ = [
    "SharedMemoryRing",
    "ShardBatchLayout",
    "attach_segment",
    "load_spool_payload",
    "remove_spool_entry",
    "shared_memory_available",
    "verify_spool_entry",
    "write_spool_bundle",
    "write_spool_pickle",
]
