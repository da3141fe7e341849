"""Write-ahead append journal for :class:`~repro.core.sharding.ShardedSearcher`.

The journal is the durability half of the acknowledge-before-route
contract: an ``append()`` call is recorded here — framed, checksummed and
fsync'd — *before* any row is routed to a shard, so by the time the caller
sees the call return, the rows survive ``kill -9``.  Recovery replays
records newer than the last snapshot's ``applied_seq`` in order, which
makes a restored searcher bitwise identical to one that never crashed.

Each record carries its own length and CRC-32::

    b"RJNL\\x01" | crc32(payload) LE u32 | len(payload) LE u64 | payload

where ``payload`` pickles ``(seq, features, labels)``.  Two failure modes
are deliberately distinguished:

* **torn tail** — the file ends mid-frame (short header or short
  payload).  That is the expected artifact of a crash mid-write: replay
  stops at the last complete frame, and ``repair=True`` truncates the
  tear so later appends cannot land behind garbage.
* **corruption** — a *complete* frame whose CRC or sequence ordering is
  wrong.  That is silent data damage, never a crash artifact, and raises
  :class:`~repro.exceptions.SnapshotIntegrityError` rather than serving
  partial state.
"""

from __future__ import annotations

import io
import os
import pickle
import threading
import zlib
from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SnapshotIntegrityError
from ..utils.io import fsync_directory

__all__ = ["AppendJournal", "JournalRecord", "read_journal"]

_MAGIC = b"RJNL\x01"
_HEADER_BYTES = len(_MAGIC) + 4 + 8


class JournalRecord(NamedTuple):
    """One acknowledged append: its sequence number and the appended rows."""

    seq: int
    features: np.ndarray
    labels: Optional[np.ndarray]


def _frame(record: JournalRecord) -> bytes:
    payload = pickle.dumps(tuple(record), protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _MAGIC
        + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little")
        + len(payload).to_bytes(8, "little")
        + payload
    )


def read_journal(path: str, repair: bool = False) -> Tuple[List[JournalRecord], int]:
    """Read every complete journal record at ``path``.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the offset
    of the last complete frame's end.  A torn tail (short header or short
    payload) ends the scan; with ``repair=True`` the file is truncated to
    ``valid_bytes`` so subsequent appends extend a clean log.  A complete
    frame that fails its CRC, carries the wrong magic, or breaks the
    strictly-increasing sequence order raises
    :class:`~repro.exceptions.SnapshotIntegrityError`.
    """
    records: List[JournalRecord] = []
    if not os.path.exists(path):
        return records, 0
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    last_seq: Optional[int] = None
    while offset < len(data):
        header = data[offset : offset + _HEADER_BYTES]
        if len(header) < _HEADER_BYTES:
            break  # torn tail: crash mid-header
        if not header.startswith(_MAGIC):
            raise SnapshotIntegrityError(
                f"journal frame at byte {offset} of {path} has bad magic"
            )
        crc = int.from_bytes(header[len(_MAGIC) : len(_MAGIC) + 4], "little")
        length = int.from_bytes(header[len(_MAGIC) + 4 :], "little")
        payload = data[offset + _HEADER_BYTES : offset + _HEADER_BYTES + length]
        if len(payload) < length:
            break  # torn tail: crash mid-payload
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise SnapshotIntegrityError(
                f"journal frame at byte {offset} of {path} failed its checksum"
            )
        seq, features, labels = pickle.loads(payload)
        if last_seq is not None and seq <= last_seq:
            raise SnapshotIntegrityError(
                f"journal at {path} is out of order: seq {seq} after {last_seq}"
            )
        last_seq = seq
        records.append(JournalRecord(int(seq), features, labels))
        offset += _HEADER_BYTES + length
    if repair and offset < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
    return records, offset


class AppendJournal:
    """Append-only, fsync'd record log with atomic checkpoint truncation.

    ``path`` is the journal file, created lazily on the first
    :meth:`record`.  Every record reaches stable storage before
    :meth:`record` returns.
    """

    def __init__(self, path: str) -> None:
        self._path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle: Optional[io.BufferedWriter] = None
        self._closed = False
        #: Optional fault injector fired at the ``"journal"`` site after
        #: each durable record — chaos tests tear the tail here.
        self.fault_injector: Optional[Any] = None

    @property
    def path(self) -> str:
        return self._path

    def _open_handle(self) -> io.BufferedWriter:
        if self._closed:
            raise ConfigurationError(f"journal at {self._path} is closed")
        if self._handle is None:
            os.makedirs(os.path.dirname(os.path.abspath(self._path)), exist_ok=True)
            self._handle = open(self._path, "ab")
        return self._handle

    def record(self, seq: int, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        """Durably record one append before it is routed to shards."""
        frame = _frame(JournalRecord(int(seq), np.asarray(features), labels))
        with self._lock:
            handle = self._open_handle()
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        injector = self.fault_injector
        if injector is not None:
            injector.fire("journal", None, path=self._path)

    def replay(self, repair: bool = False) -> Tuple[List[JournalRecord], int]:
        """Read this journal's records under its lock (see :func:`read_journal`).

        Restore paths go through here when the journal is live, so the
        read — and the ``repair=True`` tail truncation — cannot interleave
        with a concurrent :meth:`record` or a :meth:`checkpoint` replacing
        the same file.
        """
        with self._lock:
            return read_journal(self._path, repair=repair)

    def checkpoint(self, applied_seq: int) -> int:
        """Drop records a snapshot already covers; returns the count kept.

        Rewrites the journal to only the records with ``seq >
        applied_seq`` via tmp-write + ``os.replace``, so a crash during
        checkpointing leaves the previous (longer but correct) journal.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            records, valid_bytes = read_journal(self._path, repair=False)
            keep = [record for record in records if record.seq > applied_seq]
            if len(keep) == len(records) and (
                not os.path.exists(self._path)
                or os.path.getsize(self._path) == valid_bytes
            ):
                # Nothing to drop and no torn tail to repair; in particular
                # a journal that never recorded stays nonexistent.
                return len(keep)
            tmp_path = f"{self._path}.tmp"
            with open(tmp_path, "wb") as fh:
                for record in keep:
                    fh.write(_frame(record))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self._path)
            fsync_directory(os.path.dirname(os.path.abspath(self._path)))
            return len(keep)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "AppendJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
