"""Write-ahead append journal for :class:`~repro.core.sharding.ShardedSearcher`.

The journal is the durability half of the acknowledge-before-route
contract: an ``append()`` call is recorded here — framed, checksummed and
fsync'd — *before* any row is routed to a shard, so by the time the caller
sees the call return, the rows survive ``kill -9``.  Recovery replays
records newer than the last snapshot's ``applied_seq`` in order, which
makes a restored searcher bitwise identical to one that never crashed.

Each record ``(seq, features, labels)`` is one checksummed frame of
:func:`~repro.runtime.transport.encode_frame`, appended back to back; a
frame's length carries a CRC of its own, and its CRC-32 covers the rest.
Two failure modes are deliberately distinguished:

* **torn tail** — the file ends inside a frame: inside its prefix, or
  short of the end that its checked length names.  That is the expected
  artifact of a crash mid-write: replay stops at the last whole frame,
  and ``repair=True`` truncates the tear so later appends cannot land
  behind garbage.
* **corruption** — anything else: a frame with a bad magic, a length or
  content that fails its checksum, or sequence numbers out of order.
  That is silent data damage, never a crash artifact, and raises
  :class:`~repro.exceptions.SnapshotIntegrityError`, leaving the file as
  it is, rather than serving partial state.
"""

from __future__ import annotations

import io
import os
import threading
from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SnapshotIntegrityError
from ..runtime.transport import encode_frame, read_frames
from ..utils.io import fsync_directory

__all__ = ["AppendJournal", "JournalRecord", "read_journal"]


class JournalRecord(NamedTuple):
    """One acknowledged append: its sequence number and the appended rows."""

    seq: int
    features: np.ndarray
    labels: Optional[np.ndarray]


def read_journal(path: str, repair: bool = False) -> Tuple[List[JournalRecord], int]:
    """Read every whole journal record at ``path``.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the offset
    of the last whole frame's end.  A torn tail ends the scan; with
    ``repair=True`` the file is truncated to ``valid_bytes`` so subsequent
    appends extend a clean log.  Any other damage, and a sequence that is
    not strictly increasing, raises
    :class:`~repro.exceptions.SnapshotIntegrityError` and leaves the file
    untouched.
    """
    records: List[JournalRecord] = []
    if not os.path.exists(path):
        return records, 0
    payloads, valid_bytes = read_frames(path)
    for seq, features, labels in payloads:
        if records and seq <= records[-1].seq:
            raise SnapshotIntegrityError(
                f"journal at {path} is out of order: seq {seq} after {records[-1].seq}"
            )
        records.append(JournalRecord(int(seq), features, labels))
    if repair and valid_bytes < os.path.getsize(path):
        with open(path, "r+b") as fh:
            fh.truncate(valid_bytes)
            fh.flush()
            os.fsync(fh.fileno())
    return records, valid_bytes


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
        pieces, _ = encode_frame((int(seq), np.asarray(features), labels))
        with self._lock:
            handle = self._open_handle()
            handle.writelines(pieces)
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
                    fh.writelines(encode_frame(tuple(record))[0])
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
