"""Durable shard storage tier: snapshots, append journaling, cold tenancy.

The serving runtime keeps fitted stores in memory and ships them to
workers through transport spools, which it republishes from those
in-memory payloads when one is damaged; this package is what survives a
process restart, and ``restore()`` is the only way back into serving.
Three pieces compose:

* :mod:`.snapshot` — crash-safe, checksummed snapshots of a fitted
  :class:`~repro.core.sharding.ShardedSearcher` (atomic generation
  directories referenced by an atomically replaced manifest that records
  every file's size and CRC-32),
* :mod:`.journal` — a write-ahead append journal: acknowledged
  ``append()`` calls are fsync'd before routing, and recovery replays
  them over the last snapshot so a restored searcher is bitwise identical
  to one that never crashed; each snapshot checkpoints it inline,
  dropping the records it covers,
* :mod:`.tenancy` — an LRU eviction-to-disk policy
  (:class:`~repro.storage.tenancy.ColdTenantPool`) so one host serves
  more tenants than RAM holds, restoring cold tenants transparently on
  their next lease.

Every on-disk artifact is either a snapshot file whose manifest size and
CRC-32 :func:`~repro.runtime.transport.load_checked_pickle` checks before
it unpickles, or a length+CRC framed journal record; nothing partial is
ever served — corruption surfaces as
:class:`~repro.exceptions.SnapshotIntegrityError`.
"""

from .journal import AppendJournal, JournalRecord, read_journal
from .snapshot import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    SnapshotState,
    load_snapshot,
    write_snapshot,
)
from .tenancy import ColdTenantPool

__all__ = [
    "AppendJournal",
    "ColdTenantPool",
    "JOURNAL_NAME",
    "JournalRecord",
    "MANIFEST_NAME",
    "SnapshotState",
    "load_snapshot",
    "read_journal",
    "write_snapshot",
]
