"""Deterministic fault injection for the serving runtime.

Chaos testing a recovery path by hoping the kernel kills the right worker
at the right moment is not a test.  :class:`FaultInjector` makes the
failure modes of the ``"processes"`` executor *injectable* at fixed,
seeded points so the chaos suite and the fault-recovery benchmark can
assert exact recovery behavior:

* ``kill_worker`` — SIGKILL one worker process right after a batch is
  dispatched (the mid-batch crash: its futures fail with
  ``BrokenProcessPool``),
* ``corrupt_spool`` — scribble over the middle of a published shard spool
  entry (for an MCAM shard, its stored states) so the next cache-miss
  load fails the file's CRC-32
  (:class:`~repro.exceptions.SpoolIntegrityError`),
* ``drop_spool`` — delete a published spool entry outright,
* ``corrupt_segment`` — unlink a just-acquired shared-memory ring
  segment so workers fail to attach (the runtime-shm-loss fault; the batch
  replays in process),
* ``delay_collect`` — sleep before a collect, simulating a stalled
  dispatch for deadline tests,
* ``torn_journal_tail`` — truncate the append journal mid-frame right
  after a record lands, reproducing ``kill -9`` during an acknowledged
  append (restore must tolerate the tear and keep every complete record),
* ``corrupt_snapshot`` — scribble over a snapshot shard file so restore
  fails its checksum
  (:class:`~repro.exceptions.SnapshotIntegrityError`),
* ``drop_manifest`` — delete a snapshot's ``manifest.json`` outright.

An injector is armed per fault via :meth:`arm` and handed to an executor
as its ``fault_injector`` (or to a searcher as its
``storage_fault_injector``); the executor calls :meth:`fire` at fixed
sites (``"dispatch"`` right before a batch is submitted, ``"segment"``
right after a ring segment is acquired, ``"collect"`` right before a
collect blocks, ``"journal"`` right after a journal record is fsync'd,
``"snapshot"`` right after a snapshot generation is committed).  Each
site keeps its own occurrence counter, and the
only randomness — ``probability`` draws — comes from one seeded
generator, so a given seed and call sequence always injects the same
faults at the same points.  Everything that fired is logged in
:attr:`fired` for assertions.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from random import Random

from ..exceptions import ConfigurationError
from . import transport as _transport

__all__ = ["FaultInjector"]

#: Fault name -> the executor site it fires at.
_FAULT_SITES = {
    "kill_worker": "dispatch",
    "corrupt_spool": "dispatch",
    "drop_spool": "dispatch",
    "corrupt_segment": "segment",
    "delay_collect": "collect",
    "torn_journal_tail": "journal",
    "corrupt_snapshot": "snapshot",
    "drop_manifest": "snapshot",
}


class _ArmedFault:
    __slots__ = ("fault", "site", "at_occurrence", "probability", "remaining", "delay_s")

    def __init__(
        self,
        fault: str,
        at_occurrence: Optional[int],
        probability: Optional[float],
        count: int,
        delay_s: float,
    ) -> None:
        self.fault = fault
        self.site = _FAULT_SITES[fault]
        self.at_occurrence = at_occurrence
        self.probability = probability
        self.remaining = count
        self.delay_s = delay_s

    def should_fire(self, occurrence: int, rng: Random) -> bool:
        if self.remaining <= 0:
            return False
        if self.at_occurrence is not None and occurrence != self.at_occurrence:
            return False
        # Draw even when the occurrence filter alone decides nothing —
        # the draw count per occurrence is what keeps a seed reproducible
        # regardless of which armed fault consumes it.
        if self.probability is not None and rng.random() >= self.probability:
            return False
        self.remaining -= 1
        return True


class FaultInjector:
    """Seeded, deterministic fault injection hooks for an executor.

    Parameters
    ----------
    seed:
        Seed of the generator behind ``probability`` draws.  Injectors
        armed only with ``at_occurrence`` schedules are deterministic
        regardless of the seed.
    """

    FAULTS = tuple(_FAULT_SITES)

    def __init__(self, seed: int = 0) -> None:
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self._armed: List[_ArmedFault] = []
        self._occurrences: Dict[str, int] = {}
        #: Log of injected faults: ``{"fault", "site", "occurrence", "detail"}``.
        self.fired: List[dict] = []

    def arm(
        self,
        fault: str,
        at_occurrence: Optional[int] = None,
        probability: Optional[float] = None,
        count: int = 1,
        delay_s: float = 0.05,
    ) -> "FaultInjector":
        """Arm one fault; returns ``self`` so arms chain.

        ``at_occurrence`` pins the fault to the Nth (0-based) time its
        site is reached; ``probability`` fires it on each matching
        occurrence with the given seeded probability; both ``None`` means
        every occurrence.  ``count`` bounds total fires; ``delay_s`` is
        the ``delay_collect`` sleep.
        """
        if fault not in _FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault {fault!r}; expected one of {sorted(_FAULT_SITES)}"
            )
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"probability must be in [0, 1], got {probability!r}")
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count!r}")
        if delay_s < 0:
            raise ConfigurationError(f"delay_s must be >= 0, got {delay_s!r}")
        with self._lock:
            self._armed.append(_ArmedFault(fault, at_occurrence, probability, count, delay_s))
        return self

    def fire(self, site: str, executor: Any, segment: Any = None, path: Any = None) -> None:
        """Run every armed fault scheduled for this visit to ``site``.

        Called by the executor (and the storage tier) at its injection
        points; a site with nothing armed costs one counter bump.  Fault
        execution is best effort — a fault that finds nothing to break (no
        live worker, no published spool entry) logs ``detail: None`` and
        moves on.  ``path`` carries the journal file or storage directory
        for the ``"journal"`` / ``"snapshot"`` sites.
        """
        with self._lock:
            occurrence = self._occurrences.get(site, 0)
            self._occurrences[site] = occurrence + 1
            to_fire = [
                armed
                for armed in self._armed
                if armed.site == site and armed.should_fire(occurrence, self._rng)
            ]
        for armed in to_fire:
            detail = self._execute(armed, executor, segment, path)
            with self._lock:
                self.fired.append(
                    {
                        "fault": armed.fault,
                        "site": site,
                        "occurrence": occurrence,
                        "detail": detail,
                    }
                )

    def _execute(self, armed: _ArmedFault, executor: Any, segment: Any, path: Any) -> Any:
        if armed.fault == "kill_worker":
            return executor._pool.kill_one_worker()
        if armed.fault == "corrupt_spool":
            path = self._pick_spool_entry(executor)
            if path is None:
                return None
            return self._scribble_midstream(path)
        if armed.fault == "torn_journal_tail":
            if path is None:
                return None
            try:
                # Chop less than one frame header off the end: exactly what
                # kill -9 mid-write leaves behind — a complete prefix of
                # records, then a torn final frame.
                size = os.path.getsize(path)
                os.truncate(path, max(0, size - 7))
            except OSError:
                return None
            return path
        if armed.fault == "corrupt_snapshot":
            shard_path = self._pick_snapshot_shard(path)
            if shard_path is None:
                return None
            return self._scribble_midstream(shard_path)
        if armed.fault == "drop_manifest":
            if path is None:
                return None
            manifest_path = os.path.join(path, "manifest.json")
            try:
                os.remove(manifest_path)
            except OSError:
                return None
            return manifest_path
        if armed.fault == "drop_spool":
            path = self._pick_spool_entry(executor)
            if path is None:
                return None
            _transport.remove_spool_entry(path)
            return path
        if armed.fault == "corrupt_segment":
            if segment is None:
                return None
            name = segment.name
            try:
                # Unlink the name only: the parent's mapping stays valid,
                # but workers dispatched against this batch fail to attach
                # — exactly what losing /dev/shm mid-flight looks like.
                os.unlink(os.path.join("/dev/shm", name.lstrip("/")))
            except OSError:
                return None
            return name
        if armed.fault == "delay_collect":
            time.sleep(armed.delay_s)
            return armed.delay_s
        # Unreachable guard: arm() validated the name against _FAULT_SITES,
        # so reaching this line is a programming error, not a serving failure.
        raise AssertionError(f"unreachable fault {armed.fault!r}")  # reprolint: disable=RPL006

    @staticmethod
    def _scribble_midstream(path: str) -> Optional[str]:
        """Overwrite four bytes mid-file, keeping the file's size.

        Every size check still passes, so the fault exercises the CRC.
        """
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.seek(size // 2)
                fh.write(b"\xde\xad\xbe\xef")
        except OSError:
            return None
        return path

    @staticmethod
    def _pick_snapshot_shard(directory: Any) -> Optional[str]:
        """The first shard file of the manifest-referenced snapshot."""
        if directory is None:
            return None
        manifest_path = os.path.join(directory, "manifest.json")
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return None
        shards = manifest.get("shards") or []
        if not shards:
            return None
        return os.path.join(
            directory, str(manifest["snapshot_dir"]), str(shards[0]["file"])
        )

    @staticmethod
    def _pick_spool_entry(executor: Any) -> Optional[str]:
        """The first published spool path, in deterministic key order."""
        with executor._lock:
            keys = sorted(executor._published)
            path: Optional[str] = executor._published[keys[0]][0] if keys else None
        return path
