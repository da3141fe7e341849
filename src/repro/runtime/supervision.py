"""Worker supervision: the pool heal/restart policy.

A worker killed mid-batch, a ``BrokenProcessPool`` or a hung worker must
not be fatal to the serving runtime.  :class:`PoolSupervisor` is the small,
deterministic policy object that
:class:`~.process_pool.ProcessShardExecutor` composes into a self-healing
dispatch path.  It owns the executor's *heal* callback (terminate the
pool, verify and republish spool entries) and guards it with a generation
counter so concurrent collects that observed the same dead pool heal it
exactly once.  When restarts come too fast — ``max_restarts`` within
``restart_window_s`` — the supervisor demotes the executor to in-process
serial execution and re-probes the pool after a cool-down.  The full
degradation ladder is ``shm -> serial -> disk-restore``: below serial sits
the storage tier, which republishes lost shard payloads from on-disk
snapshots (counted via :meth:`PoolSupervisor.record_disk_restore`).

The supervisor takes an injectable monotonic ``clock`` so the chaos tests
can drive cool-down transitions deterministically, and it is thread-safe:
collects racing on a scheduler's pump thread and foreground lifecycle
calls may hit it concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Optional

from ..exceptions import ConfigurationError
from ..utils.validation import check_int_in_range

__all__ = ["PoolSupervisor"]


def _check_positive_float(value: float, name: str) -> float:
    value = float(value)
    if not value > 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


class PoolSupervisor:
    """Heal a worker pool in place, at a bounded restart rate.

    The supervisor owns a ``heal`` callback supplied by the executor —
    terminate the dead workers, verify and republish spool entries — and
    two policies around it:

    * **Generation guard.**  Every dispatch snapshots :attr:`generation`;
      a collect that hits a dead pool calls :meth:`ensure_healed` with the
      snapshot.  The first such caller runs the heal and bumps the
      generation; concurrent callers that observed the same generation
      find it already bumped and return without healing again, so one
      crash costs one restart no matter how many batches were in flight.
    * **Restart budget.**  Restarts are timestamped and pruned to
      ``restart_window_s``; when ``max_restarts`` land inside the window
      the pool is *demoted* — :attr:`pool_allowed` answers False and the
      executor runs batches in-process serially (bitwise identical, just
      slow) instead of thrashing a pool that dies faster than it heals.
      After ``cooldown_s`` the next dispatch probes the pool again; a
      batch that completes calls :meth:`record_success`, which clears the
      restart history and lifts the demotion.

    One rung sits below even the serial demotion: when spool repair must
    reload a shard from its on-disk snapshot (no parent-resident payload —
    a warm-restarted host or an evicted cold tenant), the executor counts
    it here via :meth:`record_disk_restore`, making
    ``shm -> serial -> disk-restore`` degradations observable end to end.
    """

    def __init__(
        self,
        heal: Callable[[], None],
        max_restarts: int = 5,
        restart_window_s: float = 30.0,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._heal = heal
        self.max_restarts = check_int_in_range(max_restarts, "max_restarts", minimum=1)
        self.restart_window_s = _check_positive_float(restart_window_s, "restart_window_s")
        self.cooldown_s = _check_positive_float(cooldown_s, "cooldown_s")
        self._clock = clock
        self._lock = threading.Lock()
        self._generation = 0
        self._total_restarts = 0
        self._total_disk_restores = 0
        self._total_stale_restores = 0
        self._restarts: Deque[float] = deque()
        self._demoted_at: Optional[float] = None

    @property
    def generation(self) -> int:
        """Pool generation: bumped by every heal.  Snapshot at dispatch."""
        with self._lock:
            return self._generation

    @property
    def total_restarts(self) -> int:
        """Heals performed over the supervisor's lifetime (monitoring)."""
        with self._lock:
            return self._total_restarts

    @property
    def total_disk_restores(self) -> int:
        """Shard payloads reloaded from snapshots during spool repair."""
        with self._lock:
            return self._total_disk_restores

    def record_disk_restore(self) -> None:
        """Count one restore-from-disk repair (the rung below serial)."""
        with self._lock:
            self._total_disk_restores += 1

    @property
    def total_stale_restores(self) -> int:
        """Disk restores refused because appends outran the snapshot.

        A snapshot generation whose ``applied_seq`` pre-dates the
        searcher's last acknowledged append would serve stale rows with
        valid checksums; the executor refuses it and the batch fails
        typed instead.
        """
        with self._lock:
            return self._total_stale_restores

    def record_stale_restore(self) -> None:
        """Count one refused (stale-snapshot) restore-from-disk attempt."""
        with self._lock:
            self._total_stale_restores += 1

    @property
    def demoted(self) -> bool:
        """Whether the pool is currently demoted to serial execution."""
        with self._lock:
            return self._demoted_at is not None

    @property
    def pool_allowed(self) -> bool:
        """Whether dispatches may use the worker pool right now.

        False only while demoted and inside the cool-down; once
        ``cooldown_s`` elapses dispatches flow to the pool again as
        probes — their outcome (a heal, or :meth:`record_success`)
        decides whether the demotion re-arms or lifts.
        """
        with self._lock:
            if self._demoted_at is None:
                return True
            return self._clock() - self._demoted_at >= self.cooldown_s

    def ensure_healed(self, observed_generation: int) -> int:
        """Heal the pool unless someone already did; return the generation.

        ``observed_generation`` is the :attr:`generation` the caller
        snapshotted when it dispatched the batch that just failed.  If the
        current generation moved past it, a concurrent collect already
        healed the pool this batch dispatched into — the failure is
        explained and the caller just retries on the healed pool.
        """
        with self._lock:
            if self._generation != observed_generation:
                return self._generation
            now = self._clock()
            while self._restarts and now - self._restarts[0] > self.restart_window_s:
                self._restarts.popleft()
            self._restarts.append(now)
            self._total_restarts += 1
            self._generation += 1
            if len(self._restarts) >= self.max_restarts:
                self._demoted_at = now
            self._heal()
            return self._generation

    def record_success(self) -> None:
        """A batch completed on the pool: clear history, lift demotion."""
        with self._lock:
            self._restarts.clear()
            self._demoted_at = None
