"""Persistent worker-process pools: the cross-process execution substrate.

CPython executes one interpreter thread at a time, so thread pools only help
where NumPy releases the GIL.  The Monte-Carlo experiment harnesses spend a
large share of their time in interpreter-bound code (episode bookkeeping,
RNG management, per-trial model construction), which threads cannot
parallelize — worker *processes* can.

:class:`PersistentProcessPool` runs its workers as one-process
:class:`concurrent.futures.ProcessPoolExecutor` instances, each with its own
submission queue, started lazily and kept warm across calls, so one
experiment pays the worker start-up cost once rather than per dispatch.  A
job can go to any worker (:meth:`~PersistentProcessPool.map`,
:meth:`~PersistentProcessPool.submit_all`) or to a chosen one
(:meth:`~PersistentProcessPool.submit_to`).  Two consumers build on it:

* :class:`ProcessShardExecutor` — the ``"processes"`` shard executor of
  :class:`~repro.core.sharding.ShardedSearcher`, ranking the shards of one
  query batch in worker processes,
* :class:`~repro.runtime.trials.ParallelTrialRunner` — the Monte-Carlo
  trial/episode dispatcher used by the Fig. 7/8 sweeps.

Work functions and jobs must be picklable (module-level functions and
plain-data payloads); both consumers are structured that way, which is also
what guarantees workers see self-contained jobs and therefore produce
results bitwise identical to in-process execution.

**Worker-resident shard caching.**  Shipping a programmed shard engine on
every query batch throws away the amortization that makes in-memory CAM
search fast (arrays are programmed once and queried many times).  The
``"processes"`` shard executor therefore publishes each programmed shard to
a spool **once per program epoch**
(:meth:`ProcessShardExecutor.publish_shard`) and ranks query batches
against the published shards (:meth:`ProcessShardExecutor.submit_cached`);
the sharded searcher takes this path whenever its executor has
``submit_cached``.  Workers keep a process-global cache keyed by
``(searcher_id, shard_index, program_epoch)`` and load a shard from the
spool only when the key misses — i.e. on first contact or after a
reprogram/append bumped the shard's epoch.  Steady-state query batches ship
only query payloads.  A worker can never serve stale state: every job
carries the current epoch, and an epoch mismatch forces a reload.

**Shard affinity.**  The spooled states are memory-mapped, so all workers
share one physical copy of them, but the search tables a worker builds from
them (the MCAM's by-cell conductance tables) are private to that worker.
Every shard therefore has a home worker: with ``W`` workers and ``S``
shards, shard ``s`` runs on worker ``(offset + s) mod W`` when ``W <= S``
(see :meth:`ProcessShardExecutor._home_workers` for ``W > S``), and a batch
sends each worker it uses one job, the group of its shards' jobs.  Closing
a :class:`~repro.core.sharding.ShardedSearcher` sends an eviction message
to every live worker (:meth:`ProcessShardExecutor.evict`), so long-running
shared pools do not accumulate shards of dead searchers.

**Zero-copy transport.**  Every multi-shard batch moves through POSIX
shared memory: queries are written once into a segment of the executor's
:class:`~.transport.SharedMemoryRing` that every worker maps, workers
write their top-k indices/scores back into the same segment in place, and
each published shard is one checksummed spool file that every worker
memory-maps, so all of them share its pages.  A batch holds its segment
from dispatch until its collect has copied the results out, so any number
of threads may dispatch through one executor and collect in any order.  A
host without shared memory cannot build the executor; ``executor="serial"``
serves there.

**Supervision and recovery.**  Cached-rank dispatches are supervised: a
batch whose worker crashes (``BrokenProcessPool``), hangs past
``dispatch_timeout_s`` or reads a corrupt spool entry is not fatal.  The
executor *heals in place* — terminate the dead pool, verify and republish
spool entries from the parent-resident payloads (see
:class:`~.supervision.PoolSupervisor`) — and retries the idempotent batch
once on the healed pool before failing it with a typed error
(:class:`~repro.exceptions.WorkerCrashError` /
:class:`~repro.exceptions.ServingTimeoutError`).  A batch that cannot get
or keep its shared-memory segment (allocation fails, or a worker finds it
gone) is replayed in process, and the next batch tries shared memory
again.  A pool that dies faster than it heals is demoted to in-process
serial execution — bitwise identical, just slow — until its cool-down
passes, so the degradation ladder is ``shm → serial``.
All injection points for the chaos suite live in :mod:`~.faults`.

All pools support the context-manager protocol, ``close()`` is idempotent,
and a :func:`weakref.finalize`-based safety net shuts workers down (and
unlinks shared-memory segments) at garbage collection or interpreter exit
when a caller forgets to close.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import signal
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import (
    ConfigurationError,
    ServingError,
    ServingTimeoutError,
    SpoolIntegrityError,
    WorkerCrashError,
)
from ..utils.validation import check_int_in_range
from . import transport as _transport
from .supervision import PoolSupervisor


#: Bound on each broadcast delivery wait: generous next to any real
#: hygiene job, but finite, so ``close()`` paths cannot hang on a wedged
#: worker.
_BROADCAST_TIMEOUT_S = 30.0


def default_worker_count() -> int:
    """Worker count used when none is requested: the host CPU count."""
    return os.cpu_count() or 1


def _pin_blas_to_one_thread() -> None:
    """Pool-worker initializer: run numpy's OpenBLAS on one thread.

    A pool already runs one worker per core, so an OpenBLAS thread pool in
    every worker oversubscribes the cores: each matmul then waits on its
    own threads while other workers hold the cores.  On a 2-core host, two
    workers each screening ``32 x 4096 x 64`` MCAM shards
    (:meth:`~repro.circuits.MCAMArray.screened_top_k`, ``k=32``) finished
    207-381 calls per 5 s with OpenBLAS's default two threads and 760-835
    with one.  numpy has no thread-count API, so the loaded library is
    found in ``/proc/self/maps`` and its ``blas_cpu_number``, the count
    every BLAS call reads, is set through ctypes.  OpenBLAS's own setter
    (``scipy_openblas_set_num_threads64_``) would first restart the thread
    pool that a fork leaves behind, and the new idle thread spins for about
    0.13 s of CPU per worker start; that added about 80 ms to every
    ``serve_mixed`` set-up on 2 cores.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
        for path in sorted(paths):
            ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number").value = 1
    except (OSError, ValueError):
        # No /proc (not Linux), or an OpenBLAS that does not export its
        # thread count (ctypes raises ValueError): the worker keeps the
        # build's default.
        pass


def _init_worker() -> None:
    """Pool-worker initializer: a fresh resource-tracker lock, one BLAS thread.

    A fork copies every lock in whatever state the parent's other threads
    left it.  :mod:`multiprocessing`'s resource tracker takes one lock on
    each shared-memory create, unlink and attach, so a worker forked while
    another dispatching thread held it would wait forever on its first
    segment attach.  The new worker runs one thread, so a new lock is safe.
    """
    resource_tracker._resource_tracker._lock = threading.RLock()  # type: ignore[attr-defined]
    _pin_blas_to_one_thread()


def _probe_echo(value: Any) -> Any:
    """Trivial round-trip job: the first job every worker's executor gets."""
    return value


def _await_futures(futures: List, timeout: Optional[float] = None, what: str = "batch") -> List:
    """Gather future results in order, translating failures to typed errors.

    The single choke point that turns the two untyped ways a dispatched
    batch can die into the library's typed serving errors: a future that
    does not resolve within the (shared, wall-clock) ``timeout`` raises
    :class:`~repro.exceptions.ServingTimeoutError`, and a broken pool (a
    worker killed mid-batch, or a heal that cancelled this batch's queued
    jobs while healing another's) raises
    :class:`~repro.exceptions.WorkerCrashError` with the executor failure
    chained.  Job-raised exceptions (e.g. a worker surfacing
    :class:`~repro.exceptions.SpoolIntegrityError`) propagate untouched.
    On timeout, still-pending futures are cancelled best-effort; futures
    already running on a hung worker cannot be cancelled — reclaiming
    that worker is the supervisor's job, not this helper's.
    """
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    results = []
    for future in futures:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        try:
            results.append(future.result(remaining))
        except _FuturesTimeout as exc:
            for pending in futures:
                pending.cancel()
            raise ServingTimeoutError(
                f"{what} missed its {float(timeout):.3f}s deadline; a worker is "
                "hung or the pool is overloaded"
            ) from exc
        except (BrokenExecutor, CancelledError) as exc:
            raise WorkerCrashError(f"{what} failed: a worker process died mid-batch") from exc
    return results


def _start_workers(workers: List[ProcessPoolExecutor]) -> None:
    """Start every one-process executor's worker, then every executor's threads.

    An executor starts its worker inside its first ``submit``, just before
    its own manager thread, so executors started one at a time would fork
    each later worker beside the earlier executors' threads.  All workers
    are forked first, as one W-process executor forks its W workers; an
    interpreter without the fork hook forks each on its submit.  Then every
    executor gets one job: its manager thread, which the first submit
    starts, is what sends the worker its shutdown sentinel, and a worker
    whose executor never received a job would outlive ``shutdown()`` and
    block interpreter exit.
    """
    for worker in workers:
        fork = getattr(worker, "_adjust_process_count", None)
        if fork is not None:
            fork()
    for worker in workers:
        worker.submit(_probe_echo, None)


def _shutdown_workers(workers: List[ProcessPoolExecutor]) -> None:
    """Shut every worker down and wait for it (the pool's finalizer)."""
    for worker in workers:
        worker.shutdown(wait=True)


class PersistentProcessPool:
    """Worker processes with one submission queue each, started lazily, kept warm.

    Every worker is a one-process :class:`~concurrent.futures.ProcessPoolExecutor`,
    so a caller can send a job to a chosen worker (:meth:`submit_to`): that
    is how :class:`ProcessShardExecutor` keeps each shard's search table in
    one home worker.  :meth:`map` and :meth:`submit_all` spread jobs over
    all workers round robin, and :meth:`broadcast` runs a message once in
    every live worker.  A dead worker breaks only its own executor; the
    supervisor then terminates and respawns the whole pool.

    Supports ``with`` blocks; :meth:`close` is idempotent and a finalizer
    shuts the workers down at garbage collection or interpreter exit if the
    owner never closed the pool explicitly.

    Workers start through :func:`_init_worker`, which also pins numpy's
    OpenBLAS to one thread (:func:`_pin_blas_to_one_thread`): the pool is
    the parallelism, and BLAS threads on top of it fight the other workers
    for the same cores.  The parent process keeps its own BLAS setting.

    Parameters
    ----------
    num_workers:
        Worker-process count; defaults to the host CPU count.
    """

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is not None:
            num_workers = check_int_in_range(num_workers, "num_workers", minimum=1)
        self.num_workers = num_workers
        self._workers: Optional[List[ProcessPoolExecutor]] = None
        self._finalizer: Optional[weakref.finalize] = None
        #: The worker :meth:`submit_all` hands its next job to.
        self._next_worker = 0
        #: Guards starting, submitting to and tearing down the workers, so a
        #: thread never submits to a worker another thread's heal just shut
        #: down, and two threads never start two pools.
        self._lock = threading.RLock()

    @property
    def effective_workers(self) -> int:
        """Workers the pool runs with (requested count or the CPU count)."""
        return self.num_workers if self.num_workers is not None else default_worker_count()

    @property
    def is_live(self) -> bool:
        """Whether worker processes are currently running."""
        return self._workers is not None

    def _ensure_workers(self) -> List[ProcessPoolExecutor]:
        with self._lock:
            if self._workers is None:
                workers = [
                    ProcessPoolExecutor(max_workers=1, initializer=_init_worker)
                    for _ in range(self.effective_workers)
                ]
                _start_workers(workers)
                self._workers = workers
                # Safety net: shut the workers down when the pool object is
                # garbage collected or the interpreter exits, even if the
                # owner forgot close(); close() triggers the same finalizer.
                self._finalizer = weakref.finalize(self, _shutdown_workers, workers)
            return self._workers

    def _worker_processes(self) -> List[Any]:
        """The live worker processes, over every worker's executor."""
        return [
            process
            for worker in self._workers or ()
            for process in (getattr(worker, "_processes", None) or {}).values()
        ]

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes, sorted (empty when not running)."""
        return sorted(process.pid for process in self._worker_processes())

    def kill_one_worker(self) -> Optional[int]:
        """SIGKILL one live worker (lowest PID); returns the PID or None.

        The crash primitive behind the fault-injection harness and the
        chaos tests: a SIGKILL mid-batch is exactly what an OOM kill looks
        like to the pool.
        """
        pids = self.worker_pids()
        if not pids:
            return None
        pid = pids[0]
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:  # already reaped
            return None
        return pid

    def submit_to(self, worker: int, fn: Callable, job: Any) -> Future:
        """Submit ``fn(job)`` to worker ``worker``'s own queue; returns the future.

        Worker ``w`` (``0 <= w < effective_workers``) is one process for as
        long as the pool lives, so state a job leaves behind there (a
        shard's search table) serves the next job sent to ``w``.  ``fn``
        and ``job`` must be picklable.
        """
        with self._lock:
            workers = self._ensure_workers()
            if not 0 <= worker < len(workers):
                raise ConfigurationError(f"worker must lie in [0, {len(workers)}), got {worker!r}")
            return workers[worker].submit(fn, job)

    def map(self, fn: Callable, jobs: Iterable, timeout: Optional[float] = None) -> List:
        """Apply ``fn`` to every job in worker processes, preserving order.

        ``fn`` and every job must be picklable.  Zero or one job short-cuts
        to an in-process call — the results are identical either way because
        jobs are self-contained.  Jobs are spread over the workers like
        :meth:`submit_all`.  With a ``timeout`` (seconds, covering the whole
        map) a hung worker raises
        :class:`~repro.exceptions.ServingTimeoutError`; a crashed one raises
        :class:`~repro.exceptions.WorkerCrashError` either way.
        """
        job_list = list(jobs)
        if len(job_list) <= 1:
            return [fn(job) for job in job_list]
        futures = self.submit_all(fn, job_list)
        return _await_futures(futures, timeout, what=f"map of {len(job_list)} jobs")

    def submit_all(self, fn: Callable, jobs: Iterable) -> List:
        """Submit ``fn(job)`` for every job, returning the futures in order.

        The non-blocking counterpart of :meth:`map`: jobs go to the workers
        round robin, and the caller collects the futures when it needs the
        results, which is what lets a dispatcher keep several batches in
        flight on the workers at once.  ``fn`` and every job must be
        picklable.  Collect with :func:`_await_futures` (or
        ``future.result(timeout)``) when a hung worker must become a typed
        error instead of a deadlock.
        """
        with self._lock:
            workers = self._ensure_workers()
            futures = []
            for job in jobs:
                futures.append(workers[self._next_worker].submit(fn, job))
                self._next_worker = (self._next_worker + 1) % len(workers)
            return futures

    def broadcast(self, fn: Callable, arg: Any) -> int:
        """Run ``fn(arg)`` once in every live worker, then wait.

        Intended for idempotent housekeeping messages (cache eviction).
        Each worker receives the message through its own queue, so every
        live worker runs it exactly once, after the jobs already sent to
        it.  A worker whose executor is broken or shut down is skipped (its
        caches died with it), and failures are swallowed, never raised,
        because broadcasts run on cleanup paths like ``close()``.  Returns
        the number of workers that ran the message (0 when the pool is not
        running).
        """
        futures = []
        with self._lock:
            for worker in self._workers or ():
                try:
                    futures.append(worker.submit(fn, arg))
                except Exception:  # this worker died or was shut down
                    continue
        delivered = 0
        for future in futures:
            try:
                # Bounded so a hung worker cannot wedge the cleanup paths
                # broadcasts run on; an undelivered hygiene message is fine.
                future.result(_BROADCAST_TIMEOUT_S)
                delivered += 1
            except Exception:  # the worker died; its caches went with it
                continue
        return delivered

    def terminate(self) -> None:
        """Hard-stop every worker now (idempotent; the pool restarts lazily).

        The heal-path counterpart of :meth:`close`: ``close()`` waits for
        workers to finish, which deadlocks on a hung worker — this SIGTERMs
        every worker process after cancelling queued work, then reaps them.
        Pending futures fail with ``BrokenProcessPool``/cancellation; the
        supervisor retries their batches on the respawned pool.
        """
        with self._lock:
            processes = self._worker_processes()
            workers, self._workers = self._workers, None
            finalizer, self._finalizer = self._finalizer, None
            if finalizer is not None:
                finalizer.detach()
            for worker in workers or ():
                with contextlib.suppress(Exception):  # broken mid-shutdown
                    worker.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:
                continue
        for process in processes:
            try:
                process.join(timeout=2.0)
                if process.is_alive():  # ignored SIGTERM: escalate
                    process.kill()
                    process.join(timeout=5.0)
            except Exception:
                continue

    def close(self) -> None:
        """Shut the workers down (idempotent; the pool restarts on next use)."""
        with self._lock:
            finalizer, self._finalizer = self._finalizer, None
            self._workers = None
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "PersistentProcessPool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Worker-resident shard cache
# ----------------------------------------------------------------------
#: Process-global store of shard payloads resident in THIS worker process:
#: ``(searcher_id, shard_index) -> (program_epoch, shard_engine, index_map)``.
#: A worker serves a cached shard only when the job's epoch matches the
#: cached epoch, so reprogramming (which bumps the epoch) can never be
#: answered from stale state.  A worker holds only the shards routed to it
#: (see :meth:`ProcessShardExecutor._home_workers`), and the eviction
#: message of :meth:`ShardedSearcher.close` reaches every live worker
#: (:meth:`PersistentProcessPool.broadcast`).
_WORKER_SHARD_CACHE: "OrderedDict[Tuple[str, int], Tuple[int, Any, np.ndarray]]" = (
    OrderedDict()
)

#: Resident-shard bound per worker process, least recently used out first:
#: generous next to realistic shards-per-searcher counts (a worker rarely
#: serves more than a few searchers x a few shards each).  Closed searchers
#: are evicted exactly; the bound is what frees the shards of a searcher
#: dropped without ``close()``, after 64 other live-shard touches.
_MAX_RESIDENT_SHARDS = 64


def worker_shard_cache_epochs() -> Dict[Tuple[str, int], int]:
    """Epochs of the shards resident in the calling process (introspection)."""
    return {key: entry[0] for key, entry in _WORKER_SHARD_CACHE.items()}


def _evict_searcher_entries(searcher_id: str) -> int:
    """Drop the calling process's cached shards of one searcher."""
    stale = [key for key in _WORKER_SHARD_CACHE if key[0] == searcher_id]
    for key in stale:
        del _WORKER_SHARD_CACHE[key]
    return len(stale)


def _resident_shard(
    searcher_id: str, shard_index: int, epoch: int, path: str
) -> Tuple[Any, np.ndarray]:
    """The worker-resident ``(shard, index_map)`` for one cache key.

    On an epoch match the resident entry serves without touching the spool;
    on a miss the published spool file is checked, memory-mapped and
    loaded, and replaces the cached entry in place.  A corrupt or missing
    spool entry raises :class:`~repro.exceptions.SpoolIntegrityError` —
    typed and recoverable (the parent repairs the spool and retries) —
    instead of crashing the worker on garbage bytes.
    """
    key = (searcher_id, shard_index)
    entry = _WORKER_SHARD_CACHE.get(key)
    if entry is None or entry[0] != epoch:
        shard, index_map = _transport.load_spool_payload(path)
        entry = (epoch, shard, index_map)
        _WORKER_SHARD_CACHE[key] = entry
    _WORKER_SHARD_CACHE.move_to_end(key)
    while len(_WORKER_SHARD_CACHE) > _MAX_RESIDENT_SHARDS:
        _WORKER_SHARD_CACHE.popitem(last=False)
    return entry[1], entry[2]


def _rank_cached_shard_job(job: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Rank one query batch on a resident shard, in the calling process.

    The job carries ``(searcher_id, shard_index, epoch, spool_path,
    shard_rng, queries, shard_k)``.  This is the in-process rung: single-job
    batches, batches that could not use shared memory, and a pool demoted
    to serial run it, bitwise identical to the worker-side
    :func:`_rank_cached_shard_job_shm`.
    """
    searcher_id, shard_index, epoch, path, shard_rng, queries, shard_k = job
    shard, index_map = _resident_shard(searcher_id, shard_index, epoch, path)
    indices, scores = shard._rank_batch(queries, rng=shard_rng, k=shard_k)
    return index_map[indices.astype(np.int64, copy=False)], scores


def _rank_cached_shard_job_shm(job: Any) -> int:
    """Rank one query batch on a worker-resident shard (shared memory).

    The job carries only plain metadata — cache key, spool path, RNG and
    the segment descriptor ``(name, query shape/dtype, result offsets,
    shard_k)``.  Queries are read directly from the mapped segment and the
    globally indexed top-k results are written back in place; nothing but
    this small tuple and the returned shard index crosses the pipes.
    """
    (
        searcher_id,
        shard_index,
        epoch,
        path,
        shard_rng,
        segment_name,
        query_shape,
        query_dtype,
        index_offset,
        score_offset,
        shard_k,
    ) = job
    segment = _transport.attach_segment(segment_name)
    queries = np.ndarray(query_shape, dtype=np.dtype(query_dtype), buffer=segment.buf)
    queries.flags.writeable = False
    shard, index_map = _resident_shard(searcher_id, shard_index, epoch, path)
    indices, scores = shard._rank_batch(queries, rng=shard_rng, k=shard_k)
    shape = (query_shape[0], shard_k)
    out_indices = np.ndarray(
        shape, dtype=np.int64, buffer=segment.buf, offset=index_offset
    )
    out_scores = np.ndarray(
        shape, dtype=np.float64, buffer=segment.buf, offset=score_offset
    )
    out_indices[...] = index_map[indices.astype(np.int64, copy=False)]
    out_scores[...] = scores
    return int(shard_index)


def _rank_cached_shard_group_shm(jobs: Any) -> int:
    """Rank one worker's share of a batch: each job in order, in shared memory.

    A batch sends every worker it uses one group, the jobs of the shards
    routed there, each run by :func:`_rank_cached_shard_job_shm` into its
    own result offsets.  Returns the number of jobs ranked.
    """
    for job in jobs:
        _rank_cached_shard_job_shm(job)
    return len(jobs)


class ProcessShardExecutor:
    """Rank shards in a persistent, supervised worker-process pool.

    The ``"processes"`` strategy of the shard-executor seam.  Programmed
    shards are published to a spool once per program epoch and cached
    worker-resident (see the module docstring), so steady-state query
    batches ship only query payloads, through shared memory; jobs and
    results stay bitwise identical to the ``"serial"`` strategy at any
    worker count because per-shard RNG streams are spawned before
    dispatch and the ranked payloads are self-contained.
    That self-containment is also what makes recovery safe: a crashed or
    hung batch can be replayed on a healed pool, or in process, and produce
    the same bytes.

    Parameters
    ----------
    num_workers:
        Worker-process bound; defaults to the host CPU count.
    dispatch_timeout_s:
        Per-attempt hang detector for supervised cached-rank collects: an
        attempt that has not resolved after this many seconds is treated
        as a hung worker — the pool is healed and the batch retried within
        whatever remains of its overall deadline.  ``None`` (the default)
        disables the detector; a ``timeout`` passed to
        :meth:`submit_cached` (or its collect) still bounds the batch.

    The restart budget is the :class:`~.supervision.PoolSupervisor`'s
    (:attr:`supervisor`): too many heals inside its window demote the
    executor to in-process serial execution until its cool-down passes.

    The pool itself persists across searches — the worker start-up cost is
    paid once per searcher, not per query batch.  Every method is
    thread-safe: a serving scheduler's pump thread, other threads
    dispatching through the same executor, and foreground lifecycle calls
    (``close``/``evict``) may overlap.

    Chaos tests hand the executor a :class:`~.faults.FaultInjector` via the
    :attr:`fault_injector` attribute; production leaves it ``None``.
    """

    name = "processes"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        dispatch_timeout_s: Optional[float] = None,
    ) -> None:
        if not _transport.shared_memory_available():
            raise ConfigurationError(
                "the 'processes' executor moves batches through "
                "multiprocessing.shared_memory, which is unavailable on this "
                "host; use executor='serial'"
            )
        if dispatch_timeout_s is not None and not float(dispatch_timeout_s) > 0:
            raise ConfigurationError(
                f"dispatch_timeout_s must be > 0 or None, got {dispatch_timeout_s!r}"
            )
        self._pool = PersistentProcessPool(num_workers=num_workers)
        self.num_workers = self._pool.num_workers
        self.dispatch_timeout_s = (
            None if dispatch_timeout_s is None else float(dispatch_timeout_s)
        )
        # The supervisor must not keep the executor alive (the GC safety
        # nets rely on refcount death of abandoned executors), so it gets
        # the heal callback through a weak method, never a bound one.
        heal_ref = weakref.WeakMethod(self._heal_pool)

        def _heal_weak() -> None:
            heal = heal_ref()
            if heal is not None:
                heal()

        self._supervisor = PoolSupervisor(_heal_weak)
        #: Chaos-test hook: a :class:`~.faults.FaultInjector` or ``None``.
        self.fault_injector: Any = None
        #: Cold-tenancy hook: a :class:`~repro.storage.tenancy.ColdTenantPool`
        #: (or anything with ``touch(searcher_id)``) notified on every cached
        #: dispatch so serving traffic refreshes LRU recency.
        self.tenant_policy: Any = None
        #: Shared-memory segments of dispatched batches (thread-safe).
        self._ring = _transport.SharedMemoryRing()
        self._spool_dir: Optional[str] = None
        self._spool_finalizer: Optional[weakref.finalize] = None
        #: ``(spool path, payload)`` per published ``(searcher_id,
        #: shard_index)``.  A new epoch's entry replaces (and deletes) the
        #: previous epoch's.  The payload is the recovery source: spool
        #: files outlive a dead worker, but a corrupt or deleted entry is
        #: republished from it.  The shard objects are alive in the owning
        #: searcher anyway, so these references cost no copies.
        self._published: Dict[Tuple[str, int], Tuple[str, Any]] = {}
        #: Serializes publish/evict/close bookkeeping: a scheduler pump
        #: thread publishing epochs must not race a foreground ``close()``
        #: (or two searchers' ``close()`` calls racing each other) over the
        #: published-path table and the spool directory.
        self._lock = threading.Lock()
        #: Routing state per searcher, ``[offset, batches dispatched]``
        #: (see :meth:`_home_workers`), and the offset the next new
        #: searcher gets.  Guarded by its own leaf lock, so a dispatch never
        #: waits on a spool write under ``_lock``.
        self._routes: Dict[str, List[int]] = {}
        self._next_route_offset = 0
        self._route_lock = threading.Lock()

    @property
    def ring_in_flight(self) -> int:
        """Shared-memory segments held by dispatched, uncollected batches."""
        return self._ring.in_use

    @property
    def supervisor(self) -> PoolSupervisor:
        """The restart/demotion policy object (monitoring, chaos tests)."""
        return self._supervisor

    @property
    def active_transport(self) -> str:
        """``"shm"``, or ``"serial"`` while the supervisor has demoted the pool."""
        return "shm" if self._supervisor.pool_allowed else "serial"

    def _fire_fault(self, site: str, segment: Any = None) -> None:
        injector = self.fault_injector
        if injector is not None:
            injector.fire(site, self, segment=segment)

    def _ensure_spool(self) -> str:
        if self._spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-shard-spool-")
            self._spool_dir = spool_dir
            self._spool_finalizer = weakref.finalize(
                self, shutil.rmtree, spool_dir, ignore_errors=True
            )
        return self._spool_dir

    def publish_shard(
        self, searcher_id: str, shard_index: int, payload: Any, epoch: int = 0
    ) -> str:
        """Write one shard's payload to the spool, return its path.

        Called by the sharded searcher once per ``(shard, program epoch)`` —
        not per batch; publishing an epoch again is a no-op.  The payload
        lands in one epoch-named, checksummed spool file (renamed into
        place, so readers never observe a half-written epoch; the previous
        epoch's file is deleted after the swap), and the payload reference
        is retained parent-side so the supervisor can republish a corrupted
        entry during recovery.
        """
        with self._lock:
            stem = os.path.join(
                self._ensure_spool(), f"{searcher_id}-shard{shard_index}"
            )
            key = (searcher_id, shard_index)
            previous = self._published.get(key)
            path = f"{stem}-e{epoch}"
            if previous is not None and previous[0] == path:
                # Another thread dispatching through the same searcher
                # published this epoch first; an epoch names one payload.
                return path
            _transport.write_spool_bundle(path, payload)
            if previous is not None:
                _transport.remove_spool_entry(previous[0])
            self._published[key] = (path, payload)
            return path

    def _repair_spool(self) -> int:
        """Verify every published entry; republish the broken ones.

        Returns how many entries were republished, each from its
        parent-resident payload.  A rewrite keeps the entry's path:
        dispatched job tuples carry it, and retried batches replay those
        same tuples.  The lock makes concurrent repairs of one entry write
        it once.
        """
        repaired = 0
        with self._lock:
            for path, payload in self._published.values():
                if not _transport.verify_spool_entry(path):
                    _transport.write_spool_bundle(path, payload)
                    repaired += 1
        return repaired

    def _heal_pool(self) -> None:
        """Replace the dead pool and repair the spool (supervisor callback).

        Terminates the workers (hard: a hung worker cannot be waited on) and
        verifies/republishes the spool.  The ring needs no reset: every
        batch the dead pool held fails its collect, which unlinks that
        batch's segment.  The pool respawns lazily on the next dispatch;
        workers rebuild their shard caches from the (verified) spool on
        first contact, which is the same cold path as any first batch.
        """
        self._pool.terminate()
        self._repair_spool()

    def submit_cached(
        self, jobs: Iterable, timeout: Optional[float] = None
    ) -> Callable[..., list]:
        """Dispatch cache-keyed shard jobs, keeping the batch in flight.

        Jobs carry ``(searcher_id, shard_index, epoch, spool_path,
        shard_rng, queries, shard_k)``, built against published payloads.
        Every job of one batch carries the same query matrix, as the
        sharded searcher's fan-out does: it is written into a shared-memory
        segment once (a batch that mixes query matrices raises
        :class:`~repro.exceptions.ServingError`) and the per-shard jobs are
        submitted to the workers.  The returned ``collect(timeout=None)``
        blocks until every shard finished and yields one ``(indices,
        scores)`` pair of ordinary arrays per job.  The batch holds its
        segment until that collect has copied the results out, so any
        number of batches, dispatched from any threads, may be in flight at
        once and be collected in any order.  Call each collect once.

        **Deadlines and recovery.**  ``timeout`` (here, or passed to the
        collect, which wins) is the batch's total wall-clock budget.  The
        collect supervises the dispatch: a crashed worker, a hang past
        ``dispatch_timeout_s`` or a corrupt spool entry triggers an
        in-place heal (pool restart / spool repair) and **one** replay of
        the idempotent jobs — bitwise identical to an undisturbed run —
        within the remaining budget.  A batch whose segment cannot be
        allocated, or that a worker finds gone, replays in process instead.
        A second failure (or an exhausted budget) raises
        :class:`~repro.exceptions.WorkerCrashError` /
        :class:`~repro.exceptions.ServingTimeoutError` /
        :class:`~repro.exceptions.SpoolIntegrityError`; the pool is healed
        behind the raise, so the *next* batch finds working workers.
        """
        job_list = list(jobs)
        policy = self.tenant_policy
        if policy is not None and job_list:
            # Serving traffic refreshes cold-tenancy LRU recency; the hook
            # is outside this executor's lock (policy lock orders first).
            policy.touch(job_list[0][0])
        default_timeout = timeout
        if len(job_list) <= 1:
            # No pipe is crossed for a single job; ranking in process also
            # populates the parent-resident cache (see evict()).
            results = [_rank_cached_shard_job(job) for job in job_list]

            def collect_ready(timeout: Optional[float] = None) -> list:
                return results

            return collect_ready
        queries = job_list[0][5]
        if any(job[5] is not queries for job in job_list[1:]):
            raise ServingError(
                "every job of one batch must carry the same query matrix: it "
                "is written to shared memory once for all shards"
            )
        if not self._supervisor.pool_allowed:
            return self._submit_cached_serial(job_list)
        self._fire_fault("dispatch")
        observed = self._supervisor.generation
        try:
            inner = self._dispatch_cached(job_list)
        except BrokenExecutor:
            # The pool was already broken at submit time (a worker died
            # between batches).  Heal once and re-dispatch; a pool too
            # broken to accept work twice is a crash, not a retry loop.
            observed = self._supervisor.ensure_healed(observed)
            if not self._supervisor.pool_allowed:
                return self._submit_cached_serial(job_list)
            try:
                inner = self._dispatch_cached(job_list)
            except BrokenExecutor as exc:
                raise WorkerCrashError(
                    "worker pool broke dispatching a batch, then again after a restart"
                ) from exc
        if inner is None:
            return self._submit_cached_serial(job_list)
        dispatched = inner

        def collect(timeout: Optional[float] = default_timeout) -> list:
            return self._collect_with_recovery(dispatched, job_list, observed, timeout)

        return collect

    def _submit_cached_serial(self, jobs: list) -> Callable[..., list]:
        """In-process execution: the rung below the worker pool.

        Used while the supervisor has demoted the pool (restarts exceeded
        the budget) and for a batch that could not get or keep its
        shared-memory segment.  Jobs run in the parent at collect time with
        the same ranking function, so results stay bitwise identical — the
        service degrades in throughput, not in answers or availability.
        A corrupt spool entry is republished from the parent payload and
        the batch replayed once before failing typed.  Neither use records
        a pool success.
        """

        def collect(timeout: Optional[float] = None) -> list:
            try:
                return [_rank_cached_shard_job(job) for job in jobs]
            except SpoolIntegrityError:
                if self._repair_spool() == 0:
                    raise
                return [_rank_cached_shard_job(job) for job in jobs]

        return collect

    def _home_workers(self, jobs: list) -> List[int]:
        """The worker each job of one multi-shard batch runs on.

        With ``W`` workers and a searcher of ``S`` shards, ``W <= S`` puts
        shard ``s`` on worker ``(offset + s) mod W`` for every batch, so
        each worker builds and keeps the search tables of its own shards
        only.  With ``W > S`` the searcher's consecutive batches take turns
        over ``W // S`` disjoint sets of ``S`` workers, so two batches in
        flight still use every worker, and a shard is resident in
        ``W // S`` of them.  Each searcher gets the next ``offset`` on its
        first batch, so searchers sharing an executor do not all put their
        shard 0 on worker 0.
        """
        workers = self._pool.effective_workers
        searcher_id = jobs[0][0]
        with self._route_lock:
            route = self._routes.get(searcher_id)
            if route is None:
                route = self._routes[searcher_id] = [self._next_route_offset, 0]
                self._next_route_offset += 1
            offset, batch = route
            route[1] = batch + 1
        shards = len(jobs)
        base = offset + (batch % max(1, workers // shards)) * shards
        return [(base + job[1]) % workers for job in jobs]

    def _dispatch_cached(self, jobs: list) -> Optional[Callable[..., list]]:
        """Submit one multi-job batch through shared memory.

        Each worker the batch is routed to (:meth:`_home_workers`) gets one
        job, the group of its shards' jobs.  Returns a raw
        ``collect(timeout)``, or ``None`` when no segment can be allocated
        (an exhausted ``/dev/shm``), in which case the caller ranks the
        batch in process.  The collect copies every shard's results out of
        the segment and then returns the segment to the ring; a failed
        batch's segment is unlinked instead, because one of its workers may
        still write into it.  Pool failures become typed errors (see
        :func:`_await_futures`), but the collect does not itself retry —
        recovery lives one layer up.
        """
        layout = _transport.ShardBatchLayout(jobs[0][5], [job[6] for job in jobs])
        ring = self._ring
        try:
            segment = ring.acquire(layout.total_bytes)
        except OSError:
            return None
        groups: Dict[int, list] = {}
        for position, (worker, job) in enumerate(zip(self._home_workers(jobs), jobs)):
            searcher_id, shard_index, epoch, path, shard_rng, _queries, shard_k = job
            groups.setdefault(worker, []).append(
                (
                    searcher_id,
                    shard_index,
                    epoch,
                    path,
                    shard_rng,
                    segment.name,
                    layout.queries.shape,
                    layout.queries.dtype.str,
                    layout.index_offsets[position],
                    layout.score_offsets[position],
                    shard_k,
                )
            )
        try:
            layout.write_queries(segment)
            self._fire_fault("segment", segment=segment)
            futures = [
                self._pool.submit_to(worker, _rank_cached_shard_group_shm, group)
                for worker, group in groups.items()
            ]
        except BaseException:
            ring.discard(segment)
            raise
        held = [segment]

        def collect(timeout: Optional[float] = None) -> list:
            if not held:
                raise ServingError("a dispatched batch can be collected only once")
            held.clear()
            try:
                _await_futures(futures, timeout, what="shared-memory batch")
                results = []
                for position in range(len(jobs)):
                    indices, scores = layout.result_views(segment, position)
                    results.append((indices.copy(), scores.copy()))
            except BaseException:
                ring.discard(segment)
                raise
            if not ring.release(segment):
                raise ServingError("the executor was closed while the batch was in flight")
            return results

        return collect

    def _attempt_budget(self, deadline: Optional[float]) -> Optional[float]:
        """Per-attempt timeout: min(hang detector, remaining overall budget)."""
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        if self.dispatch_timeout_s is None:
            return remaining
        if remaining is None:
            return self.dispatch_timeout_s
        return min(self.dispatch_timeout_s, remaining)

    def _classify_and_heal(self, exc: BaseException, observed_generation: int) -> None:
        """Run the recovery matching one dispatch failure.

        * corrupt/missing spool entry → verify + republish the spool (the
          workers are alive; they raised cleanly),
        * a worker-side ``OSError`` (a lost shm segment: failed attach) →
          nothing to heal: the failed collect already unlinked the segment,
        * anything else (crash, hang, broken pool) → supervisor heal:
          terminate + respawn the pool, verify the spool.
        """
        if isinstance(exc, SpoolIntegrityError):
            self._repair_spool()
        elif not isinstance(exc, OSError):
            self._supervisor.ensure_healed(observed_generation)

    def _collect_with_recovery(
        self,
        collect: Callable[..., list],
        jobs: list,
        observed_generation: int,
        timeout: Optional[float],
    ) -> list:
        """Await one dispatched batch, healing and replaying once on failure."""
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        self._fire_fault("collect")
        try:
            results = collect(timeout=self._attempt_budget(deadline))
        except (ServingTimeoutError, WorkerCrashError, SpoolIntegrityError, OSError) as exc:
            return self._retry_once(jobs, observed_generation, deadline, exc)
        self._supervisor.record_success()
        return results

    def _retry_once(
        self,
        jobs: list,
        observed_generation: int,
        deadline: Optional[float],
        exc: BaseException,
    ) -> list:
        """Heal, then replay the idempotent batch once within its budget.

        A lost segment and a demoted pool replay in process; every other
        failure replays on the healed pool.
        """
        self._classify_and_heal(exc, observed_generation)
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise ServingTimeoutError(
                "batch deadline exhausted before the retry on the healed "
                f"pool could run (first failure: {exc})"
            ) from exc
        in_process = self._submit_cached_serial(jobs)
        if isinstance(exc, OSError) or not self._supervisor.pool_allowed:
            # In process: bitwise identical, but NOT a pool success —
            # recording one here would lift a demotion that was just
            # imposed and send the next batch straight back to a pool that
            # dies faster than it heals.
            return in_process()
        generation = self._supervisor.generation
        try:
            retry_collect = self._dispatch_cached(jobs)
            if retry_collect is None:
                return in_process()
            results = retry_collect(timeout=remaining)
        except (ServingError, OSError, BrokenExecutor) as retry_exc:
            # Heal once more behind the raise so the NEXT batch finds a
            # working pool, then fail this one cleanly and typed.
            self._classify_and_heal(retry_exc, generation)
            if isinstance(retry_exc, (BrokenExecutor, OSError)):
                raise WorkerCrashError(
                    f"batch replay failed again after recovery: {retry_exc!r}"
                ) from retry_exc
            raise
        self._supervisor.record_success()
        return results

    def evict(self, searcher_id: str, broadcast: bool = True) -> None:
        """Drop cached shards of one (closed) searcher from worker caches.

        The calling process's entries — populated whenever a batch ranked
        in process — are dropped synchronously; with ``broadcast=True`` an
        eviction message additionally runs once in every live worker of
        the pool, after the batches already sent to it (see
        :meth:`PersistentProcessPool.broadcast`), so no worker keeps the
        searcher's shards.  Correctness never depends on eviction —
        epoch-keyed lookups already ignore stale entries — it keeps
        long-running shared pools from accumulating dead searchers'
        shards.  The searcher's routing is forgotten too.
        """
        _evict_searcher_entries(searcher_id)
        with self._route_lock:
            self._routes.pop(searcher_id, None)
        with self._lock:
            # Snapshot-and-pop under the lock: a scheduler and a searcher
            # closing the same serving stack from different threads may both
            # reach here, and concurrent ``close()`` clears the table — a
            # key snapshotted by one caller can legitimately be gone by the
            # time it pops it.
            stale = [
                self._published.pop(key)[0]
                for key in list(self._published)
                if key[0] == searcher_id
            ]
        for path in stale:
            _transport.remove_spool_entry(path)
        if broadcast:
            self._pool.broadcast(_evict_searcher_entries, searcher_id)

    def close(self) -> None:
        """Shut workers down, unlink segments and drop the spool (idempotent).

        Safe to call more than once and from more than one owner — a
        serving scheduler tearing down its stack and a ``with`` block (or
        finalizer) closing the searcher both reach the shared executor, in
        either order.
        """
        self._pool.close()
        with self._route_lock:
            self._routes.clear()
        with self._lock:
            self._published.clear()
            finalizer, self._spool_finalizer = self._spool_finalizer, None
            self._spool_dir = None
        self._ring.close()
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False
