"""Sharded multi-array execution: exact top-k search over fixed-capacity shards.

One physical CAM array holds a bounded number of rows, so serving a store
larger than one array means partitioning the entries across N arrays and
merging per-array results.  :class:`ShardedSearcher` does exactly that at the
search-engine level: it wraps any
:class:`~repro.core.search.NearestNeighborSearcher` factory, partitions the
fitted store into contiguous shards (a fixed shard count, or fixed-geometry
tiles of ``max_rows_per_array`` rows), fits one engine per shard, and merges
per-shard top-k candidates into the exact global top-k with the same stable
tie-breaking the unsharded engines use.  For the deterministic (ideal
sensing) engines the merged results are **bitwise identical** to the wrapped
backend searching one unbounded array.

Per-shard ranking is dispatched through a pluggable executor strategy:

* ``"serial"`` — shards are ranked one after another in the calling thread,
* ``"threads"`` — shards are ranked concurrently in a thread pool.  The
  heavy per-shard work is NumPy ufunc/BLAS kernels that release the GIL, so
  threads scale on multi-core hosts without any pickling cost,
* ``"processes"`` — shards are ranked in a persistent worker-process pool
  (:class:`~repro.runtime.process_pool.ProcessShardExecutor`), sidestepping
  the GIL entirely; on hosts with POSIX shared memory the query/result
  payloads travel through a zero-copy shared-memory ring instead of pickle.

Additional strategies (e.g. an async gateway) can be plugged in through
:func:`register_shard_executor`.  Shard jobs are self-contained module-level
callables, so any executor — in-thread, pooled or cross-process — produces
bitwise-identical results.

Two serving-oriented extensions ride on the executor seam:

* executors exposing ``publish_shard`` and ``submit_cached`` (the
  ``"processes"`` strategy) receive each programmed shard **once per
  program epoch** — published through ``publish_shard`` and cached
  worker-resident — so steady-state query batches ship only query payloads
  through ``submit_cached``; every other executor ranks self-contained
  shard jobs through ``map``, and
* :meth:`ShardedSearcher.append` grows a fitted store live (with
  ``appendable=True``): new rows route to the least-full shard, the touched
  engines refit through the arrays' delta-reprogramming path, and the
  served results stay bitwise identical to a from-scratch refit.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..circuits.tiles import partition_rows, split_rows_evenly
from ..exceptions import SearchError
from ..utils.rng import SeedLike, ensure_rng, spawn_rngs
from ..utils.validation import check_feature_matrix, check_int_in_range
from .search import NearestNeighborSearcher, _stable_smallest_k

#: Factory signature for shard engines: a fresh searcher, built either with
#: no arguments or — for factories marked ``shard_aware = True`` — with the
#: shard index as the single positional argument.
ShardFactory = Callable[..., NearestNeighborSearcher]


class SerialShardExecutor:
    """Run per-shard jobs one after another in the calling thread."""

    name = "serial"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        # Accepted for interface uniformity; serial execution has no pool.
        self.num_workers = num_workers

    def map(self, fn: Callable[..., Any], jobs: Iterable) -> list:
        """Apply ``fn`` to every job, in order."""
        return [fn(job) for job in jobs]

    def close(self) -> None:
        """Nothing to release (idempotent)."""

    def __enter__(self) -> "SerialShardExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


class ThreadedShardExecutor:
    """Run per-shard jobs concurrently in a lazily created thread pool.

    Per-shard ranking is dominated by NumPy kernels that release the GIL
    (elementwise ufuncs, reductions, BLAS), so a thread pool parallelizes
    shards across cores without serializing the query batch.

    Parameters
    ----------
    num_workers:
        Thread count; defaults to the host CPU count.
    """

    name = "threads"

    #: Worker-thread name prefix; subclasses (e.g. the trial runner) override.
    _thread_name_prefix = "repro-shard"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is not None:
            num_workers = check_int_in_range(num_workers, "num_workers", minimum=1)
        self.num_workers = num_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self.num_workers if self.num_workers is not None else os.cpu_count() or 1
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=self._thread_name_prefix
            )
            self._pool = pool
            # Safety net: shut the pool down at garbage collection or
            # interpreter exit when a caller forgets close().
            self._finalizer = weakref.finalize(self, pool.shutdown, wait=True)
        return self._pool

    def map(self, fn: Callable[..., Any], jobs: Iterable) -> list:
        """Apply ``fn`` to every job concurrently, preserving job order."""
        job_list = list(jobs)
        if len(job_list) <= 1:
            return [fn(job) for job in job_list]
        return list(self._ensure_pool().map(fn, job_list))

    def close(self) -> None:
        """Shut the thread pool down (idempotent; re-created on next use)."""
        finalizer, self._finalizer = self._finalizer, None
        self._pool = None
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "ThreadedShardExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


#: Registry of executor strategies by name.
SHARD_EXECUTORS: Dict[str, Callable[..., object]] = {
    "serial": SerialShardExecutor,
    "threads": ThreadedShardExecutor,
}


def register_shard_executor(name: str, factory: Callable[..., object]) -> None:
    """Register an executor strategy under ``name``.

    ``factory`` is called as ``factory(num_workers=...)`` and must return an
    object with ``map(fn, jobs)`` (order-preserving) and ``close()``.  For
    cross-process executors, ``fn`` and every job are guaranteed picklable.
    """
    key = name.lower()
    if key in SHARD_EXECUTORS:
        raise SearchError(f"shard executor {name!r} is already registered")
    SHARD_EXECUTORS[key] = factory


def resolve_shard_executor(name: str) -> Callable[..., object]:
    """Look up an executor factory, loading the runtime extras on demand.

    The ``"processes"`` executor lives in :mod:`repro.runtime`, which
    registers itself on import; resolving through this helper makes the name
    available without callers having to import the runtime package first.
    """
    try:
        key = name.lower()
    except AttributeError:
        raise SearchError(f"executor must be a string, got {type(name).__name__}") from None
    if key not in SHARD_EXECUTORS:
        from .. import runtime  # noqa: F401  — registers the process executor

    try:
        return SHARD_EXECUTORS[key]
    except KeyError:
        raise SearchError(
            f"unknown shard executor {name!r}; available: "
            f"{', '.join(sorted(SHARD_EXECUTORS))}"
        ) from None


def available_shard_executors() -> Tuple[str, ...]:
    """Names of all shard executor strategies, including runtime extras."""
    from .. import runtime  # noqa: F401  — registers the process executor

    return tuple(sorted(SHARD_EXECUTORS))


def _rank_shard_job(job: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Rank one shard for one query batch (self-contained executor job).

    Module-level (rather than a closure) so process-pool executors can ship
    it to workers; the job tuple carries everything the ranking needs.  The
    index map translates shard-local row numbers to global store indices —
    an identity-offset ``arange`` after a plain fit, arbitrary global rows
    once live appends have routed entries to non-contiguous shards.
    """
    shard, index_map, shard_rng, queries, k = job
    shard_k = min(k, shard.num_entries)
    indices, scores = shard._rank_batch(queries, rng=shard_rng, k=shard_k)
    return index_map[indices.astype(np.int64, copy=False)], scores


def merge_shard_topk(
    candidate_scores: np.ndarray, candidate_indices: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard top-k candidates into exact global top-k, vectorized.

    Parameters
    ----------
    candidate_scores / candidate_indices:
        ``(num_queries, num_candidates)`` arrays pooling every shard's local
        top-k, with indices already translated to global row numbers.
    k:
        Global neighbor count to keep per query.

    Returns
    -------
    (indices, scores):
        ``(num_queries, k)`` arrays holding, per query, the ``k``
        lexicographically smallest ``(score, global_index)`` pairs — i.e.
        scores ascending with ties broken toward the lower global row index,
        exactly matching the stable ranking of an unsharded engine.

    Notes
    -----
    Within each shard, candidates arrive sorted by score; across shards they
    are merely grouped.  Re-ordering every query's candidate row by global
    index first makes the positional tie-breaking of the stable top-k
    selector coincide with global-index tie-breaking, which is what the
    unsharded stable argsort produces.
    """
    if candidate_scores.shape != candidate_indices.shape or candidate_scores.ndim != 2:
        raise SearchError(
            f"candidate scores and indices must share a 2-D shape, got "
            f"{candidate_scores.shape} and {candidate_indices.shape}"
        )
    num_candidates = candidate_scores.shape[1]
    if not 1 <= k <= num_candidates:
        raise SearchError(f"k must lie in [1, {num_candidates}], got {k}")
    by_index = np.argsort(candidate_indices, axis=1, kind="stable")
    scores = np.take_along_axis(candidate_scores, by_index, axis=1)
    indices = np.take_along_axis(candidate_indices, by_index, axis=1)
    top = _stable_smallest_k(scores, k)
    return (
        np.take_along_axis(indices, top, axis=1),
        np.take_along_axis(scores, top, axis=1),
    )


class ShardedSearcher(NearestNeighborSearcher):
    """Exact nearest-neighbor search over multiple fixed-capacity shards.

    Wraps any registered backend: :meth:`fit` partitions the store into
    contiguous shards, builds one engine per shard from ``searcher_factory``
    (calibrating each on the *full* store so data-dependent preprocessing
    matches the unsharded engine), and queries fan out to every shard whose
    local top-k candidates are merged into the exact global top-k.

    Parameters
    ----------
    searcher_factory:
        Callable returning a fresh
        :class:`~repro.core.search.NearestNeighborSearcher`.  It is called
        with no arguments (identically configured engines for every shard)
        unless it carries a truthy ``shard_aware`` attribute, in which case
        it receives the shard index — letting it seed per-array randomness
        (e.g. device variation) independently per shard while shard 0
        reproduces the unsharded engine.
        :func:`~repro.core.search.make_searcher` arranges exactly that
        automatically.
    num_shards:
        Fixed shard count; entries are split as evenly as possible and shard
        counts exceeding the store size collapse to one entry per shard.
        Defaults to 2 when neither ``num_shards`` nor ``max_rows_per_array``
        is given.
    max_rows_per_array:
        Fixed tile capacity; the shard count follows from the store size
        (``ceil(num_entries / max_rows_per_array)``).  Mutually exclusive
        with ``num_shards``.
    executor:
        Per-shard execution strategy: ``"serial"``, ``"threads"`` or
        ``"processes"`` (or any name added via
        :func:`register_shard_executor`).  Alternatively an already
        constructed executor *instance* (anything exposing ``map`` and
        ``close``), which the searcher then **shares** rather than owns:
        several searchers can serve from one long-running worker pool, and
        :meth:`close` evicts this searcher's worker-cached shards without
        shutting the shared pool down.
    num_workers:
        Worker bound for pooled executors; defaults to the host CPU count.
        Applies only when ``executor`` is given by name — a shared instance
        is configured by whoever built it.
    appendable:
        When True the searcher retains its fitted store so :meth:`append`
        can grow it live: new rows route to the least-full shard (opening a
        fresh fixed-geometry tile only when every existing one is full) and
        each touched shard refits through the engines' delta-reprogramming
        path.  Served results stay bitwise identical to a from-scratch refit
        of the combined store for the deterministic engines.
    """

    #: Monotonic source of searcher identities used to key worker-resident
    #: shard caches; combined with the parent PID so ids never collide.
    _instance_ids = itertools.count()

    def __init__(
        self,
        searcher_factory: ShardFactory,
        num_shards: Optional[int] = None,
        max_rows_per_array: Optional[int] = None,
        executor: Any = "serial",
        num_workers: Optional[int] = None,
        appendable: bool = False,
    ) -> None:
        super().__init__()
        if not callable(searcher_factory):
            raise SearchError("searcher_factory must be a zero-argument callable")
        if num_shards is not None and max_rows_per_array is not None:
            raise SearchError(
                "pass either num_shards or max_rows_per_array, not both; the shard "
                "count follows from the tile capacity when max_rows_per_array is given"
            )
        if num_shards is not None:
            num_shards = check_int_in_range(num_shards, "num_shards", minimum=1)
        if max_rows_per_array is not None:
            max_rows_per_array = check_int_in_range(
                max_rows_per_array, "max_rows_per_array", minimum=1
            )
        if num_shards is None and max_rows_per_array is None:
            num_shards = 2
        self.searcher_factory = searcher_factory
        self._factory_takes_index = bool(getattr(searcher_factory, "shard_aware", False))
        self.requested_shards = num_shards
        self.max_rows_per_array = max_rows_per_array
        self.appendable = bool(appendable)
        self._executor: Any
        if isinstance(executor, str):
            executor_factory = resolve_shard_executor(executor)
            self.executor_name = executor.lower()
            self._executor = executor_factory(num_workers=num_workers)
            self._owns_executor = True
        else:
            # A shared executor instance: several searchers serve from one
            # long-running pool; close() must not shut it down.
            if num_workers is not None:
                raise SearchError(
                    "num_workers applies only when the executor is given by "
                    "name; configure the shared executor instance directly"
                )
            if not callable(getattr(executor, "map", None)) or not callable(
                getattr(executor, "close", None)
            ):
                raise SearchError(
                    "executor must be a registered strategy name or an object "
                    "with map(fn, jobs) and close()"
                )
            self.executor_name = str(getattr(executor, "name", type(executor).__name__))
            self._executor = executor
            self._owns_executor = False
        self._shards: List[NearestNeighborSearcher] = []
        #: Per-shard global row indices (``index_map[local] -> global``).
        self._index_maps: List[np.ndarray] = []
        #: Per-shard program epochs: bumped every time a shard's programmed
        #: contents change, never reused, so worker-resident caches can tell
        #: stale state from current state.
        self._shard_epochs: List[int] = []
        self._epoch_counter = 0
        #: Epoch/path bookkeeping of shards published to a caching executor.
        self._published_epochs: Dict[int, int] = {}
        self._published_paths: Dict[int, str] = {}
        self._searcher_id = f"{os.getpid()}-{next(self._instance_ids)}"
        #: Full fitted store, retained only for appendable searchers.
        self._store_features: Optional[np.ndarray] = None
        self._store_labels: Optional[np.ndarray] = None
        #: Durability wiring (see :meth:`enable_durability`): the write-ahead
        #: append journal, the sequence number of the last acknowledged
        #: append, the default storage directory, and the in-flight
        #: background journal checkpoint.
        self._journal: Optional[Any] = None
        self._append_seq = 0
        self._storage_dir: Optional[str] = None
        self._checkpoint_thread: Optional[threading.Thread] = None
        self._checkpoint_error: Optional[BaseException] = None
        #: Serializes state mutation (fit/append/restore/hibernate) against
        #: snapshot capture: an append lands either wholly before a snapshot
        #: — covered by its ``applied_seq`` and truncated from the journal —
        #: or wholly after it — replayed from the journal on restore — and a
        #: shard engine is never pickled mid-mutation.
        self._state_lock = threading.RLock()
        #: Optional :class:`~repro.runtime.faults.FaultInjector` fired at
        #: the storage tier's ``"journal"`` / ``"snapshot"`` sites.
        self.storage_fault_injector: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of non-empty shards after :meth:`fit` (0 before)."""
        return len(self._shards)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Entries stored per shard, in global row order."""
        return tuple(shard.num_entries for shard in self._shards)

    @property
    def shard_searchers(self) -> Tuple[NearestNeighborSearcher, ...]:
        """The per-shard engines (available after :meth:`fit`)."""
        return tuple(self._shards)

    def close(self) -> None:
        """Release executor resources (idempotent).

        Owned worker pools shut down (they restart lazily on the next
        search); a **shared** executor instance stays up, but an eviction
        message drops this searcher's worker-resident shards so long-running
        pools do not accumulate dead state (see
        :meth:`~repro.runtime.process_pool.ProcessShardExecutor.evict`).
        Published worker-cache entries are forgotten either way, so a
        post-close search republishes into a fresh spool.
        """
        self._published_epochs.clear()
        self._published_paths.clear()
        evict = getattr(self._executor, "evict", None)
        if evict is not None:
            # Owned pools are about to shut down, so only the in-process
            # entries need purging; shared pools get the broadcast.
            evict(self._searcher_id, broadcast=not self._owns_executor)
        if self._owns_executor:
            self._executor.close()
        thread, self._checkpoint_thread = self._checkpoint_thread, None
        if thread is not None:
            thread.join()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "ShardedSearcher":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _partition(self, num_entries: int) -> Any:
        if self.max_rows_per_array is not None:
            return partition_rows(num_entries, self.max_rows_per_array)
        return split_rows_evenly(num_entries, self.requested_shards)

    def _build_shard(self, index: int) -> NearestNeighborSearcher:
        if self._factory_takes_index:
            shard = self.searcher_factory(index)
        else:
            shard = self.searcher_factory()
        if not isinstance(shard, NearestNeighborSearcher):
            raise SearchError(
                "searcher_factory must return a NearestNeighborSearcher, got "
                f"{type(shard).__name__}"
            )
        return shard

    def _next_epoch(self) -> int:
        """A fresh, never-reused program epoch for one shard."""
        self._epoch_counter += 1
        return self._epoch_counter

    def _fit(self, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        with self._state_lock:
            self._fit_locked(features, labels)

    def _fit_locked(self, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        spans = self._partition(features.shape[0])
        if len(self._shards) != len(spans):
            # Refits with an unchanged partition count (the episodic
            # workload) reprogram the existing shard engines in place —
            # same amortization the unsharded engines get from searcher
            # reuse — instead of rebuilding N engines per fit.
            self._shards = [self._build_shard(index) for index in range(len(spans))]
            self._shard_epochs = [0] * len(spans)
        self._index_maps = [
            np.arange(start, stop, dtype=np.int64) for start, stop in spans
        ]
        calibrated: Optional[NearestNeighborSearcher] = None
        for index, (shard, (start, stop)) in enumerate(zip(self._shards, spans)):
            # Calibrate on the FULL store so quantizers/encoders match the
            # unsharded engine bitwise; the first shard pays the full-store
            # pass and its siblings adopt the frozen state.
            if calibrated is None or not shard.adopt_calibration(calibrated):
                shard.calibrate(features)
                calibrated = shard
            shard_labels = None if labels is None else labels[start:stop]
            shard.fit(features[start:stop], shard_labels)
            self._shard_epochs[index] = self._next_epoch()
        if self.appendable:
            self._store_features = features.copy()
            self._store_labels = None if labels is None else np.asarray(labels).copy()

    # ------------------------------------------------------------------
    # Live ingestion
    # ------------------------------------------------------------------
    def _route_appended_rows(self, num_new: int, full_features: np.ndarray) -> List[int]:
        """Assign new global rows to the least-full shards, growing the geometry.

        Rows are routed one at a time to the smallest open shard (ties break
        toward the lower shard index); in fixed-geometry mode a fresh tile is
        opened — calibrated like its siblings — once every existing tile is
        full.  Returns the indices of the shards that received rows.
        """
        capacity = self.max_rows_per_array
        sizes = [index_map.shape[0] for index_map in self._index_maps]
        routed: Dict[int, List[int]] = {}
        next_global = self._num_entries
        for _ in range(num_new):
            open_shards = [
                index
                for index, size in enumerate(sizes)
                if capacity is None or size < capacity
            ]
            if open_shards:
                target = min(open_shards, key=lambda index: (sizes[index], index))
            else:
                # Every fixed-geometry tile is full: open a fresh one.
                target = len(self._shards)
                shard = self._build_shard(target)
                if not shard.adopt_calibration(self._shards[0]):
                    shard.calibrate(full_features)
                self._shards.append(shard)
                self._shard_epochs.append(0)
                self._index_maps.append(np.empty(0, dtype=np.int64))
                sizes.append(0)
            routed.setdefault(target, []).append(next_global)
            sizes[target] += 1
            next_global += 1
        # One concatenation per touched shard keeps a bulk append linear in
        # the appended row count instead of copying the growing map per row.
        for target, new_globals in routed.items():
            self._index_maps[target] = np.concatenate(
                [self._index_maps[target], np.asarray(new_globals, dtype=np.int64)]
            )
        return list(routed)

    def append(self, features: Any, labels: Any = None) -> "ShardedSearcher":
        """Grow the fitted store in place (live ingestion).

        New rows receive the next global indices, route to the least-full
        shard and program through the engines' delta-reprogramming path;
        shards that received no rows are refit only when the grown store
        shifts the frozen calibration state (detected via
        :meth:`~repro.core.search.NearestNeighborSearcher.calibration_token`),
        in which case delta reprogramming still skips every row whose stored
        representation did not change.  For the deterministic engines the
        results served afterwards are **bitwise identical** to a
        from-scratch refit of the combined store.

        Appending to an empty (never fitted) searcher is exactly a
        :meth:`fit`.  Requires ``appendable=True``.
        """
        if not self.appendable:
            raise SearchError(
                "this searcher does not retain its store for live appends; "
                "construct it with appendable=True "
                "(e.g. make_searcher(..., appendable=True))"
            )
        if not self._shards:
            return self.fit(features, labels)
        features = check_feature_matrix(features, "features")
        if features.shape[1] != self._num_features:
            raise SearchError(
                f"appended rows have {features.shape[1]} features, "
                f"expected {self._num_features}"
            )
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape[0] != features.shape[0]:
                raise SearchError(
                    f"got {labels.shape[0]} labels for {features.shape[0]} entries"
                )
        if (self._store_labels is None) != (labels is None):
            raise SearchError(
                "appended rows must be labeled exactly like the fitted store"
            )
        with self._state_lock:
            if self._journal is not None:
                # Acknowledge-before-route: the rows are fsync'd to the journal
                # before any shard mutates, so once append() returns the caller
                # holds a durable acknowledgement that survives kill -9.
                self._journal.record(self._append_seq + 1, features, labels)
            # The sequence advances even without a journal: snapshots stamp
            # it as applied_seq, which lets the executor's disk-restore rung
            # tell a snapshot that still matches this searcher from one
            # taken before later acknowledged appends.
            self._append_seq += 1
            self._apply_append(features, labels)
        self._note_append_seq()
        return self

    def _apply_append(
        self, features: np.ndarray, labels: Optional[np.ndarray]
    ) -> "ShardedSearcher":
        """Route validated rows into the shards (also the journal replay path)."""
        store_features = self._store_features
        store_labels = self._store_labels
        if store_features is None:
            raise SearchError("appendable searcher lost its retained store")
        full_features = np.concatenate([store_features, features], axis=0)
        full_labels = (
            None
            if labels is None or store_labels is None
            else np.concatenate([store_labels, labels], axis=0)
        )
        # Re-freeze data-dependent preprocessing on the grown store.  The
        # token comparison below detects whether that moved the frozen state
        # (e.g. a quantizer range extended by an out-of-range row): if it
        # did, every shard's stored representation must be re-derived.
        token_before = self._shards[0].calibration_token()
        calibrated: Optional[NearestNeighborSearcher] = None
        for shard in self._shards:
            if calibrated is None or not shard.adopt_calibration(calibrated):
                shard.calibrate(full_features)
                calibrated = shard
        token_after = self._shards[0].calibration_token()
        # An engine that implements data-dependent calibration but reports no
        # token (a third-party backend without calibration_token) gives us no
        # way to prove untouched shards are still valid — refit everything
        # rather than risk serving stale representations.
        calibration_opaque = token_after is None and (
            type(self._shards[0])._calibrate is not NearestNeighborSearcher._calibrate
        )
        recalibrated = token_after != token_before or calibration_opaque
        received = self._route_appended_rows(features.shape[0], full_features)
        self._store_features = full_features
        self._store_labels = full_labels
        self._labels = full_labels
        self._num_entries = full_features.shape[0]
        for index, shard in enumerate(self._shards):
            if not recalibrated and index not in received:
                continue
            rows = self._index_maps[index]
            shard_labels = None if full_labels is None else full_labels[rows]
            shard.fit(full_features[rows], shard_labels)
            self._shard_epochs[index] = self._next_epoch()
        return self

    # ------------------------------------------------------------------
    # Durability (see repro.storage)
    # ------------------------------------------------------------------
    def enable_durability(self, directory: Any, fsync: bool = True) -> "ShardedSearcher":
        """Attach a write-ahead append journal and default snapshot directory.

        Once enabled, every acknowledged :meth:`append` is recorded
        (framed, checksummed, fsync'd) in ``<directory>/journal.wal``
        *before* any row routes to a shard, and :meth:`snapshot` /
        :meth:`restore` default to ``directory``.  Call :meth:`snapshot`
        after the initial :meth:`fit` to establish the recovery base; the
        journal covers appends, not fits.  ``fsync=False`` trades the
        zero-acknowledged-loss guarantee for append latency.
        """
        from ..storage.journal import AppendJournal
        from ..storage.snapshot import JOURNAL_NAME

        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        self._storage_dir = directory
        if self._journal is not None:
            self._journal.close()
        journal = AppendJournal(os.path.join(directory, JOURNAL_NAME), fsync=fsync)
        journal.fault_injector = self.storage_fault_injector
        self._journal = journal
        # Safety net: release the journal's file handle at garbage
        # collection when a caller drops the searcher without close().
        weakref.finalize(self, journal.close)
        return self

    def _require_storage_dir(self, directory: Optional[Any]) -> str:
        if directory is not None:
            return os.fspath(directory)
        if self._storage_dir is None:
            raise SearchError(
                "no storage directory: pass one explicitly or call "
                "enable_durability(directory) first"
            )
        return self._storage_dir

    def snapshot(self, directory: Optional[Any] = None) -> str:
        """Persist the fitted state as a crash-safe snapshot generation.

        Returns the generation directory.  Concurrent :meth:`append` calls
        serialize against the capture — each lands either wholly before it
        (covered by the recorded ``applied_seq``) or wholly after it
        (replayed from the journal on restore), so the generation is one
        consistent cut of ``(applied_seq, shard states)``.  When the
        snapshot lands in the durability directory, the journal is
        checkpointed in the background — records the snapshot now covers
        are truncated away — and the executor (if it supports warm
        restart) is pointed at the snapshot as this searcher's restore
        source.
        """
        from ..storage.snapshot import write_snapshot

        directory = self._require_storage_dir(directory)
        self._require_fitted()
        with self._state_lock:
            applied_seq = self._append_seq
            path = write_snapshot(
                self,
                directory,
                applied_seq=applied_seq,
                fault_injector=self.storage_fault_injector,
            )
        if self._journal is not None and directory == self._storage_dir:
            self._checkpoint_journal(applied_seq)
        self._attach_restore_source(directory, applied_seq)
        return path

    def restore(self, directory: Optional[Any] = None) -> "ShardedSearcher":
        """Rebuild the fitted state from the last snapshot plus the journal.

        Loads and fully verifies the snapshot, installs its shards under
        **fresh** program epochs (worker-resident caches keyed on old
        epochs can never alias restored state), then replays every journal
        record newer than the snapshot's ``applied_seq`` through the exact
        append path — so the restored searcher is bitwise identical to one
        that never crashed, with zero acknowledged-append loss.  A torn
        journal tail is truncated; corruption raises
        :class:`~repro.exceptions.SnapshotIntegrityError`.
        """
        from ..storage.journal import read_journal
        from ..storage.snapshot import JOURNAL_NAME, load_snapshot

        directory = self._require_storage_dir(directory)
        # A background checkpoint still rewriting journal.wal must finish
        # before the replay reads (and possibly repair-truncates) that file.
        thread, self._checkpoint_thread = self._checkpoint_thread, None
        if thread is not None:
            thread.join()
        state = load_snapshot(directory)
        manifest = state.manifest
        if self.appendable and state.features is None:
            raise SearchError(
                f"snapshot at {directory} was taken from a non-appendable "
                f"searcher and retains no store; it cannot restore into an "
                f"appendable one"
            )
        with self._state_lock:
            self._evict_published()
            # Never reuse an epoch the live bookkeeping may already have
            # issued: advance past both the manifest's counter and our own,
            # then stamp every restored shard with a fresh epoch.
            self._epoch_counter = max(self._epoch_counter, int(manifest["epoch_counter"]))
            self._shards = [engine for engine, _ in state.shards]
            self._index_maps = [index_map for _, index_map in state.shards]
            self._shard_epochs = [self._next_epoch() for _ in self._shards]
            self._num_entries = int(manifest["num_entries"])
            self._num_features = int(manifest["num_features"])
            self._labels = state.labels
            if self.appendable:
                self._store_features = state.features
                self._store_labels = state.labels
            self._append_seq = int(manifest["applied_seq"])
            journal_path = os.path.join(directory, JOURNAL_NAME)
            journal = self._journal
            if journal is not None and os.path.abspath(journal.path) == os.path.abspath(
                journal_path
            ):
                # Read/repair through the live journal's own lock so the
                # truncation cannot interleave with a concurrent record()
                # or checkpoint() rewriting the same file.
                records, _ = journal.replay(repair=True)
            else:
                records, _ = read_journal(journal_path, repair=True)
            for record in records:
                if record.seq <= self._append_seq:
                    continue  # idempotent replay: the snapshot already covers it
                if not self.appendable:
                    raise SearchError(
                        f"journal at {journal_path} holds appends but this "
                        f"searcher is not appendable; construct it with "
                        f"appendable=True to replay them"
                    )
                self._apply_append(record.features, record.labels)
                self._append_seq = record.seq
            applied_seq = self._append_seq
        self._attach_restore_source(directory, applied_seq)
        return self

    def hibernate(self, directory: Optional[Any] = None) -> str:
        """Snapshot to disk, then release the in-memory fitted state.

        The eviction half of cold tenancy: after hibernating, the searcher
        holds no shard engines, no retained store and no worker-resident
        spools — only the configuration needed to :meth:`restore` — so its
        memory footprint collapses to the object shell.  Searching before
        a restore raises :class:`~repro.exceptions.SearchError`.
        """
        with self._state_lock:
            path = self.snapshot(directory)
            self._evict_published()
            self._shards = []
            self._index_maps = []
            self._shard_epochs = []
            self._store_features = None
            self._store_labels = None
            self._labels = None
        return path

    def _evict_published(self) -> None:
        """Drop published worker-cache state so stale spools cannot serve."""
        if self._published_paths:
            evict = getattr(self._executor, "evict", None)
            if evict is not None:
                evict(self._searcher_id, broadcast=True)
        self._published_epochs.clear()
        self._published_paths.clear()

    @property
    def checkpoint_error(self) -> Optional[BaseException]:
        """Failure of the last background journal checkpoint (None: healthy).

        A recorded failure is raised out of the next :meth:`snapshot` call
        instead of vanishing with its daemon thread.
        """
        return self._checkpoint_error

    def _checkpoint_journal(self, applied_seq: int) -> None:
        """Truncate journaled appends the snapshot covers, off-thread.

        The previous checkpoint (if any) is joined first; a failure it
        recorded — e.g. :class:`~repro.exceptions.SnapshotIntegrityError`
        from a corrupt frame — re-raises here rather than disappearing to
        the daemon thread's stderr.
        """
        journal = self._journal
        if journal is None:
            return
        prior, self._checkpoint_thread = self._checkpoint_thread, None
        if prior is not None:
            prior.join()
        error, self._checkpoint_error = self._checkpoint_error, None
        if error is not None:
            raise error

        def run() -> None:
            try:
                journal.checkpoint(applied_seq)
            except BaseException as exc:  # surfaced on the next snapshot
                self._checkpoint_error = exc

        thread = threading.Thread(
            target=run, name="repro-journal-checkpoint", daemon=True
        )
        self._checkpoint_thread = thread
        thread.start()

    def _attach_restore_source(self, directory: str, applied_seq: int) -> None:
        """Register ``directory`` as this searcher's disk restore source.

        ``applied_seq`` tells the executor which append the snapshot covers
        up to, so its disk-restore rung can refuse a generation that later
        acknowledged appends have made stale.
        """
        attach = getattr(self._executor, "attach_restore_source", None)
        if attach is not None:
            try:
                attach(self._searcher_id, directory, applied_seq=applied_seq)
            except TypeError:
                # Third-party executors may predate the applied_seq
                # parameter; staleness then goes untracked on their rung.
                attach(self._searcher_id, directory)

    def _note_append_seq(self) -> None:
        """Tell the executor how far past any snapshot this searcher is.

        The executor's disk-restore rung must never republish a shard from
        a snapshot generation older than the last acknowledged append —
        this hook is how it learns the current sequence.
        """
        note = getattr(self._executor, "note_append_seq", None)
        if note is not None:
            note(self._searcher_id, self._append_seq)

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def _cached_shard_jobs(self, shard_rngs: Any, queries: np.ndarray, k: int) -> list:
        """Jobs for a worker-caching executor: payloads ship once per epoch.

        Shards whose program epoch moved since the last publication are
        re-published through the executor (one spool write per epoch, not
        per batch); every job then carries only the cache key —
        ``(searcher_id, shard_index, epoch)`` — the published payload's
        location, the query batch and the shard's candidate count
        ``shard_k = min(k, shard rows)``, so warm workers serve from their
        resident copies and a zero-copy transport can pre-size the result
        blocks.
        """
        jobs = []
        for index, shard_rng in enumerate(shard_rngs):
            epoch = self._shard_epochs[index]
            if self._published_epochs.get(index) != epoch:
                self._published_paths[index] = self._executor.publish_shard(
                    self._searcher_id,
                    index,
                    (self._shards[index], self._index_maps[index]),
                    epoch=epoch,
                )
                self._published_epochs[index] = epoch
            jobs.append(
                (
                    self._searcher_id,
                    index,
                    epoch,
                    self._published_paths[index],
                    shard_rng,
                    queries,
                    min(k, self._shards[index].num_entries),
                )
            )
        return jobs

    def _merge_shard_results(self, results: Any, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pool per-shard candidates and merge them into exact global top-k.

        ``np.concatenate`` copies, so shared-memory result views are
        consumed here — the merged arrays never alias a ring segment.
        """
        candidate_indices = np.concatenate([indices for indices, _ in results], axis=1)
        candidate_scores = np.concatenate([scores for _, scores in results], axis=1)
        return merge_shard_topk(candidate_scores, candidate_indices, k)

    def _rank_batch(
        self, queries: np.ndarray, rng: np.random.Generator, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self._submit_rank_batch(queries, rng, k)()

    def _submit_rank_batch(
        self, queries: np.ndarray, rng: np.random.Generator, k: int
    ) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
        """Dispatch one batch, returning a ``collect(timeout=None)`` callable.

        Executors exposing ``submit_cached`` (the ``"processes"`` strategy)
        get cache-keyed jobs against the shards they received through
        ``publish_shard``, and keep the dispatched batch **in flight**:
        workers rank it while the caller is free to demultiplex the previous
        batch or write the next one, and ``collect()`` blocks only until
        this batch's shards are merged — or, with a ``timeout`` (seconds),
        until the executor's supervised collect resolves, retries, or fails
        the batch with a typed serving error.  Every other executor ranks
        self-contained jobs through ``map``, eagerly, and hands back a
        completed collector (whose ``timeout`` is vacuous — the result
        already exists), so :meth:`_rank_batch` behaves identically either
        way.
        """
        if not self._shards:
            raise SearchError("sharded searcher must be fitted before searching")
        if len(self._shards) == 1:
            indices, scores = self._shards[0]._rank_batch(queries, rng=rng, k=k)
            result = (
                self._index_maps[0][indices.astype(np.int64, copy=False)],
                scores,
            )
            return lambda timeout=None: result
        # Independent per-shard streams: stochastic engines stay deterministic
        # under any executor because no generator is shared across workers.
        shard_rngs = spawn_rngs(rng, len(self._shards))
        submit = getattr(self._executor, "submit_cached", None)
        if submit is not None:
            pending = submit(self._cached_shard_jobs(shard_rngs, queries, k))

            def collect(timeout: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
                try:
                    results = pending(timeout=timeout)
                except TypeError:
                    # Third-party executors may expose a zero-argument
                    # collect; deadlines then bound only admission.
                    results = pending()
                return self._merge_shard_results(results, k)

            return collect
        jobs = [
            (shard, index_map, shard_rng, queries, k)
            for shard, index_map, shard_rng in zip(self._shards, self._index_maps, shard_rngs)
        ]
        results = self._executor.map(_rank_shard_job, jobs)
        merged = self._merge_shard_results(results, k)
        return lambda timeout=None: merged

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def serving_depth(self) -> Optional[int]:
        """Batches the executor can keep in flight at once (None: unbounded).

        Mirrors the executor's ``dispatch_depth`` — for the shared-memory
        transport that is the ring depth, since a ring slot may only be
        rewritten after the batch occupying it has been collected.  The
        micro-batching scheduler caps its ``max_in_flight`` at this value.
        """
        return getattr(self._executor, "dispatch_depth", None)

    @property
    def serving_channel(self) -> Any:
        """The dispatch channel this searcher's serving batches travel on.

        Searchers sharing one executor *instance* (several tenants on one
        long-running worker pool) share its shared-memory ring, so their
        in-flight batches compete for the same ring slots.  A multi-lane
        scheduler uses this identity to recognize lanes that share a
        channel: the total in-flight bound and the FIFO collect order are
        per channel, not per searcher.
        """
        return self._executor

    def submit_serving(
        self, queries: Any, k: int = 1, rng: SeedLike = None
    ) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
        """Dispatch one coalesced batch and keep it in flight until collected.

        The sharded serving entry point: returns a ``collect(timeout=None)``
        whose result is the ``(indices, scores)`` pair of
        :meth:`kneighbors_arrays`.  On the ``"processes"`` executor the
        batch travels through the shared-memory ring and stays in flight —
        worker processes rank it while the caller demultiplexes earlier
        batches — bounded by :attr:`serving_depth`; a ``timeout`` passed to
        the collect bounds the batch in wall-clock seconds, failing it with
        a typed serving error (after the executor's supervised heal/retry)
        instead of blocking forever.  Collect order must follow submit
        order (FIFO), which is what keeps ring-slot reuse safe; the
        micro-batching scheduler enforces exactly that.
        """
        self._require_fitted()
        k = check_int_in_range(k, "k", minimum=1, maximum=self._num_entries)
        queries = self._check_query_batch(queries)
        if queries.shape[0] == 0:
            empty = (np.empty((0, k), dtype=np.int64), np.empty((0, k)))
            return lambda timeout=None: empty
        return self._submit_rank_batch(queries, ensure_rng(rng), k)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedSearcher(shards={self.num_shards or self.requested_shards}, "
            f"max_rows_per_array={self.max_rows_per_array}, executor={self.executor_name!r})"
        )
