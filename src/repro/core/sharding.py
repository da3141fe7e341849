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

Per-shard ranking runs on one of two executor strategies:

* ``"serial"`` — shards are ranked one after another in the calling thread
  (the reference path),
* ``"processes"`` — shards are ranked in a persistent worker-process pool
  (:class:`~repro.runtime.process_pool.ProcessShardExecutor`); the
  query/result payloads travel through a zero-copy shared-memory ring.

Any other executor plugs in as an instance passed to :class:`ShardedSearcher`.
Shard jobs are self-contained module-level callables, so every executor
produces bitwise-identical results.

Two serving-oriented extensions ride on the executor seam:

* executors exposing ``publish_shard`` and ``submit_cached`` (the
  ``"processes"`` strategy) receive each programmed shard **once per
  program epoch** — published through ``publish_shard`` (one
  memory-mapped, checksummed spool file per shard epoch) and cached
  worker-resident — so steady-state query batches ship only query payloads
  through ``submit_cached``; every other executor ranks self-contained
  shard jobs through ``map``, and
* :meth:`ShardedSearcher.append` grows a fitted store live (with
  ``appendable=True``): new rows route to the least-full shard.  Rows inside
  the frozen calibration program only themselves, into only the shards that
  receive them — O(appended rows), like writing one row of a physical MCAM;
  other rows recalibrate and refit through the arrays' delta-reprogramming
  path.  Either way the served results stay bitwise identical to a
  from-scratch refit.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..circuits.tiles import partition_rows, split_rows_evenly
from ..exceptions import SearchError
from ..utils.growth import append_rows
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


#: The shard executor strategies :func:`resolve_shard_executor` knows.
_SHARD_EXECUTOR_NAMES = ("processes", "serial")


def resolve_shard_executor(name: str) -> Callable[..., object]:
    """The executor class behind a strategy name, ``"serial"`` or ``"processes"``.

    ``"processes"`` lives in :mod:`repro.runtime`, which is imported only
    when that name is asked for.  Any other executor plugs in as an
    instance (see :class:`ShardedSearcher`), not by name.
    """
    try:
        key = name.lower()
    except AttributeError:
        raise SearchError(f"executor must be a string, got {type(name).__name__}") from None
    if key == "serial":
        return SerialShardExecutor
    if key == "processes":
        from ..runtime.process_pool import ProcessShardExecutor

        return ProcessShardExecutor
    raise SearchError(
        f"unknown shard executor {name!r}; available: {', '.join(_SHARD_EXECUTOR_NAMES)}"
    )


def available_shard_executors() -> Tuple[str, ...]:
    """Names of the shard executor strategies, sorted."""
    return _SHARD_EXECUTOR_NAMES


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
        Per-shard execution strategy: ``"serial"`` or ``"processes"``.
        Alternatively an already constructed executor *instance*, which the
        searcher then **shares** rather than owns: several searchers can
        serve from one long-running worker pool, and :meth:`close` evicts
        this searcher's worker-cached shards without shutting the shared
        pool down.  An instance needs ``close()`` and either
        ``publish_shard`` with ``submit_cached`` (whose collect takes
        ``timeout``) or ``map(fn, jobs)`` (order-preserving); the searcher
        also calls ``evict`` when present.
    num_workers:
        Worker bound for pooled executors; defaults to the host CPU count.
        Applies only when ``executor`` is given by name — a shared instance
        is configured by whoever built it.
    appendable:
        When True the searcher retains its fitted store so :meth:`append`
        can grow it live: new rows route to the least-full shard (opening a
        fresh fixed-geometry tile only when every existing one is full) and
        program into it alone when they lie inside the frozen calibration;
        otherwise each touched shard refits through the engines'
        delta-reprogramming path.  Served results stay bitwise identical to
        a from-scratch refit of the combined store for the deterministic
        engines.
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
            ranks = callable(getattr(executor, "submit_cached", None)) or callable(
                getattr(executor, "map", None)
            )
            if not ranks or not callable(getattr(executor, "close", None)):
                raise SearchError(
                    "executor must be 'serial', 'processes' or an object "
                    "with close() and either submit_cached(jobs) or map(fn, jobs)"
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
        #: Growth buffers of the retained store ("features", "labels"; see
        #: :func:`~repro.utils.growth.append_rows`).  Fit, restore and
        #: hibernate release them.
        self._store_spare: Dict[str, np.ndarray] = {}
        #: Durability wiring (see :meth:`enable_durability`): the write-ahead
        #: append journal, the sequence number of the last acknowledged
        #: append, and the default storage directory.
        self._journal: Optional[Any] = None
        self._append_seq = 0
        self._storage_dir: Optional[str] = None
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
                shard._calibrate(features)
                calibrated = shard
            shard_labels = None if labels is None else labels[start:stop]
            shard._fit_checked(features[start:stop], shard_labels)
            self._shard_epochs[index] = self._next_epoch()
        if self.appendable:
            self._store_features = features.copy()
            self._store_labels = None if labels is None else np.asarray(labels).copy()
            self._store_spare = {}

    # ------------------------------------------------------------------
    # Live ingestion
    # ------------------------------------------------------------------
    def _route_appended_rows(self, num_new: int, full_features: np.ndarray) -> Dict[int, List[int]]:
        """Assign new global rows to the least-full shards, growing the geometry.

        Rows are routed one at a time to the smallest open shard (ties break
        toward the lower shard index); in fixed-geometry mode a fresh tile is
        opened — calibrated like its siblings — once every existing tile is
        full.  Returns the new global rows of every shard that received any,
        keyed by shard index.
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
        return routed

    def append(self, features: Any, labels: Any = None) -> "ShardedSearcher":
        """Grow the fitted store in place (live ingestion).

        New rows receive the next global indices and route to the
        least-full shard.  Rows that lie inside the frozen calibration
        (:meth:`~repro.core.search.NearestNeighborSearcher.calibration_covers`)
        leave it as it is: only the receiving shards change, and engines
        that support it
        (:meth:`~repro.core.search.NearestNeighborSearcher._extend_fit`, the
        MCAM) quantize and program just the new rows, so such an append
        costs O(appended rows).  Other rows recalibrate on the grown store;
        every shard is then refit when that shifts the frozen calibration
        state (detected via
        :meth:`~repro.core.search.NearestNeighborSearcher.calibration_token`),
        with delta reprogramming still skipping every row whose stored
        representation did not change.  For the deterministic engines the
        results served afterwards are **bitwise identical** to a
        from-scratch refit of the combined store either way.

        Appending to an empty (never fitted) searcher is exactly a
        :meth:`fit`, unless a journal is attached: the journal covers
        appends, not fits, so the rows could not be recovered, and the call
        raises :class:`~repro.exceptions.SearchError` instead (fit and
        snapshot first).  Requires ``appendable=True``.
        """
        if not self.appendable:
            raise SearchError(
                "this searcher does not retain its store for live appends; "
                "construct it with appendable=True "
                "(e.g. make_searcher(..., appendable=True))"
            )
        if not self._shards:
            if self._journal is not None:
                raise SearchError(
                    "cannot journal an append to a searcher with no fitted store: "
                    "the journal covers appends, not fits; fit and snapshot first"
                )
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
            # Snapshots stamp the sequence as applied_seq, and a restore
            # replays only the journal records after it.
            self._append_seq += 1
            self._apply_append(features, labels)
        return self

    def _apply_append(
        self, features: np.ndarray, labels: Optional[np.ndarray]
    ) -> "ShardedSearcher":
        """Route validated rows into the shards (also the journal replay path).

        The shards share one calibration, so the first shard answers
        ``calibration_covers`` for all new rows at once.  Covered rows skip
        the full-store recalibration, and each receiving shard is offered
        just its new rows through ``_extend_fit`` (refitting its slice when
        the engine declines).  The retained store grows into spare capacity
        instead of being copied.
        """
        if self._store_features is None:
            raise SearchError("appendable searcher lost its retained store")
        covered = self._shards[0].calibration_covers(features)
        spare = self._store_spare
        full_features, spare["features"] = append_rows(
            self._store_features, spare.get("features"), features
        )
        full_labels: Optional[np.ndarray] = None
        if labels is not None and self._store_labels is not None:
            full_labels, spare["labels"] = append_rows(
                self._store_labels, spare.get("labels"), labels
            )
        recalibrated = not covered and self._recalibrate(full_features)
        routed = self._route_appended_rows(features.shape[0], full_features)
        self._store_features = full_features
        self._store_labels = full_labels
        self._labels = full_labels
        self._num_entries = full_features.shape[0]
        for index, shard in enumerate(self._shards):
            fresh = routed.get(index)
            if fresh is None and not recalibrated:
                continue
            # Covered rows never recalibrate, so here the shard received rows.
            if not (
                covered
                and shard._extend_fit(
                    full_features[fresh], None if full_labels is None else full_labels[fresh]
                )
            ):
                rows = self._index_maps[index]
                shard_labels = None if full_labels is None else full_labels[rows]
                shard._fit_checked(full_features[rows], shard_labels)
            self._shard_epochs[index] = self._next_epoch()
        return self

    def _recalibrate(self, full_features: np.ndarray) -> bool:
        """Re-freeze every shard's calibration on the grown store; True if it moved.

        The token comparison detects whether the grown store moved the
        frozen state (e.g. a quantizer range extended by an out-of-range
        row): if it did, every shard's stored representation must be
        re-derived.
        """
        token_before = self._shards[0].calibration_token()
        calibrated: Optional[NearestNeighborSearcher] = None
        for shard in self._shards:
            if calibrated is None or not shard.adopt_calibration(calibrated):
                shard._calibrate(full_features)
                calibrated = shard
        token_after = self._shards[0].calibration_token()
        # An engine that implements data-dependent calibration but reports no
        # token (a third-party backend without calibration_token) gives us no
        # way to prove untouched shards are still valid — refit everything
        # rather than risk serving stale representations.
        calibration_opaque = token_after is None and (
            type(self._shards[0])._calibrate is not NearestNeighborSearcher._calibrate
        )
        return bool(token_after != token_before) or calibration_opaque

    # ------------------------------------------------------------------
    # Durability (see repro.storage)
    # ------------------------------------------------------------------
    def enable_durability(self, directory: Any) -> "ShardedSearcher":
        """Attach a write-ahead append journal and default snapshot directory.

        Once enabled, every acknowledged :meth:`append` is recorded
        (framed, checksummed, fsync'd) in ``<directory>/journal.wal``
        *before* any row routes to a shard, and :meth:`snapshot` /
        :meth:`restore` default to ``directory``.  Call :meth:`snapshot`
        after the initial :meth:`fit` to establish the recovery base; the
        journal covers appends, not fits.
        """
        from ..storage.journal import AppendJournal
        from ..storage.snapshot import JOURNAL_NAME

        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        self._storage_dir = directory
        if self._journal is not None:
            self._journal.close()
        journal = AppendJournal(os.path.join(directory, JOURNAL_NAME))
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
        snapshot lands in the durability directory, the journal is then
        checkpointed — records the snapshot covers are truncated away.  A
        failed checkpoint raises from here; the generation stays committed,
        and the journal keeps the records it covers, which a restore
        skips.
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
            self._journal.checkpoint(applied_seq)
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
                self._store_spare = {}
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
            self._store_spare = {}
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

        Every executor hands back arrays the caller owns (the
        ``"processes"`` executor copies its results out of shared memory
        before it reuses a segment), so the merge may run at any time.
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
                return self._merge_shard_results(pending(timeout=timeout), k)

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
    def submit_serving(
        self, queries: Any, k: int = 1, rng: SeedLike = None
    ) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
        """Dispatch one coalesced batch and keep it in flight until collected.

        The sharded serving entry point: returns a ``collect(timeout=None)``
        whose result is the ``(indices, scores)`` pair of
        :meth:`kneighbors_arrays`.  On the ``"processes"`` executor the
        batch travels through the shared-memory ring and stays in flight —
        worker processes rank it while the caller demultiplexes earlier
        batches; a ``timeout`` passed to the collect bounds the batch in
        wall-clock seconds, failing it with a typed serving error (after
        the executor's supervised heal/retry) instead of blocking forever.
        Each batch holds its own segment, so any number of threads may
        dispatch and collect, in any order; call each collect once.
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
