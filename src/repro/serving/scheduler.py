"""Async micro-batching scheduler: many concurrent clients, one hot engine.

A fitted searcher ranks a coalesced query matrix far cheaper than the same
queries dispatched one at a time — per-dispatch overhead (executor fan-out,
worker pipes, kernel dispatch) amortizes across the batch while every
batched kernel evaluates query rows independently.  The serving problem is
that real traffic arrives as *single* queries from many concurrent clients,
not as ready-made batches.  :class:`MicroBatchScheduler` closes that gap:

* **Ingestion** — clients submit single queries (or small batches) from any
  thread via :meth:`~MicroBatchScheduler.submit`, or from asyncio code via
  ``await scheduler.search(query, k)``.  Both return per-query results.
* **Coalescing** — a dedicated pump thread gathers pending requests into
  micro-batches under a ``max_batch`` / delay-window policy: a batch is
  flushed as soon as it is full, or when the oldest pending query has
  waited out the flush window.  The window is **arrival-rate adaptive**
  (see below), and queries with different ``k`` coalesce into one batch:
  the batch is ranked once at ``max(k)`` and each client's rows are sliced
  at demultiplex time — **bitwise identical** to per-``k`` dispatch,
  because every engine's stable ranking makes the top-``k`` prefix of a
  deeper ranking exact (:func:`repro.core.search.slice_topk`).  A flush
  takes ``min(pending, max_batch)`` queries, so batch shapes depend only
  on the queue.
* **Adaptive flush windows** — a fixed ``max_delay_us`` wastes latency at
  low arrival rates (a lone query waits the whole window for batch-mates
  that never come) and is irrelevant at high rates (batches fill first).
  Each lane therefore tracks an EWMA of inter-arrival times and of
  batch-fill fraction and adapts its effective window inside
  ``[min_delay_us, max_delay_us]``: the window shrinks multiplicatively
  when batches fill before it expires or when the observed inter-arrival
  time says no batch-mate will arrive inside it, grows back toward the
  ``max_delay_us`` cap while deadline flushes are still attracting
  batch-mates, and is additionally clamped to the predicted time to fill a
  batch (``inter_arrival_ewma * (max_batch - 1)``).  A fixed window is
  ``min_delay_us == max_delay_us``: the controller then has no room to
  move.
* **Per-tenant fair lanes** — one scheduler can serve several named lanes
  (:meth:`~MicroBatchScheduler.add_lane`), each with its own searcher
  (tenants sharing one executor/worker pool), weight, bounded queue and
  adaptive window.  The pump dispatches across lanes by **deficit round
  robin** over the in-flight slots: each visit tops a backlogged
  lane's deficit up by ``weight * max_batch`` query credits and the lane
  dispatches while its credits last, so under saturation the measured
  dispatch share converges to the configured weights.  Admission control
  is per lane — one tenant's overload fast-fails *that lane's* clients
  with :class:`~repro.exceptions.ServingOverloadError` and cannot evict
  another lane's latency budget.
* **Dispatch** — coalesced batches go through the searcher's
  ``submit_serving`` seam.  On the sharded ``"processes"`` executor that
  path keeps up to ``max_in_flight`` batches **in flight** on the
  shared-memory ring.  Two threads share the work: the pump gathers and
  dispatches, and never waits on a collect, while the collector thread
  collects and demultiplexes the oldest in-flight batch.  Worker
  processes therefore rank batch *N+1* while batch *N* is collected and
  its clients resubmit.  The collector takes batches in dispatch order
  across all lanes; each batch holds its own ring segment, so that order
  is the scheduler's choice, not a safety requirement.
* **Demultiplexing** — per-query top-k rows are sliced out of the batch
  result and delivered to each awaiting future as a
  :class:`~repro.core.search.QueryResult`.  Coalescing is a transport
  concern, never a semantic one: every delivered row is **bitwise
  identical** to calling ``kneighbors_batch`` with that query alone (the
  deterministic engines' batched kernels are row-independent).
* **Backpressure** — every lane's pending queue is bounded; once full, new
  submissions to that lane fast-fail with
  :class:`~repro.exceptions.ServingOverloadError` instead of queueing into
  unbounded latency.  :class:`ServingStats` counts everything and keeps a
  ring buffer of recent request latencies, so operators observe the same
  p50/p95/p99 the load generators report.

Lifecycle: ``with`` support, an idempotent
:meth:`~MicroBatchScheduler.close` that **drains** — pending and in-flight
queries are served, not dropped — and a :func:`weakref.finalize` safety net
(the pump and collector threads reference only the internal engine, so an
abandoned scheduler is collectable and its finalizer drains both).

The scheduler does not own its searchers: close the searchers (and their
executor) after the scheduler, the usual nesting of ``with`` blocks.  Other
threads may keep dispatching through the same searchers and executor while
the scheduler serves.
"""

from __future__ import annotations

import asyncio
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.search import QueryResult, slice_topk
from ..exceptions import (
    ConfigurationError,
    SearchError,
    ServingError,
    ServingOverloadError,
    ServingTimeoutError,
)
from ..utils.validation import check_int_in_range

#: EWMA smoothing of the per-lane inter-arrival and batch-fill estimates.
_EWMA_ALPHA = 0.2
#: Multiplicative window controller steps: halve on evidence the window is
#: wasted (batches fill early, or no batch-mate arrives inside it), grow by
#: half while deadline flushes still attract batch-mates.
_WINDOW_SHRINK = 0.5
_WINDOW_GROW = 1.5
#: DRR safety valve: the quantum top-up loop provably terminates (every
#: full rotation raises every ready lane's deficit), this merely bounds it.
_DRR_MAX_VISITS = 100_000


class ServingStats:
    """Thread-safe counters of one scheduler's serving activity.

    Attributes (all monotonic since construction):

    * ``enqueued`` — requests admitted to a pending queue,
    * ``rejected`` — requests fast-failed by per-lane admission control,
    * ``cancelled`` — requests whose future was cancelled before dispatch,
    * ``completed`` — requests delivered a result,
    * ``failed`` — requests delivered an exception (of any type),
    * ``timeouts`` — the subset of ``failed`` delivered a
      :class:`~repro.exceptions.ServingTimeoutError` (missed deadlines),
    * ``batches`` — micro-batches dispatched,
    * ``coalesced`` — queries that shared their dispatch with at least one
      other query (i.e. rode in a batch of size >= 2),
    * ``mixed_k`` — dispatched batches that coalesced queries with more
      than one distinct ``k`` (ranked once at ``max(k)``),
    * ``batch_shapes`` — histogram ``{batch_size: count}`` of dispatched
      batch shapes.

    :meth:`snapshot` also reports ``trimmed``, which is always 0: a flush
    takes ``min(pending, max_batch)`` queries and is never trimmed.

    A bounded ring buffer additionally holds the last ``latency_window``
    delivered-request latencies (submission to delivered result,
    milliseconds); :meth:`latency_percentiles` and :meth:`snapshot` expose
    p50/p95/p99 over it, so the adaptive controller, operators and the
    load generators all observe the same numbers.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        latency_window = check_int_in_range(
            latency_window, "latency_window", minimum=1
        )
        self._lock = threading.Lock()
        self.enqueued = 0
        self.rejected = 0
        self.cancelled = 0
        self.completed = 0
        self.failed = 0
        self.timeouts = 0
        self.batches = 0
        self.coalesced = 0
        self.mixed_k = 0
        self.batch_shapes: Dict[int, int] = {}
        self._latencies_ms: "deque[float]" = deque(maxlen=latency_window)

    def bump(self, **deltas: int) -> None:
        """Add ``deltas`` to the named counters (thread-safe)."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def record_batch(self, size: int, mixed: bool = False) -> None:
        """Account one dispatched micro-batch of ``size`` queries."""
        with self._lock:
            self.batches += 1
            if size > 1:
                self.coalesced += size
            if mixed:
                self.mixed_k += 1
            self.batch_shapes[size] = self.batch_shapes.get(size, 0) + 1

    def record_latency(self, latency_ms: float) -> None:
        """Append one delivered request's latency to the ring buffer."""
        with self._lock:
            self._latencies_ms.append(float(latency_ms))

    def _percentiles_locked(self) -> Dict[str, float]:
        window = len(self._latencies_ms)
        if not window:
            nan = float("nan")
            return {"p50": nan, "p95": nan, "p99": nan, "window": 0}
        latencies = np.asarray(self._latencies_ms, dtype=np.float64)
        p50, p95, p99 = np.percentile(latencies, (50.0, 95.0, 99.0))
        return {
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "window": window,
        }

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 (ms) over the latency ring buffer, plus its fill."""
        with self._lock:
            return self._percentiles_locked()

    def snapshot(self) -> dict:
        """A consistent copy of every counter."""
        with self._lock:
            return {
                "enqueued": self.enqueued,
                "rejected": self.rejected,
                "cancelled": self.cancelled,
                "completed": self.completed,
                "failed": self.failed,
                "timeouts": self.timeouts,
                "batches": self.batches,
                "coalesced": self.coalesced,
                "mixed_k": self.mixed_k,
                # Flushes are never trimmed; the constant key stays because
                # perfbench/serve_mixed.py reads it for serving.trimmed.
                "trimmed": 0,
                "batch_shapes": dict(self.batch_shapes),
                "latency_ms": self._percentiles_locked(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServingStats({self.snapshot()!r})"


class _Request:
    """One admitted query waiting for (or riding in) a micro-batch."""

    __slots__ = ("query", "k", "future", "arrival", "deadline")

    def __init__(
        self,
        query: np.ndarray,
        k: int,
        future: Future,
        arrival: float,
        deadline: Optional[float] = None,
    ) -> None:
        self.query = query
        self.k = k
        self.future = future
        self.arrival = arrival
        #: Monotonic instant the request must resolve by (None: no deadline).
        self.deadline = deadline


class _Lane:
    """One tenant lane: bounded queue, DRR credits, adaptive flush window.

    All state is guarded by the engine's condition lock; the lane itself
    holds no synchronization.  The adaptive controller is fed explicit
    monotonic timestamps (``note_arrival``) and flush outcomes
    (``note_flush``) so tests can drive it deterministically.
    """

    __slots__ = (
        "name",
        "searcher",
        "weight",
        "max_queue",
        "pending",
        "min_delay_s",
        "max_delay_s",
        "delay_s",
        "inter_ewma",
        "last_arrival",
        "fill_ewma",
        "fill_horizon",
        "deficit",
        "enqueued",
        "rejected",
        "dispatched_queries",
        "dispatched_batches",
        "failures",
        "timeouts",
    )

    def __init__(
        self,
        name: str,
        searcher: Any,
        weight: float,
        max_queue: int,
        min_delay_s: float,
        max_delay_s: float,
        max_batch: int,
    ) -> None:
        self.name = name
        self.searcher = searcher
        self.weight = weight
        self.max_queue = max_queue
        self.pending: "deque[_Request]" = deque()
        self.min_delay_s = min(min_delay_s, max_delay_s)
        self.max_delay_s = max_delay_s
        #: Current adapted window; starts at the cap (the fixed-window
        #: behavior) and earns its way down on evidence.
        self.delay_s = max_delay_s
        self.inter_ewma: Optional[float] = None
        self.last_arrival: Optional[float] = None
        self.fill_ewma: Optional[float] = None
        #: Queries beyond the head needed to fill a batch — the horizon the
        #: inter-arrival estimate is extrapolated over.
        self.fill_horizon = max(1, max_batch - 1)
        self.deficit = 0.0
        self.enqueued = 0
        self.rejected = 0
        self.dispatched_queries = 0
        self.dispatched_batches = 0
        self.failures = 0
        self.timeouts = 0

    def note_arrival(self, now: float) -> None:
        """Fold one arrival timestamp into the inter-arrival EWMA."""
        if self.last_arrival is not None:
            delta = now - self.last_arrival
            if self.inter_ewma is None:
                self.inter_ewma = delta
            else:
                self.inter_ewma += _EWMA_ALPHA * (delta - self.inter_ewma)
        self.last_arrival = now

    def note_flush(self, size: int, max_batch: int, filled: bool) -> None:
        """Adapt the window from one flush outcome.

        ``filled`` means the flush was batch-size-driven (the run hit
        ``max_batch`` before the window expired): the window held slack, so
        it shrinks toward the observed fill time.  A deadline-driven flush
        grows the window back toward the cap — more waiting would have
        coalesced more — *unless* the inter-arrival EWMA says the window is
        not attracting batch-mates at all (low arrival rate), in which case
        paying it only inflates p99 and it shrinks instead.
        """
        fill = min(1.0, size / max_batch)
        if self.fill_ewma is None:
            self.fill_ewma = fill
        else:
            self.fill_ewma += _EWMA_ALPHA * (fill - self.fill_ewma)
        if filled:
            self.delay_s = max(self.min_delay_s, self.delay_s * _WINDOW_SHRINK)
        elif self.inter_ewma is not None and self.inter_ewma > self.delay_s:
            self.delay_s = max(self.min_delay_s, self.delay_s * _WINDOW_SHRINK)
        else:
            self.delay_s = min(self.max_delay_s, self.delay_s * _WINDOW_GROW)

    def effective_delay(self) -> float:
        """The flush window currently in force for this lane's head."""
        delay = self.delay_s
        if self.inter_ewma is not None:
            # Never wait longer than it plausibly takes to fill the batch.
            delay = min(delay, self.inter_ewma * self.fill_horizon)
        return min(self.max_delay_s, max(self.min_delay_s, delay))

    def stats(self) -> dict:
        """A plain-dict snapshot (caller holds the engine lock)."""
        scale = 1e6
        return {
            "weight": self.weight,
            "pending": len(self.pending),
            "enqueued": self.enqueued,
            "rejected": self.rejected,
            "dispatched_queries": self.dispatched_queries,
            "dispatched_batches": self.dispatched_batches,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "delay_us": self.effective_delay() * scale,
            "inter_arrival_us": (
                None if self.inter_ewma is None else self.inter_ewma * scale
            ),
            "fill_ewma": self.fill_ewma,
        }


class _SchedulerEngine:  # reprolint: disable=RPL004 -- facade holds the finalizer
    """The scheduler's internals: lanes, pump and collector loops, dispatch, demux.

    Split from the :class:`MicroBatchScheduler` facade so the pump and
    collector threads reference only this object — dropping the last
    reference to the facade therefore leaves it collectable, and its
    finalizer calls :meth:`close` here, which drains the queues and the
    in-flight batches and stops both threads.
    """

    def __init__(
        self,
        max_batch: int,
        max_delay_s: float,
        max_queue: int,
        max_in_flight: int,
        min_delay_s: float,
        latency_window: int,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_queue = max_queue
        self.max_in_flight = max_in_flight
        self.min_delay_s = min_delay_s
        self.request_timeout_s = request_timeout_s
        self.stats = ServingStats(latency_window=latency_window)
        self._cond = threading.Condition()
        self._lanes: Dict[str, _Lane] = {}
        self._rotation: List[_Lane] = []
        self._default_lane: Optional[str] = None
        self._cursor = 0
        self._fresh_visit = True
        #: Dispatched batches, oldest first: ``(collect, lane, requests)``.
        #: A batch stays here until the collector has delivered its results.
        self._inflight: "deque[tuple]" = deque()
        self._pump: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None
        #: Set once the pump has dispatched its last batch (under the lock).
        self._pump_done = False
        self._closing = False

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def add_lane(
        self,
        name: str,
        searcher: Any,
        weight: float,
        max_queue: Optional[int],
    ) -> None:
        if not callable(getattr(searcher, "submit_serving", None)):
            raise ServingError(
                "lane searcher must expose the serving seam (submit_serving); "
                "every NearestNeighborSearcher does"
            )
        if not weight > 0:
            raise ConfigurationError(f"lane weight must be > 0, got {weight!r}")
        if max_queue is None:
            max_queue = self.max_queue
        max_queue = check_int_in_range(max_queue, "max_queue", minimum=1)
        with self._cond:
            if self._closing:
                raise ServingError("scheduler is closed")
            if name in self._lanes:
                raise ServingError(f"lane {name!r} already exists")
            lane = _Lane(
                name=name,
                searcher=searcher,
                weight=float(weight),
                max_queue=max_queue,
                min_delay_s=self.min_delay_s,
                max_delay_s=self.max_delay_s,
                max_batch=self.max_batch,
            )
            self._lanes[name] = lane
            self._rotation.append(lane)
            if self._default_lane is None:
                self._default_lane = name

    def _resolve_lane(self, name: Optional[str]) -> _Lane:
        key = self._default_lane if name is None else name
        lane = self._lanes.get(key)
        if lane is None:
            raise ServingError(
                f"unknown lane {key!r}; lanes: {', '.join(sorted(self._lanes))}"
            )
        return lane

    def lane_stats(self) -> Dict[str, dict]:
        """Per-lane counters and adaptive state (consistent snapshot)."""
        with self._cond:
            return {lane.name: lane.stats() for lane in self._rotation}

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, query: Any, k: int, lane_name: Optional[str] = None) -> Future:
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        with self._cond:
            lane = self._resolve_lane(lane_name)
        searcher = lane.searcher
        # Client argument errors deliberately keep the search-layer type so a
        # query rejected here raises exactly what a direct kneighbors() call
        # would — the scheduler adds batching, not a new validation contract.
        if not searcher.is_fitted:
            raise SearchError(  # reprolint: disable=RPL006 -- parity with kneighbors()
                "the served searcher must be fitted before serving"
            )
        if query.shape[0] != searcher.num_features:
            raise SearchError(  # reprolint: disable=RPL006 -- parity with kneighbors()
                f"query has {query.shape[0]} features, "
                f"expected {searcher.num_features}"
            )
        if query.size and not np.all(np.isfinite(query)):
            raise SearchError(  # reprolint: disable=RPL006 -- parity with kneighbors()
                "queries must contain only finite values"
            )
        k = check_int_in_range(k, "k", minimum=1, maximum=searcher.num_entries)
        future: Future = Future()
        now = time.monotonic()
        deadline = (
            None if self.request_timeout_s is None else now + self.request_timeout_s
        )
        request = _Request(query, k, future, now, deadline)
        with self._cond:
            if self._closing:
                raise ServingError("scheduler is closed")
            if len(lane.pending) >= lane.max_queue:
                lane.rejected += 1
                self.stats.bump(rejected=1)
                raise ServingOverloadError(
                    f"serving queue of lane {lane.name!r} is full "
                    f"({lane.max_queue} pending queries); retry later or "
                    "raise max_queue"
                )
            lane.note_arrival(now)
            lane.pending.append(request)
            lane.enqueued += 1
            self._ensure_threads()
            self._cond.notify_all()
        self.stats.bump(enqueued=1)
        return future

    # ------------------------------------------------------------------
    # Pump and collector
    # ------------------------------------------------------------------
    def _ensure_threads(self) -> None:
        # Called under the condition lock.
        if self._pump is None or not self._pump.is_alive():
            self._pump_done = False
            self._pump = threading.Thread(
                target=self._pump_loop, name="repro-serving-pump", daemon=True
            )
            self._pump.start()
        if self._collector is None or not self._collector.is_alive():
            self._collector = threading.Thread(
                target=self._collect_loop, name="repro-serving-collect", daemon=True
            )
            self._collector.start()

    def _pump_loop(self) -> None:
        """Gather and dispatch until closed and drained; never collects."""
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    break
                lane, requests = batch
                if requests:
                    self._dispatch(lane, requests)
        finally:
            with self._cond:
                self._pump_done = True
                self._cond.notify_all()

    def _collect_loop(self) -> None:
        """Collect and deliver the oldest in-flight batch, until closed and drained.

        It exits only once the scheduler is closing and the pump has
        dispatched its last batch; intake has stopped by then, so no new
        pump can start and find the collector gone.
        """
        while True:
            with self._cond:
                while not self._inflight:
                    if self._closing and self._pump_done:
                        return
                    self._cond.wait()
                collect, lane, requests = self._inflight[0]
            self._collect(collect, lane, requests)
            with self._cond:
                # The batch frees its in-flight slot only once delivered.
                self._inflight.popleft()
                self._cond.notify_all()

    def _pick_lane(self, ready: List[_Lane]) -> _Lane:
        """Deficit round robin over the ready lanes (caller holds the lock).

        The cursor walks the lane rotation; arriving freshly at a lane tops
        its deficit up by ``weight * max_batch`` query credits, and a lane
        keeps the cursor (dispatching batch after batch) while its credits
        cover the next batch's cost.  Weighted shares therefore emerge in
        *query* units: a 3:1 weighting dispatches three full batches from
        the heavy lane per one from the light lane under saturation.  The
        caller charges the actual gathered size via :meth:`_charge_lane`.
        """
        if len(ready) == 1 and len(self._rotation) == 1:
            return ready[0]
        ready_set = set(map(id, ready))
        quantum = float(self.max_batch)
        for _ in range(_DRR_MAX_VISITS):
            lane = self._rotation[self._cursor]
            if id(lane) in ready_set:
                if self._fresh_visit:
                    lane.deficit += lane.weight * quantum
                    self._fresh_visit = False
                cost = min(len(lane.pending), self.max_batch)
                if lane.deficit >= cost:
                    return lane
            self._cursor = (self._cursor + 1) % len(self._rotation)
            self._fresh_visit = True
        return max(ready, key=lambda lane: lane.deficit)  # pragma: no cover

    def _charge_lane(self, lane: _Lane, dispatched: int) -> None:
        """Debit one dispatch's query count (caller holds the lock)."""
        lane.deficit = max(0.0, lane.deficit - dispatched)
        lane.dispatched_queries += dispatched
        lane.dispatched_batches += 1
        if not lane.pending:
            # DRR: an emptied queue forfeits leftover credit, so an idle
            # lane cannot bank service time against future competition.
            lane.deficit = 0.0

    def _next_batch(self) -> Optional[Tuple[_Lane, List[_Request]]]:
        """Gather the next micro-batch (None once closed and drained).

        Waits until a lane can flush and an in-flight slot is free.
        """
        with self._cond:
            while True:
                active = [lane for lane in self._rotation if lane.pending]
                if not active:
                    if self._closing:
                        return None
                    self._cond.wait()
                    continue
                if len(self._inflight) >= self.max_in_flight:
                    self._cond.wait()
                    continue
                if self._closing:
                    ready = active
                    break
                now = time.monotonic()
                ready = [
                    lane
                    for lane in active
                    if len(lane.pending) >= self.max_batch
                    or now >= lane.pending[0].arrival + lane.effective_delay()
                ]
                if ready:
                    break
                next_deadline = min(
                    lane.pending[0].arrival + lane.effective_delay()
                    for lane in active
                )
                self._cond.wait(timeout=max(0.0, next_deadline - now))
            lane = self._pick_lane(ready)
            # Every pending request qualifies whatever its k: the batch
            # ranks once at max(k) (see _dispatch).
            run = len(lane.pending)
            filled = run >= self.max_batch
            requests = []
            expired = []
            distinct_k = set()
            gather_now = time.monotonic()
            for _ in range(min(run, self.max_batch)):
                request = lane.pending.popleft()
                # Claim the future; a client that cancelled while queueing
                # is dropped here, before its query costs any compute.
                if not request.future.set_running_or_notify_cancel():
                    self.stats.bump(cancelled=1)
                elif request.deadline is not None and gather_now > request.deadline:
                    # Expired while queued (a stalled pump, a long heal):
                    # fail it typed before it costs any compute.
                    expired.append(request)
                else:
                    requests.append(request)
                    distinct_k.add(request.k)
            self._charge_lane(lane, len(requests))
            if not self._closing:
                lane.note_flush(len(requests), self.max_batch, filled=filled)
        if expired:
            self._deliver_failure(
                expired,
                ServingTimeoutError(
                    "request missed its deadline while queued "
                    f"(request_timeout_s={self.request_timeout_s})"
                ),
                lane,
            )
        if requests:
            self.stats.record_batch(len(requests), mixed=len(distinct_k) > 1)
        return lane, requests

    def _dispatch(self, lane: _Lane, requests: List[_Request]) -> None:
        queries = np.stack([request.query for request in requests])
        # Rank the whole coalesced batch once at the deepest requested k;
        # each client's rows are sliced back out at demultiplex time
        # (exact: see slice_topk).
        k_max = max(request.k for request in requests)
        try:
            collect = lane.searcher.submit_serving(queries, k=k_max)
        except Exception as exc:  # deliver, never kill the pump
            self._deliver_failure(requests, exc, lane)
            return
        with self._cond:
            self._inflight.append((collect, lane, requests))
            self._cond.notify_all()

    def _collect(self, collect: Any, lane: _Lane, requests: List[_Request]) -> None:
        """Collect one dispatched batch and deliver every rider's result.

        Any failure — of the collect (a worker died, the spool was reaped)
        or of the demultiplexing (``labels_for``, say) — fails the riders
        not yet delivered, and the collector goes on with the next batch.
        """
        deadlines = [
            request.deadline for request in requests if request.deadline is not None
        ]
        delivered = 0
        try:
            if deadlines:
                # The batch inherits its tightest rider's remaining budget;
                # the supervised executor heals and retries inside it, then
                # fails typed — the collector never blocks past the deadline
                # on a hung worker.
                remaining = max(0.0, min(deadlines) - time.monotonic())
                indices, scores = collect(timeout=remaining)
            else:
                indices, scores = collect()
            searcher = lane.searcher
            now = time.monotonic()
            for position, request in enumerate(requests):
                row_indices, row_scores = slice_topk(
                    indices[position], scores[position], request.k
                )
                result = QueryResult(
                    indices=row_indices,
                    scores=row_scores,
                    labels=searcher.labels_for(row_indices),
                )
                request.future.set_result(result)
                delivered += 1
                self.stats.record_latency((now - request.arrival) * 1e3)
        except Exception as exc:  # delivered as the riders' failure
            self._deliver_failure(requests, exc, lane)
        finally:
            self.stats.bump(completed=delivered)

    def _deliver_failure(
        self,
        requests: List[_Request],
        exc: BaseException,
        lane: Optional[_Lane] = None,
    ) -> None:
        """Fail every request whose future is not done yet with ``exc``."""
        failed = [request for request in requests if not request.future.done()]
        for request in failed:
            request.future.set_exception(exc)
        timed_out = isinstance(exc, ServingTimeoutError)
        self.stats.bump(
            failed=len(failed),
            timeouts=len(failed) if timed_out else 0,
        )
        if lane is not None:
            with self._cond:
                lane.failures += len(failed)
                if timed_out:
                    lane.timeouts += len(failed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop intake, drain pending and in-flight queries, stop both threads.

        The pump drains the queues, then the collector drains the in-flight
        batches.  Called on one of those threads (a future's callback runs
        on the collector), it returns without waiting: they finish the
        drain on their own.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
            threads = [thread for thread in (self._pump, self._collector) if thread]
        if threading.current_thread() in threads:
            return
        for thread in threads:
            thread.join()

    def __enter__(self) -> "_SchedulerEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


class ServingLane:
    """One named lane's client surface, bound to a scheduler.

    Hands a tenant an object with the same ``submit(query, k) -> Future``
    shape as the scheduler itself (so load generators and client code need
    no lane awareness), routing every request into that lane's bounded
    queue and weighted dispatch share.
    """

    __slots__ = ("_scheduler", "name")

    def __init__(self, scheduler: "MicroBatchScheduler", name: str) -> None:
        self._scheduler = scheduler
        self.name = name

    def submit(self, query: Any, k: int = 1) -> Future:
        """Enqueue one query into this lane (see :meth:`MicroBatchScheduler.submit`)."""
        return self._scheduler.submit(query, k=k, lane=self.name)

    def submit_many(self, queries: Any, k: int = 1) -> List[Future]:
        """Enqueue a client-side batch into this lane, one future per row."""
        return self._scheduler.submit_many(queries, k=k, lane=self.name)

    def kneighbors(self, query: Any, k: int = 1, timeout: Optional[float] = None) -> Any:
        """Blocking convenience wrapper on this lane.

        ``timeout`` bounds the wait (``None`` defers to the scheduler's
        ``request_timeout_s`` deadline machinery).
        """
        return self.submit(query, k=k).result(timeout)

    async def search(self, query: Any, k: int = 1) -> Any:
        """Asyncio front-end on this lane."""
        return await asyncio.wrap_future(self.submit(query, k=k))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServingLane({self.name!r})"


class MicroBatchScheduler:
    """Coalesce many concurrent single-query clients into micro-batches.

    Parameters
    ----------
    searcher:
        A **fitted** searcher exposing the serving seam
        (``submit_serving`` / ``kneighbors_arrays`` / ``labels_for`` — every
        :class:`~repro.core.search.NearestNeighborSearcher` does).  It backs
        the scheduler's default lane; further tenants join via
        :meth:`add_lane`.  The scheduler does not own its searchers; close
        them after the scheduler.
    max_batch:
        Largest coalesced batch; a batch flushes immediately once full.
    max_delay_us:
        Longest a pending query may wait for batch-mates, in microseconds:
        the *cap* of the adaptive window.  The latency the scheduler may *add*
        is about one effective window of queueing.
    max_queue:
        Per-lane pending-queue bound: admission control fast-fails
        submissions to a full lane with
        :class:`~repro.exceptions.ServingOverloadError`.  ``add_lane`` may
        override it per lane.
    max_in_flight:
        Dispatched batches that may be outstanding at once, across all
        lanes; a batch counts from its dispatch until its results are
        delivered.  The pump dispatches while a slot is free and the
        collector thread frees one per delivered batch, so depth > 1 keeps
        the workers ranking one batch while the previous one is collected,
        demultiplexed and resubmitted to.
    min_delay_us:
        Floor of the adaptive window, which each lane moves inside
        ``[min_delay_us, max_delay_us]`` from its observed arrival rate and
        batch fill (the module docstring describes the controller).  It is
        clamped to ``max_delay_us`` when the cap is smaller; setting it
        equal to ``max_delay_us`` gives a fixed window.
    lane / weight:
        Name and fair-share weight of the default lane backed by
        ``searcher``.
    latency_window:
        Ring-buffer size of the :class:`ServingStats` latency percentiles.
    request_timeout_s:
        Per-request deadline in seconds (``None``: no deadline).  A
        request that expires while queued is failed with
        :class:`~repro.exceptions.ServingTimeoutError` before costing any
        compute, and a dispatched batch is collected with its tightest
        rider's remaining budget — on the supervised ``"processes"``
        executor a crashed or hung batch is healed and retried inside
        that budget, then failed typed, so a client's future always
        resolves (result or typed error) within roughly its deadline plus
        one heal.  Failures are visible per lane (``lane_stats()``:
        ``failures``/``timeouts``) and scheduler-wide
        (``stats.snapshot()``).

    Results delivered through the scheduler are bitwise identical to
    calling ``kneighbors_batch`` on the lane's searcher directly with the
    same query — coalescing is a transport concern, never a semantic one.
    The serving path targets the deterministic (ideal-sensing) engines;
    engines with stochastic sensing draw from a dispatch-dependent stream
    and are not reproducible under coalescing by construction.
    """

    def __init__(
        self,
        searcher: Any,
        max_batch: int = 64,
        max_delay_us: float = 2000.0,
        max_queue: int = 1024,
        max_in_flight: int = 2,
        min_delay_us: float = 50.0,
        lane: str = "default",
        weight: float = 1.0,
        latency_window: int = 2048,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        max_batch = check_int_in_range(max_batch, "max_batch", minimum=1)
        max_queue = check_int_in_range(max_queue, "max_queue", minimum=1)
        max_in_flight = check_int_in_range(max_in_flight, "max_in_flight", minimum=1)
        if not max_delay_us >= 0:
            raise ConfigurationError(f"max_delay_us must be >= 0, got {max_delay_us!r}")
        if not min_delay_us >= 0:
            raise ConfigurationError(f"min_delay_us must be >= 0, got {min_delay_us!r}")
        if request_timeout_s is not None and not float(request_timeout_s) > 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0 or None, got {request_timeout_s!r}"
            )
        self._engine = _SchedulerEngine(
            max_batch=max_batch,
            max_delay_s=float(max_delay_us) * 1e-6,
            max_queue=max_queue,
            max_in_flight=max_in_flight,
            min_delay_s=float(min_delay_us) * 1e-6,
            latency_window=latency_window,
            request_timeout_s=(
                None if request_timeout_s is None else float(request_timeout_s)
            ),
        )
        self._engine.add_lane(lane, searcher, weight=weight, max_queue=max_queue)
        # Safety net: an abandoned scheduler drains and stops its threads at
        # garbage collection (they reference the engine, not us).
        self._finalizer = weakref.finalize(self, self._engine.close)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def searcher(self) -> Any:
        """The default lane's searcher."""
        return self._engine._resolve_lane(None).searcher

    @property
    def stats(self) -> ServingStats:
        """Live serving counters."""
        return self._engine.stats

    @property
    def max_batch(self) -> int:
        return self._engine.max_batch

    @property
    def max_in_flight(self) -> int:
        """Dispatched batches that may be outstanding at once."""
        return self._engine.max_in_flight

    @property
    def max_queue(self) -> int:
        return self._engine.max_queue

    @property
    def lanes(self) -> Tuple[str, ...]:
        """Names of the configured lanes, in registration order."""
        with self._engine._cond:
            return tuple(lane.name for lane in self._engine._rotation)

    def lane_stats(self) -> Dict[str, dict]:
        """Per-lane counters and adaptive-window state (consistent snapshot).

        Each entry reports the lane's weight, queue depth, admitted and
        rejected requests, dispatched batch/query totals (the numbers the
        fairness gates measure shares from), failure accounting
        (``failures`` and its ``timeouts`` subset — per-lane error rates),
        the effective flush window in microseconds and the
        inter-arrival/fill EWMAs feeding it.
        """
        return self._engine.lane_stats()

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def add_lane(
        self,
        name: str,
        searcher: Any = None,
        weight: float = 1.0,
        max_queue: Optional[int] = None,
    ) -> ServingLane:
        """Register a tenant lane and return its client surface.

        ``searcher`` defaults to the scheduler's default searcher (several
        priority classes over one store); passing another fitted searcher
        serves a different tenant's store — typically sharing the same
        executor instance; the DRR dispatcher arbitrates the in-flight
        slots between lanes.
        ``weight`` sets the lane's dispatch share under contention;
        ``max_queue`` overrides the scheduler-wide bound for this lane.
        """
        if searcher is None:
            searcher = self.searcher
        self._engine.add_lane(name, searcher, weight=weight, max_queue=max_queue)
        return ServingLane(self, name)

    def lane(self, name: str) -> ServingLane:
        """The client surface of an existing lane."""
        with self._engine._cond:
            self._engine._resolve_lane(name)  # raises on unknown lanes
        return ServingLane(self, name)

    def snapshot_lane(self, directory: Any, lane: Optional[str] = None) -> str:
        """Persist one lane's searcher as a crash-safe snapshot (see
        :mod:`repro.storage`).

        The serving-side durability hook: snapshots the lane's fitted
        state to ``directory`` while the scheduler keeps serving — the
        snapshot path reads shard engines without mutating them, so
        concurrent dispatches are safe; appends racing the snapshot
        serialize against its capture, landing either wholly inside the
        generation (covered by its ``applied_seq``) or wholly after it
        (journaled and replayed on restore).  Returns the snapshot
        generation directory.  Raises
        :class:`~repro.exceptions.ConfigurationError` when the lane's
        searcher is not snapshot-capable (not a
        :class:`~repro.core.sharding.ShardedSearcher`).
        """
        with self._engine._cond:
            searcher = self._engine._resolve_lane(lane).searcher
        snapshot = getattr(searcher, "snapshot", None)
        if snapshot is None:
            raise ConfigurationError(
                f"lane {lane or 'default'!r} serves a searcher without snapshot "
                f"support ({type(searcher).__name__}); durable serving requires "
                f"a ShardedSearcher"
            )
        path: str = snapshot(directory)
        return path

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def submit(self, query: Any, k: int = 1, lane: Optional[str] = None) -> Future:
        """Enqueue one query; the future resolves to its per-query result.

        Thread-safe and non-blocking: raises
        :class:`~repro.exceptions.ServingOverloadError` immediately when the
        lane's pending queue is full, :class:`~repro.exceptions.ServingError`
        after :meth:`close` or for unknown lanes.  Cancelling the returned
        future before dispatch drops the query without costing any compute.
        """
        return self._engine.submit(query, k, lane_name=lane)

    def submit_many(self, queries: Any, k: int = 1, lane: Optional[str] = None) -> List[Future]:
        """Enqueue a small client-side batch, one future per row.

        The rows coalesce like any other pending queries (with each other
        and with concurrent clients').  On overload, rows admitted before
        the bound was hit keep their futures; the raising row and the rest
        are not enqueued.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        return [self._engine.submit(row, k, lane_name=lane) for row in queries]

    async def search(self, query: Any, k: int = 1, lane: Optional[str] = None) -> Any:
        """Asyncio front-end: awaitable per-query result.

        Submission errors (overload, closed) raise in the caller;
        cancelling the awaiting task cancels the queued request.
        """
        return await asyncio.wrap_future(self._engine.submit(query, k, lane_name=lane))

    async def search_many(self, queries: Any, k: int = 1, lane: Optional[str] = None) -> list:
        """Awaitable client-side batch: one result per row, in row order."""
        futures = self.submit_many(queries, k=k, lane=lane)
        return list(await asyncio.gather(*map(asyncio.wrap_future, futures)))

    def kneighbors(
        self,
        query: Any,
        k: int = 1,
        lane: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking convenience wrapper: submit and wait for the result.

        ``timeout`` bounds the wait (``None`` defers to the scheduler's
        ``request_timeout_s`` deadline machinery).
        """
        return self.submit(query, k=k, lane=lane).result(timeout)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop serving (idempotent).

        Intake stops immediately (submissions raise
        :class:`~repro.exceptions.ServingError`); queries already admitted
        — pending or in flight, on every lane — are dispatched,
        demultiplexed and delivered before the pump and collector exit.
        """
        self._finalizer()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


__all__ = ["MicroBatchScheduler", "ServingLane", "ServingStats"]
