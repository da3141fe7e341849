"""Spans recorded from outside the program, around calls into its layers.

The traced run hands the program delegating objects instead of the real
ones — a searcher wrapper for the serving scheduler, an executor wrapper
for the sharded searcher — and patches a few public entry points for the
length of a traced pass.  Every wrapper is inert until its
:class:`Trace` is enabled, so a stack built once can run an untraced pass
and then a traced one.  Spans stay in memory until the run ends.

Work that happens inside worker processes (kernels, shard ranking) cannot
be seen from here; :func:`replay_shards` times it in-process instead, at
the batch shapes the traced pass recorded.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from harness import mean_or_zero, now


class BatchRecord:
    """Timestamps of one dispatched batch, as seen at one wrapper."""

    __slots__ = (
        "span_id",
        "size",
        "k",
        "start",
        "end",
        "collect_start",
        "collect_end",
        "publishes",
        "transport",
    )

    def __init__(self, span_id: int, size: int, k: int, start: float, end: float) -> None:
        self.span_id = span_id
        self.size = size
        self.k = k
        self.start = start
        self.end = end
        self.collect_start = math.nan
        self.collect_end = math.nan
        self.publishes = 0
        self.transport: Optional[str] = None


class Trace:
    """Span store shared by every wrapper of one run.

    A span is ``(name, span_id, parent_id, start, end)``; spans of one
    request or batch share its id.  Batches are also kept as
    :class:`BatchRecord` lists, one per wrapper, in dispatch order.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Tuple[str, int, Optional[int], float, float]] = []
        self._ids = itertools.count(1)
        self.serving_batches: List[BatchRecord] = []
        self.executor_batches: List[BatchRecord] = []
        self.publish_s: List[float] = []
        self.pending_publishes = 0

    def new_id(self) -> int:
        return next(self._ids)

    def span(
        self, name: str, span_id: int, start: float, end: float, parent: Optional[int] = None
    ) -> None:
        self.spans.append((name, span_id, parent, start, end))


class TracedSearcher:
    """Delegating searcher handed to the scheduler: times its serving seam."""

    def __init__(self, inner: Any, trace: Trace) -> None:
        self._inner = inner
        self._trace = trace

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def submit_serving(self, queries: Any, k: int = 1, rng: Any = None) -> Callable[..., Any]:
        trace = self._trace
        if not trace.enabled:
            return self._inner.submit_serving(queries, k=k, rng=rng)
        start = now()
        collect = self._inner.submit_serving(queries, k=k, rng=rng)
        record = BatchRecord(trace.new_id(), len(queries), k, start, now())
        trace.serving_batches.append(record)
        trace.span("serving.dispatch", record.span_id, record.start, record.end)

        def timed_collect(*args: Any, **kwargs: Any) -> Any:
            record.collect_start = now()
            result = collect(*args, **kwargs)
            record.collect_end = now()
            trace.span(
                "serving.collect", record.span_id, record.collect_start, record.collect_end
            )
            return result

        return timed_collect


class TracedExecutor:
    """Delegating shard executor: times ``publish_shard`` and ``submit_cached``.

    Everything else (properties, eviction, restore sources) passes straight
    through to the wrapped executor, which the caller still owns and closes.
    """

    def __init__(self, inner: Any, trace: Trace) -> None:
        self._inner = inner
        self._trace = trace

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def publish_shard(self, searcher_id: str, shard_index: int, payload: Any, epoch: int = 0) -> str:
        trace = self._trace
        if not trace.enabled:
            return self._inner.publish_shard(searcher_id, shard_index, payload, epoch=epoch)
        start = now()
        path = self._inner.publish_shard(searcher_id, shard_index, payload, epoch=epoch)
        end = now()
        trace.span("runtime.publish", trace.new_id(), start, end)
        trace.publish_s.append(end - start)
        trace.pending_publishes += 1
        return path

    def submit_cached(self, jobs: Any, timeout: Optional[float] = None) -> Callable[..., Any]:
        trace = self._trace
        if not trace.enabled:
            return self._inner.submit_cached(jobs, timeout=timeout)
        job_list = list(jobs)
        transport = self._inner.active_transport
        start = now()
        collect = self._inner.submit_cached(job_list, timeout=timeout)
        record = BatchRecord(trace.new_id(), len(job_list), 0, start, now())
        record.transport = transport
        # Publications happen right before the dispatch that needs them.
        record.publishes, trace.pending_publishes = trace.pending_publishes, 0
        trace.executor_batches.append(record)
        trace.span("runtime.dispatch", record.span_id, record.start, record.end)

        def timed_collect(*args: Any, **kwargs: Any) -> Any:
            record.collect_start = now()
            result = collect(*args, **kwargs)
            record.collect_end = now()
            trace.span(
                "runtime.collect_wait", record.span_id, record.collect_start, record.collect_end
            )
            return result

        return timed_collect


@contextlib.contextmanager
def timed_calls(
    owner: Any, attr: str, sink: List[float], trace: Trace, name: str
) -> Iterator[List[float]]:
    """Time every call of ``owner.attr`` into ``sink`` until the block exits.

    ``owner`` is a class (the wrapper then acts as a method) or a module
    whose function the program looks up at call time.  Each call is also
    recorded as a span called ``name``.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = now()
        try:
            return original(*args, **kwargs)
        finally:
            end = now()
            sink.append(end - start)
            trace.span(name, trace.new_id(), start, end)

    setattr(owner, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def evenly_sampled(items: Sequence[Any], limit: int) -> List[Any]:
    """At most ``limit`` items spread evenly over ``items``."""
    if len(items) <= limit:
        return list(items)
    positions = np.linspace(0, len(items) - 1, limit).round().astype(int)
    return [items[int(i)] for i in positions]


def replay_shards(
    searcher: Any, queries: np.ndarray, shapes: Sequence[Tuple[int, int]]
) -> Dict[str, List[float]]:
    """Time kernel, shard rank and merge in-process at recorded batch shapes.

    For every ``(batch size, k)`` shape each shard engine of ``searcher`` is
    timed twice: its conductance kernel
    (``MCAMArray.row_conductances_batch``) and its whole ranking
    (``kneighbors_arrays``).  The per-shard candidates are then merged with
    ``merge_shard_topk``.  One untimed pass per distinct batch size first
    fills this process's kernel table, so calibration is not timed.
    """
    from repro.core.sharding import merge_shard_topk

    shards = searcher.shard_searchers
    offsets = np.concatenate([[0], np.cumsum(searcher.shard_sizes)[:-1]]).astype(np.int64)
    for size in sorted({size for size, _ in shapes}):
        for shard in shards:
            shard.kneighbors_arrays(queries[:size], k=1)
    kernel_s: List[float] = []
    rank_s: List[float] = []
    merge_s: List[float] = []
    for size, k in shapes:
        batch = queries[:size]
        candidate_indices = []
        candidate_scores = []
        for shard, offset in zip(shards, offsets):
            states = shard.quantizer.quantize(batch)
            start = now()
            shard.array.row_conductances_batch(states)
            kernel_s.append(now() - start)
            start = now()
            indices, scores = shard.kneighbors_arrays(batch, k=min(k, shard.num_entries))
            rank_s.append(now() - start)
            candidate_indices.append(indices + offset)
            candidate_scores.append(scores)
        pooled_indices = np.concatenate(candidate_indices, axis=1)
        pooled_scores = np.concatenate(candidate_scores, axis=1)
        start = now()
        merge_shard_topk(pooled_scores, pooled_indices, k)
        merge_s.append(now() - start)
    return {"kernel_s": kernel_s, "rank_s": rank_s, "merge_s": merge_s}


def runtime_layer_metrics(
    trace: Trace, executor: Any, shard_rank_s: float, num_shards: int, workers: int
) -> Dict[str, float]:
    """Per-layer runtime metrics from the executor wrapper's batches.

    ``runtime.overhead_ms`` is the mean collect wait minus the rank time a
    batch's critical path needs: each worker ranks ``ceil(shards /
    workers)`` shards one after another.
    """
    batches = trace.executor_batches
    collect_ms = mean_or_zero([(b.collect_end - b.collect_start) * 1e3 for b in batches])
    critical_rank_ms = math.ceil(num_shards / max(1, workers)) * shard_rank_s * 1e3
    supervisor = executor.supervisor
    return {
        "runtime.dispatch_us": mean_or_zero([(b.end - b.start) * 1e6 for b in batches]),
        "runtime.collect_wait_ms": collect_ms,
        "runtime.overhead_ms": collect_ms - critical_rank_ms if batches else 0.0,
        "runtime.publish_ms": mean_or_zero([s * 1e3 for s in trace.publish_s]),
        "runtime.publishes": float(len(trace.publish_s)),
        "runtime.cache_hit_ratio": (
            sum(1 for b in batches if b.publishes == 0) / len(batches) if batches else 0.0
        ),
        "runtime.shm_ratio": (
            sum(1 for b in batches if b.transport == "shm") / len(batches) if batches else 0.0
        ),
        "runtime.restarts": float(supervisor.total_restarts),
        "runtime.disk_restores": float(supervisor.total_disk_restores),
        "runtime.stale_restores": float(supervisor.total_stale_restores),
    }
