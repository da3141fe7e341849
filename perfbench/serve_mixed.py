"""serve_mixed: open-loop and saturating single-query traffic through the scheduler.

Stack: a 16384x64 ``mcam-3bit`` store in 4 shards on the ``processes``
executor (one worker per usable core), served by a ``MicroBatchScheduler``
with ``max_batch=32`` and a 2 ms flush-window cap.  Requests cycle ``k``
through 1, 5 and 32.  Three phases follow each other from one generator
thread: 200 queries/s (``low``) and 600 queries/s (``mid``) open loop, then
a closed loop holding 64 requests outstanding (``sat``).

Every delivered result is compared bit for bit with an unsharded,
in-process ``kneighbors_batch`` reference computed during set-up.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (
    BenchmarkError,
    Outcome,
    PeakMemory,
    log,
    mean_or_zero,
    median,
    now,
    percentile,
    timed_setups,
    usable_cores,
)
from loadgen import RequestLog, closed_loop, open_loop
from tracing import (
    Trace,
    TracedExecutor,
    TracedSearcher,
    evenly_sampled,
    replay_shards,
    runtime_layer_metrics,
)

STORED = 16384
FEATURES = 64
SHARDS = 4
NUM_QUERIES = 384  # a multiple of len(K_MIX): each query always has the same k
K_MIX = (1, 5, 32)
MAX_BATCH = 32
MAX_DELAY_US = 2000.0
LOW_QPS = 200.0
MID_QPS = 600.0
SAT_OUTSTANDING = 64
#: Share of the measured seconds given to each phase.
PHASE_SHARES = {"low": 0.3, "mid": 0.3, "sat": 0.4}
#: Window over which saturated throughput is counted.
SAT_WINDOW_S = 1.0
#: Batch shapes replayed in-process to time kernels, ranking and merge.
REPLAY_BATCHES = 96


def _inputs(seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 1])
    return {
        "features": rng.normal(size=(STORED, FEATURES)),
        "labels": rng.integers(0, 64, size=STORED),
        "queries": rng.normal(size=(NUM_QUERIES, FEATURES)),
        "engine_seed": int(rng.integers(2**31 - 1)),
    }


def _reference(data: Dict[str, Any]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-query expected (indices, scores) from one unsharded engine."""
    from repro.core import make_searcher

    engine = make_searcher("mcam-3bit", FEATURES, seed=data["engine_seed"])
    engine.fit(data["features"], data["labels"])
    expected: List[Any] = [None] * NUM_QUERIES
    for position, k in enumerate(K_MIX):
        rows = np.arange(position, NUM_QUERIES, len(K_MIX))
        result = engine.kneighbors_batch(data["queries"][rows], k=k)
        for row, indices, scores in zip(rows, result.indices, result.scores):
            expected[row] = (indices.copy(), scores.copy())
    return expected


def _pick(queries: np.ndarray):
    def pick(position: int) -> Tuple[np.ndarray, int, int]:
        index = position % NUM_QUERIES
        return queries[index], K_MIX[index % len(K_MIX)], index

    return pick


class _Stack:
    def __init__(self, executor: Any, searcher: Any, scheduler: Any, trace: Trace) -> None:
        self.executor = executor
        self.searcher = searcher
        self.scheduler = scheduler
        self.trace = trace

    def close(self) -> None:
        self.scheduler.close()
        self.searcher.close()
        self.executor.close()


def _build(data: Dict[str, Any], traced: bool) -> _Stack:
    """Fit, spawn the pool and warm every batch-size bucket up."""
    from repro.core import make_searcher
    from repro.runtime import ProcessShardExecutor
    from repro.serving import MicroBatchScheduler

    trace = Trace()
    executor = ProcessShardExecutor(num_workers=usable_cores())
    searcher = make_searcher(
        "mcam-3bit",
        FEATURES,
        seed=data["engine_seed"],
        shards=SHARDS,
        executor=TracedExecutor(executor, trace) if traced else executor,
    )
    searcher.fit(data["features"], data["labels"])
    queries = data["queries"]
    # Pool spawn, first publish and the workers' kernel calibration for
    # every power-of-two batch bucket up to max_batch.
    size = 1
    while size <= MAX_BATCH:
        for _ in range(3):
            searcher.kneighbors_arrays(queries[:size], k=max(K_MIX))
        size *= 2
    served = TracedSearcher(searcher, trace) if traced else searcher
    scheduler = MicroBatchScheduler(served, max_batch=MAX_BATCH, max_delay_us=MAX_DELAY_US)
    warm = RequestLog()
    closed_loop(scheduler.submit, warm, "warmup", _pick(queries), SAT_OUTSTANDING, 0.25)
    return _Stack(executor, searcher, scheduler, trace)


def _run_phases(stack: _Stack, queries: np.ndarray, seconds: float) -> Tuple[RequestLog, Dict]:
    requests = RequestLog()
    pick = _pick(queries)
    submit = stack.scheduler.submit
    windows: Dict[str, Tuple[float, float]] = {}
    start = open_loop(submit, requests, "low", pick, LOW_QPS, seconds * PHASE_SHARES["low"])
    windows["low"] = (start, now())
    start = open_loop(submit, requests, "mid", pick, MID_QPS, seconds * PHASE_SHARES["mid"])
    windows["mid"] = (start, now())
    windows["sat"] = closed_loop(
        submit, requests, "sat", pick, SAT_OUTSTANDING, seconds * PHASE_SHARES["sat"]
    )
    return requests, windows


def _check(requests: RequestLog, expected: List[Any], outcome: Outcome) -> Dict[str, Dict]:
    """Compare every result bitwise; count attempts and failures per phase."""
    phases: Dict[str, Dict[str, int]] = {}
    for i, future in enumerate(requests.futures):
        counts = phases.setdefault(
            requests.phase[i], {"attempted": 0, "failed": 0, "rejected": 0, "mismatched": 0}
        )
        counts["attempted"] += 1
        if future is None:
            counts["rejected"] += 1
            continue
        if future.exception() is not None:
            counts["failed"] += 1
            continue
        result = future.result()
        want_indices, want_scores = expected[requests.query[i]]
        if not (
            np.array_equal(result.indices, want_indices)
            and result.scores.tobytes() == want_scores.tobytes()
        ):
            counts["mismatched"] += 1
    for name, counts in phases.items():
        outcome.attempted += counts["attempted"]
        outcome.failed += counts["failed"] + counts["rejected"] + counts["mismatched"]
        outcome.check(
            counts["mismatched"] == 0,
            f"{name}: {counts['mismatched']} results differ from the reference",
        )
        outcome.check(
            counts["failed"] + counts["rejected"] == 0,
            f"{name}: {counts['failed']} failed and {counts['rejected']} rejected requests",
        )
    return phases


def _latency_summary(requests: RequestLog, windows: Dict) -> Dict[str, float]:
    summary: Dict[str, float] = {}
    for phase in ("low", "mid"):
        rows = requests.indices(phase)
        latency = [(requests.done[i] - requests.due[i]) * 1e3 for i in rows]
        late = [(requests.sent[i] - requests.due[i]) * 1e3 for i in rows]
        summary[f"{phase}_p50_ms"] = percentile(latency, 50)
        summary[f"{phase}_p99_ms"] = percentile(latency, 99)
        summary[f"{phase}_requests"] = float(len(rows))
        summary[f"{phase}_late_p99_ms"] = percentile(late, 99)
        summary[f"{phase}_late_max_ms"] = max(late)
    # Saturated throughput is the median over whole windows of the phase,
    # so a stall of another process on the host moves it less.
    start, end = windows["sat"]
    rows = requests.indices("sat")
    done = np.asarray([requests.done[i] for i in rows])
    count = max(1, int((end - start) // SAT_WINDOW_S))
    edges = start + SAT_WINDOW_S * np.arange(count + 1)
    per_window = np.histogram(done, bins=edges)[0] / SAT_WINDOW_S
    summary["sat_qps"] = median(per_window.tolist())
    summary["sat_qps_mean"] = float(np.sum((done >= start) & (done <= end)) / (end - start))
    summary["sat_requests"] = float(len(rows))
    return summary


def _serving_counters(before: Dict, after: Dict) -> Dict[str, float]:
    def delta(name: str) -> int:
        return int(after[name]) - int(before[name])

    batches = delta("batches")
    queries = sum(after["batch_shapes"].get(size, 0) * size for size in after["batch_shapes"])
    queries -= sum(before["batch_shapes"].get(size, 0) * size for size in before["batch_shapes"])
    batch_mean = queries / batches if batches else 0.0
    return {
        "serving.batches": float(batches),
        "serving.batch_mean": batch_mean,
        "serving.fill_ratio": batch_mean / MAX_BATCH,
        "serving.mixed_k": float(delta("mixed_k")),
        "serving.trimmed": float(delta("trimmed")),
        "serving.rejected": float(delta("rejected")),
        "serving.failed": float(delta("failed")),
        "serving.timeouts": float(delta("timeouts")),
    }


def _serving_spans(trace: Trace, requests: RequestLog) -> Dict[str, float]:
    """Queue wait and demux per request, from the FIFO batch order.

    One lane and no deadlines: batches take pending requests strictly in
    submission order, so consecutive batch sizes map requests to batches.
    """
    queue_ms: List[float] = []
    demux_us: List[float] = []
    cursor = 0
    for batch in trace.serving_batches:
        members = range(cursor, cursor + batch.size)
        cursor += batch.size
        last_done = batch.collect_end
        for i in members:
            request_id = trace.new_id()
            trace.span("request", request_id, requests.due[i], requests.done[i], batch.span_id)
            trace.span("serving.queue", request_id, requests.sent[i], batch.start, batch.span_id)
            queue_ms.append((batch.start - requests.sent[i]) * 1e3)
            last_done = max(last_done, requests.done[i])
        demux_us.append((last_done - batch.collect_end) * 1e6)
    if cursor != len(requests):
        raise BenchmarkError(
            f"traced batches covered {cursor} of {len(requests)} requests"
        )
    return {
        "serving.queue_wait_ms": mean_or_zero(queue_ms),
        "serving.demux_us": mean_or_zero(demux_us),
    }


def run(seed: int, seconds: float, trace_mode: bool) -> Outcome:
    outcome = Outcome()
    memory = PeakMemory()
    data = _inputs(seed)
    log("serve_mixed: computing the reference")
    expected = _reference(data)
    log("serve_mixed: set-up")
    stack, setup_s, setup_times = timed_setups(
        lambda: _build(data, traced=trace_mode), lambda old: old.close()
    )
    try:
        queries = data["queries"]
        # Traced runs measure an untraced pass and a traced pass of half
        # the length each; the difference is the tracing overhead.
        pass_s = seconds / 2 if trace_mode else seconds
        before = stack.scheduler.stats.snapshot()
        requests, windows = _run_phases(stack, queries, pass_s)
        after = stack.scheduler.stats.snapshot()
        memory.sample()
        phases = _check(requests, expected, outcome)
        summary = _latency_summary(requests, windows)
        outcome.end_to_end = {
            "setup_s": setup_s,
            "throughput": summary["sat_qps"],
        }
        outcome.report.update(
            {
                "setup_s_each": setup_times,
                "diagnostics": summary,
                "phases": phases,
                "serving_stats": _serving_counters(before, after),
            }
        )
        if trace_mode:
            outcome.per_layer = _traced_pass(stack, data, pass_s, expected, outcome, summary)
            memory.sample()
        supervisor = stack.executor.supervisor
        outcome.report["supervisor"] = {
            "restarts": supervisor.total_restarts,
            "disk_restores": supervisor.total_disk_restores,
            "stale_restores": supervisor.total_stale_restores,
        }
        outcome.report["active_transport"] = stack.executor.active_transport
    finally:
        stack.close()
    outcome.end_to_end["peak_rss_mb"] = memory.peak_mb
    return outcome


def _traced_pass(
    stack: _Stack,
    data: Dict[str, Any],
    seconds: float,
    expected: List[Any],
    outcome: Outcome,
    untraced: Dict[str, float],
) -> Dict[str, float]:
    trace = stack.trace
    before = stack.scheduler.stats.snapshot()
    trace.enabled = True
    try:
        requests, windows = _run_phases(stack, data["queries"], seconds)
    finally:
        trace.enabled = False
    after = stack.scheduler.stats.snapshot()
    _check(requests, expected, outcome)
    summary = _latency_summary(requests, windows)
    layers = _serving_counters(before, after)
    layers.update(_serving_spans(trace, requests))
    shapes = evenly_sampled([(b.size, b.k) for b in trace.serving_batches], REPLAY_BATCHES)
    replay = replay_shards(stack.searcher, data["queries"], shapes)
    shard_rank_s = mean_or_zero(replay["rank_s"])
    layers.update(
        runtime_layer_metrics(trace, stack.executor, shard_rank_s, SHARDS, usable_cores())
    )
    layers.update(
        {
            "circuits.kernel_us": mean_or_zero(replay["kernel_s"]) * 1e6,
            "circuits.kernel_calls": float(len(trace.executor_batches) * SHARDS),
            "core.rank_ms": shard_rank_s * 1e3,
            "core.merge_us": mean_or_zero(replay["merge_s"]) * 1e6,
            "gen.late_ms": max(untraced["low_late_max_ms"], untraced["mid_late_max_ms"]),
            "trace.overhead_pct": 100.0 * (1.0 - summary["sat_qps"] / untraced["sat_qps"]),
            "trace.spans": float(len(trace.spans)),
        }
    )
    outcome.report["traced_diagnostics"] = summary
    return layers
