"""ingest_durable: durable appends beside reads, snapshots and warm restarts.

Stack: a 4096x64 ``mcam-3bit`` store in 4 shards on the ``processes``
executor, ``appendable=True``, with the append journal enabled (fsync on).
The run is a sequence of identical *rounds*, each starting from the same
fitted state (restored from a base snapshot), because append cost grows
with the store.  In a round, one thread repeats: append 4 rows, then rank
32 queries (the read after the write).  After the 50th append a snapshot
is taken, so the round ends with 10 appends in the journal.  Then a fresh
searcher on a fresh worker pool restores the round's directory and serves
its first query; its answers must equal the writer's bit for bit.
The gated throughput is that of the acknowledged append; the read after
the write, snapshots and restores are reported beside it.

The workload shares the sharding and runtime layers with ``serve_mixed``
but goes through their publish-and-reload path instead of the worker
cache, and it is the only workload that exercises ``repro.storage``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from typing import Any, Dict, List

import numpy as np

from harness import (
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
from tracing import (
    Trace,
    TracedExecutor,
    replay_shards,
    runtime_layer_metrics,
    timed_calls,
)

STORED = 4096
FEATURES = 64
SHARDS = 4
ROWS_PER_APPEND = 4
APPENDS_PER_ROUND = 60
SNAPSHOT_AFTER = 50
READ_QUERIES = 32
READ_K = 5
QUERY_BLOCKS = 4
WARMUP_APPENDS = 3


def _inputs(seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 5])
    appended = APPENDS_PER_ROUND * ROWS_PER_APPEND
    features = rng.normal(size=(STORED, FEATURES))
    # Appended rows stay inside the store's range, so no append moves the
    # quantizer calibration: every append costs the same kind of work.
    low, high = features.min(axis=0), features.max(axis=0)
    return {
        "features": features,
        "labels": rng.integers(0, 64, size=STORED),
        "append_features": np.clip(rng.normal(size=(appended, FEATURES)), low, high),
        "append_labels": rng.integers(0, 64, size=appended),
        "queries": rng.normal(size=(QUERY_BLOCKS * READ_QUERIES, FEATURES)),
        "engine_seed": int(rng.integers(2**31 - 1)),
    }


def _searcher(data: Dict[str, Any], executor: Any) -> Any:
    from repro.core import make_searcher

    return make_searcher(
        "mcam-3bit",
        FEATURES,
        seed=data["engine_seed"],
        shards=SHARDS,
        executor=executor,
        appendable=True,
    )


class _Stack:
    def __init__(self, executor: Any, searcher: Any, trace: Trace, base_dir: str) -> None:
        self.executor = executor
        self.searcher = searcher
        self.trace = trace
        self.base_dir = base_dir

    def close(self) -> None:
        self.searcher.close()
        self.executor.close()


def _cycle(searcher: Any, data: Dict[str, Any], index: int) -> tuple:
    """One append and its read; returns (append seconds, read seconds)."""
    rows = slice(index * ROWS_PER_APPEND, (index + 1) * ROWS_PER_APPEND)
    block = index % QUERY_BLOCKS
    queries = data["queries"][block * READ_QUERIES : (block + 1) * READ_QUERIES]
    start = now()
    searcher.append(data["append_features"][rows], data["append_labels"][rows])
    appended = now()
    searcher.kneighbors_arrays(queries, k=READ_K)
    return appended - start, now() - appended


def _build(data: Dict[str, Any], storage: str, traced: bool) -> _Stack:
    """Fit, snapshot the base state, spawn the pool and warm it up."""
    from repro.runtime import ProcessShardExecutor

    trace = Trace()
    executor = ProcessShardExecutor(num_workers=usable_cores())
    searcher = _searcher(data, TracedExecutor(executor, trace) if traced else executor)
    searcher.fit(data["features"], data["labels"])
    base_dir = os.path.join(storage, "base")
    searcher.snapshot(base_dir)
    # Pool spawn, first publish and kernel calibration at the grown shard
    # size.  Every round restores the base snapshot and opens its own
    # journal, so these appends need none.
    for index in range(WARMUP_APPENDS):
        _cycle(searcher, data, index)
    return _Stack(executor, searcher, trace, base_dir)


def _directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class _Rounds:
    """Samples collected over a pass of rounds."""

    def __init__(self) -> None:
        self.append_s: List[float] = []
        self.read_s: List[float] = []
        self.snapshot_s: List[float] = []
        self.snapshot_bytes: List[int] = []
        self.restore_s: List[float] = []
        self.restore_call_s: List[float] = []
        self.load_s: List[float] = []
        self.rows_per_s: List[float] = []
        self.rounds = 0


def _round(
    stack: _Stack, data: Dict[str, Any], directory: str, samples: _Rounds, outcome: Outcome,
    memory: PeakMemory, load_s: List[float],
) -> None:
    from repro.runtime import ProcessShardExecutor

    searcher = stack.searcher
    searcher.restore(stack.base_dir)
    searcher.enable_durability(directory)
    start = now()
    for index in range(APPENDS_PER_ROUND):
        append_s, read_s = _cycle(searcher, data, index)
        samples.append_s.append(append_s)
        samples.read_s.append(read_s)
        if index + 1 == SNAPSHOT_AFTER:
            begin = now()
            generation = searcher.snapshot()
            samples.snapshot_s.append(now() - begin)
            samples.snapshot_bytes.append(_directory_bytes(generation))
    samples.rows_per_s.append(APPENDS_PER_ROUND * ROWS_PER_APPEND / (now() - start))
    outcome.attempted += APPENDS_PER_ROUND * 2 + 1  # appends, reads, snapshot
    expected = searcher.kneighbors_arrays(data["queries"], k=READ_K)

    # Warm restart: a fresh searcher on a fresh pool, up to its first answer.
    executor = ProcessShardExecutor(num_workers=usable_cores())
    restored = _searcher(data, executor)
    try:
        loads_before = len(load_s)
        begin = now()
        restored.restore(directory)
        samples.restore_call_s.append(now() - begin)
        first = restored.kneighbors_arrays(data["queries"][:READ_QUERIES], k=READ_K)
        samples.restore_s.append(now() - begin)
        samples.load_s.extend(load_s[loads_before:])
        answers = restored.kneighbors_arrays(data["queries"], k=READ_K)
        memory.sample()
    finally:
        restored.close()
        executor.close()
    outcome.attempted += 1
    same = (
        np.array_equal(first[0], expected[0][:READ_QUERIES])
        and first[1].tobytes() == expected[1][:READ_QUERIES].tobytes()
        and np.array_equal(answers[0], expected[0])
        and answers[1].tobytes() == expected[1].tobytes()
    )
    if not same:
        outcome.failed += 1
    outcome.check(same, f"round {samples.rounds}: the restored searcher answers differently")
    samples.rounds += 1


def _run_rounds(
    stack: _Stack, data: Dict[str, Any], storage: str, seconds: float, outcome: Outcome,
    memory: PeakMemory, load_s: List[float],
) -> _Rounds:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    samples = _Rounds()
    start = now()
    while samples.rounds == 0 or now() - start < seconds:
        directory = os.path.join(storage, f"round-{samples.rounds}")
        _round(stack, data, directory, samples, outcome, memory, load_s)
        shutil.rmtree(directory, ignore_errors=True)
    return samples


def _summary(samples: _Rounds) -> Dict[str, float]:
    """Statistics of one pass of rounds.

    The gated throughput is that of the acknowledged (journaled) append,
    in rows per second of append time.  The read after the write crosses
    three processes and moved with the host's load several times more than
    the append did (quartile spreads of 13-21% against 3% over ten seeds
    on a shared 2-core host), so the cycle rate and the read percentiles
    are reported but not gated.
    """
    return {
        "rounds": float(samples.rounds),
        "acked_rows_per_s": ROWS_PER_APPEND * len(samples.append_s) / sum(samples.append_s),
        "append_p50_ms": percentile(samples.append_s, 50) * 1e3,
        "rows_per_s_round_median": median(samples.rows_per_s),
        "raw_p50_ms": percentile(samples.read_s, 50) * 1e3,
        "raw_p95_ms": percentile(samples.read_s, 95) * 1e3,
        "snapshot_ms": median(samples.snapshot_s) * 1e3,
        "restore_ms": median(samples.restore_s) * 1e3,
    }


def run(seed: int, seconds: float, trace_mode: bool) -> Outcome:
    outcome = Outcome()
    memory = PeakMemory()
    data = _inputs(seed)
    storage = tempfile.mkdtemp(prefix="ingest-")
    builds = itertools.count()
    log("ingest_durable: set-up")
    stack, setup_s, setup_times = timed_setups(
        lambda: _build(data, os.path.join(storage, f"setup-{next(builds)}"), trace_mode),
        lambda old: old.close(),
    )
    try:
        pass_s = seconds / 2 if trace_mode else seconds
        samples = _run_rounds(stack, data, storage, pass_s, outcome, memory, [])
        summary = _summary(samples)
        outcome.end_to_end = {
            "setup_s": setup_s,
            "throughput": summary["acked_rows_per_s"],
        }
        outcome.report.update({"setup_s_each": setup_times, "diagnostics": summary})
        if trace_mode:
            outcome.per_layer = _traced_pass(stack, data, storage, pass_s, outcome, memory, summary)
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
    stack: _Stack, data: Dict[str, Any], storage: str, seconds: float, outcome: Outcome,
    memory: PeakMemory, untraced: Dict[str, float],
) -> Dict[str, float]:
    import repro.storage.snapshot as snapshot_module
    from repro.storage.journal import AppendJournal

    trace = stack.trace
    journal_s: List[float] = []
    load_s: List[float] = []
    trace.enabled = True
    try:
        with timed_calls(AppendJournal, "record", journal_s, trace, "storage.journal"), timed_calls(
            snapshot_module, "load_snapshot", load_s, trace, "storage.load"
        ):
            samples = _run_rounds(stack, data, storage, seconds, outcome, memory, load_s)
    finally:
        trace.enabled = False
    summary = _summary(samples)
    replay = replay_shards(stack.searcher, data["queries"], [(READ_QUERIES, READ_K)] * 32)
    shard_rank_s = mean_or_zero(replay["rank_s"])
    layers = runtime_layer_metrics(trace, stack.executor, shard_rank_s, SHARDS, usable_cores())
    layers.update(
        {
            "circuits.kernel_us": mean_or_zero(replay["kernel_s"]) * 1e6,
            "circuits.kernel_calls": float(len(trace.executor_batches) * SHARDS),
            "core.rank_ms": shard_rank_s * 1e3,
            "core.merge_us": mean_or_zero(replay["merge_s"]) * 1e6,
            "core.append_ms": mean_or_zero(
                [(a - j) * 1e3 for a, j in zip(samples.append_s, journal_s)]
            ),
            "storage.journal_ms": mean_or_zero(journal_s) * 1e3,
            "storage.snapshot_bytes": mean_or_zero(samples.snapshot_bytes),
            # Only the warm restarts' loads: the writer's own restore from
            # the base snapshot is not counted in samples.load_s.
            "storage.load_ms": mean_or_zero(samples.load_s) * 1e3,
            "storage.replay_ms": mean_or_zero(
                [(r - l) * 1e3 for r, l in zip(samples.restore_call_s, samples.load_s)]
            ),
            "trace.overhead_pct": 100.0
            * (1.0 - summary["rows_per_s_round_median"] / untraced["rows_per_s_round_median"]),
            "trace.spans": float(len(trace.spans)),
        }
    )
    outcome.report["traced_diagnostics"] = summary
    return layers
