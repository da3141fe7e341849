"""Load generation and latency measurement for the serving scheduler.

Two complementary traffic models:

* :func:`run_closed_loop` — ``clients`` concurrent threads, each holding at
  most one request in flight (submit, wait, repeat).  Throughput-oriented:
  sustained QPS under a fixed concurrency level, the shape of the CI gate
  (64 concurrent single-query clients through the scheduler vs. the naive
  one-query-per-dispatch baseline of :func:`direct_submitter`).
* :func:`run_open_loop` — a single generator issuing queries on a fixed
  arrival schedule regardless of completions, the standard methodology for
  *tail* latency: unlike a closed loop, slow responses cannot throttle the
  arrival rate, so queueing delay shows up in p99 instead of hiding in a
  reduced request count (coordinated omission).

Both return a :class:`LoadReport` with sustained QPS and p50/p95/p99
latency, and both support a **warmup phase** excluded from the measured
distribution: the first requests through a cold stack pay one-time costs
(pump start, executor spin-up, cache builds, allocator warm-up) that
belong to none of the steady-state numbers the CI gates compare.  Warmup
exclusion and request timing share one helper, :class:`WarmupClock`, so
the two generators (and anything else that times requests, like the
benchmarks' direct-submitter baselines) cannot drift apart in *how* they
exclude — a request counts toward the measured distribution iff it was
*submitted* at or after the measurement cutoff.

Every request asks for the same ``k``.  The generators target anything
with a ``submit(query, k) -> Future`` method — the
:class:`~repro.serving.scheduler.MicroBatchScheduler`, one of its
:class:`~repro.serving.scheduler.ServingLane` handles, or the baseline
wrapper — and never interpret results beyond completion, so they add no
per-request overhead that would flatter either side.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from ..exceptions import ServingOverloadError

#: Worst-case wait the load generators put on any single future.  The
#: scheduler's own request deadlines fire long before this; the bound only
#: exists so a wedged pump fails a load run loudly instead of hanging it.
CLIENT_TIMEOUT_S = 120.0


def percentile(latencies: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation, or NaN."""
    if not len(latencies):
        return float("nan")
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


class WarmupClock:
    """Shared monotonic clock with a warmup cutoff.

    Every request is timed with :meth:`now` (one monotonic source for both
    load generators and the baselines they compare, so no generator can
    mix clock domains), and the measured window opens only when
    :meth:`start_measurement` is called: :meth:`in_measurement` is the
    single definition of warmup exclusion — a request belongs to the
    measured distribution iff it was *submitted* at or after the cutoff.
    Keying on submission time (not completion) keeps the rule stable for
    requests that straddle the cutoff: a query submitted during warmup but
    completing after it still carries warmup costs and stays excluded.

    Before :meth:`start_measurement`, nothing is in measurement.
    """

    __slots__ = ("_cutoff",)

    def __init__(self) -> None:
        self._cutoff = float("inf")

    @staticmethod
    def now() -> float:
        """Monotonic timestamp in seconds (``time.perf_counter``)."""
        return time.perf_counter()

    @property
    def cutoff(self) -> float:
        """The measurement cutoff (``inf`` until measurement starts)."""
        return self._cutoff

    def start_measurement(self, at: Optional[float] = None) -> float:
        """Open the measured window (now, or at a known future instant).

        Returns the cutoff, which doubles as the measured window's origin
        for duration accounting.
        """
        self._cutoff = self.now() if at is None else float(at)
        return self._cutoff

    def in_measurement(self, start: float) -> bool:
        """Whether a request submitted at ``start`` counts as measured."""
        return start >= self._cutoff


@dataclass
class LoadReport:
    """Outcome of one load-generation run.

    Latencies are **milliseconds**, measured per request from submission to
    delivered result.  ``qps`` counts completed requests over the
    measurement window; rejected (overload fast-fail) and errored requests
    are tallied separately and excluded from the latency distribution, and
    ``warmup`` counts requests excluded by the warmup cutoff (whatever
    their outcome).
    """

    completed: int = 0
    rejected: int = 0
    errors: int = 0
    warmup: int = 0
    duration_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50.0)

    @property
    def p95_ms(self) -> float:
        return percentile(self.latencies_ms, 95.0)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0)

    @property
    def mean_ms(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.mean(self.latencies_ms))

    def summary(self) -> str:
        """One-line human-readable digest (benchmark records)."""
        return (
            f"qps={self.qps:.1f} p50={self.p50_ms:.3f}ms p99={self.p99_ms:.3f}ms "
            f"completed={self.completed} rejected={self.rejected} errors={self.errors}"
        )


class _SerialDirect:
    """The pre-scheduler baseline: one query per dispatch, serialized.

    Wraps a searcher behind the same ``submit(query, k) -> Future``
    surface the load generators drive, but each call performs one
    single-query dispatch under a lock — the one-query-per-dispatch
    serving that concurrent clients sharing a searcher had before the
    scheduler existed.
    """

    def __init__(self, searcher: Any) -> None:
        self._searcher = searcher
        self._lock = threading.Lock()

    def submit(self, query: Any, k: int = 1) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            with self._lock:
                indices, scores = self._searcher.kneighbors_arrays(query, k=k)
        except Exception as exc:
            future.set_exception(exc)
        else:
            future.set_result((indices[0], scores[0]))
        return future


def direct_submitter(searcher: Any) -> _SerialDirect:
    """A naive one-query-per-dispatch submitter over ``searcher``.

    The baseline for scheduler speedups: concurrent clients serialize on
    a lock and each dispatch carries one query.  Returns an object with the
    same
    ``submit(query, k) -> Future`` surface as the scheduler.
    """
    return _SerialDirect(searcher)


def run_closed_loop(
    target: Any,
    queries: np.ndarray,
    clients: int = 8,
    requests_per_client: int = 32,
    k: int = 1,
    warmup_per_client: int = 0,
) -> LoadReport:
    """Drive ``target.submit`` from ``clients`` threads, one request each in flight.

    Client ``c`` walks the query set starting at offset ``c`` (stride
    ``clients``), so all clients exercise the full set without coordinating.
    With ``warmup_per_client`` > 0, each client first
    issues that many requests in a separate phase that completes (all
    threads joined) before the measurement window opens — those requests
    are tallied only in ``LoadReport.warmup``.  The measured window spans
    the post-warmup cutoff to the last completion.
    """
    queries = np.asarray(queries, dtype=np.float64)
    report = LoadReport()
    lock = threading.Lock()
    clock = WarmupClock()

    def client(offset: int, requests: int) -> None:
        for i in range(requests):
            position = offset + i * clients
            row = queries[position % queries.shape[0]]
            start = clock.now()
            try:
                target.submit(row, k=k).result(CLIENT_TIMEOUT_S)
            except ServingOverloadError:
                with lock:
                    if clock.in_measurement(start):
                        report.rejected += 1
                    else:
                        report.warmup += 1
                continue
            except Exception:
                with lock:
                    if clock.in_measurement(start):
                        report.errors += 1
                    else:
                        report.warmup += 1
                continue
            elapsed_ms = (clock.now() - start) * 1e3
            with lock:
                if clock.in_measurement(start):
                    report.completed += 1
                    report.latencies_ms.append(elapsed_ms)
                else:
                    report.warmup += 1

    def phase(requests: int) -> None:
        threads = [
            threading.Thread(
                target=client, args=(c, requests), name=f"loadgen-{c}", daemon=True
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    if warmup_per_client > 0:
        phase(warmup_per_client)
    begin = clock.start_measurement()
    phase(requests_per_client)
    report.duration_s = clock.now() - begin
    return report


def run_open_loop(
    target: Any,
    queries: np.ndarray,
    rate_qps: float,
    duration_s: float,
    k: int = 1,
    warmup_s: float = 0.0,
) -> LoadReport:
    """Issue queries on a fixed arrival schedule for ``duration_s`` seconds.

    Arrivals are paced at ``rate_qps`` regardless of completions (the
    generator never waits on results), so queueing delay accumulates into
    the recorded tail instead of throttling the offered load.  With
    ``warmup_s`` > 0, arrivals start that much earlier at the same rate and
    requests submitted before the cutoff are tallied only in
    ``LoadReport.warmup`` — the schedule never pauses, so the stack sees an
    uninterrupted arrival process while the measured window stays honest.
    Completions are recorded from future callbacks; the run waits for every
    in-flight request before reporting.
    """
    queries = np.asarray(queries, dtype=np.float64)
    interval = 1.0 / float(rate_qps)
    report = LoadReport()
    lock = threading.Lock()
    outstanding: List[Future] = []
    clock = WarmupClock()

    begin = clock.now()
    cutoff = clock.start_measurement(at=begin + float(warmup_s))
    total_s = float(warmup_s) + duration_s

    def on_done(start: float, future: Future) -> None:
        elapsed_ms = (clock.now() - start) * 1e3
        with lock:
            if not clock.in_measurement(start):
                report.warmup += 1
            elif future.exception() is not None:
                report.errors += 1
            else:
                report.completed += 1
                report.latencies_ms.append(elapsed_ms)

    issued = 0
    while True:
        now = clock.now()
        if now - begin >= total_s:
            break
        scheduled = begin + issued * interval
        if now < scheduled:
            time.sleep(min(scheduled - now, interval))
            continue
        row = queries[issued % queries.shape[0]]
        start = clock.now()
        try:
            future = target.submit(row, k=k)
        except ServingOverloadError:
            with lock:
                if clock.in_measurement(start):
                    report.rejected += 1
                else:
                    report.warmup += 1
        else:
            future.add_done_callback(lambda f, s=start: on_done(s, f))
            outstanding.append(future)
        issued += 1
    for future in outstanding:
        # Outcomes are tallied by the completion callback; the drain only
        # waits for stragglers.  exception() returns (never raises) the
        # request's failure, and the bound turns a wedged pump into a loud
        # TimeoutError instead of a hung load run.
        future.exception(CLIENT_TIMEOUT_S)
    report.duration_s = clock.now() - cutoff
    return report


__all__ = [
    "LoadReport",
    "WarmupClock",
    "direct_submitter",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
]
