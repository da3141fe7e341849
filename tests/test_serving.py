"""Micro-batching scheduler: coalescing, backpressure, lifecycle, parity.

The scheduler's contract mirrors the runtime's: coalescing single queries
into micro-batches changes *when and how* dispatches happen, never *what*
they compute.  These tests pin the coalescing policy boundaries (a full
batch flushes immediately; a partial run flushes whole when the head's
delay window expires), bounded-queue
admission control, cancellation before dispatch, drain on ``close()``, the
finalizer safety net, the asyncio front-end, and — most importantly —
bitwise parity of demultiplexed per-query results against direct
``kneighbors_batch`` calls at 1, 2 and 4 workers.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import ShardedSearcher, SoftwareSearcher, make_searcher
from repro.exceptions import (
    ConfigurationError,
    ReproError,
    SearchError,
    ServingError,
    ServingOverloadError,
    ServingTimeoutError,
)
from repro.serving import MicroBatchScheduler, ServingLane, ServingStats
from repro.serving.scheduler import _Lane, _Request, _SchedulerEngine

RNG = np.random.default_rng(20260807)

FEATURES = 12
WAIT_S = 15.0  # generous future timeouts: never the expected path


def _fitted_searcher(rows=64, seed=3):
    searcher = SoftwareSearcher("euclidean")
    searcher.fit(
        np.random.default_rng(seed).normal(size=(rows, FEATURES)),
        np.arange(rows),
    )
    return searcher


def _queries(count, seed=7):
    return np.random.default_rng(seed).normal(size=(count, FEATURES))


class _GatedSearcher(SoftwareSearcher):
    """Records dispatched batch sizes; collection blocks until released.

    Ranking happens eagerly at dispatch (so results are ready), but the
    collect closure waits on :attr:`release` — letting a test hold the
    scheduler's pump inside a collect while it stages pending queries,
    which makes queue-boundary scenarios deterministic.
    """

    def __init__(self):
        super().__init__("euclidean")
        self.release = threading.Event()
        self.dispatched = []

    def submit_serving(self, queries, k=1, rng=None):
        self.dispatched.append(int(queries.shape[0]))
        result = self.kneighbors_arrays(queries, k=k, rng=rng)

        def collect(timeout=None):
            assert self.release.wait(timeout=WAIT_S), "test never released the gate"
            return result

        return collect


def _wait_until(predicate, timeout=WAIT_S):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class TestCoalescingPolicy:
    def test_full_batch_flushes_without_waiting_for_the_delay_window(self):
        searcher = _fitted_searcher()
        with MicroBatchScheduler(searcher, max_batch=4, max_delay_us=10e6) as scheduler:
            start = time.monotonic()
            futures = [scheduler.submit(q) for q in _queries(4)]
            for future in futures:
                future.result(timeout=WAIT_S)
            elapsed = time.monotonic() - start
        # The 10-second window never expired: the flush was max_batch-driven.
        assert elapsed < 5.0
        assert scheduler.stats.snapshot()["batch_shapes"] == {4: 1}

    def test_partial_run_flushes_when_the_head_deadline_expires(self):
        searcher = _fitted_searcher()
        with MicroBatchScheduler(searcher, max_batch=64, max_delay_us=100_000) as scheduler:
            futures = [scheduler.submit(q) for q in _queries(3)]
            for future in futures:
                future.result(timeout=WAIT_S)
            shapes = scheduler.stats.snapshot()["batch_shapes"]
        # Far below max_batch, so only the 100 ms delay window flushed it.
        assert sum(size * count for size, count in shapes.items()) == 3

    def test_partial_run_flushes_whole(self):
        # Flush shapes depend only on the queue: a flush takes every
        # pending query up to max_batch.
        searcher = _fitted_searcher()
        # A fixed 100 ms window: all six submissions land inside it.
        with MicroBatchScheduler(
            searcher,
            max_batch=16,
            max_delay_us=100_000,
            min_delay_us=100_000,
            max_in_flight=1,
        ) as scheduler:
            futures = [scheduler.submit(q) for q in _queries(6)]
            for future in futures:
                future.result(timeout=WAIT_S)
            stats = scheduler.stats.snapshot()
        assert stats["batch_shapes"] == {6: 1}
        assert stats["trimmed"] == 0

    def test_mixed_k_requests_coalesce_with_bitwise_identical_results(self):
        searcher = _fitted_searcher()
        reference = searcher.kneighbors_batch(_queries(6), k=2)
        reference5 = searcher.kneighbors_batch(_queries(6), k=5)
        with MicroBatchScheduler(searcher, max_batch=16, max_delay_us=50_000) as scheduler:
            futures = []
            for index, query in enumerate(_queries(6)):
                futures.append(scheduler.submit(query, k=2 if index % 2 == 0 else 5))
            results = [future.result(timeout=WAIT_S) for future in futures]
        for index, result in enumerate(results):
            expected = reference[index] if index % 2 == 0 else reference5[index]
            np.testing.assert_array_equal(result.indices, expected.indices)
            np.testing.assert_array_equal(result.scores, expected.scores)


class TestBackpressure:
    def test_overload_fast_fails_and_recovers(self):
        searcher = _GatedSearcher()
        searcher.fit(np.random.default_rng(3).normal(size=(32, FEATURES)))
        queries = _queries(8)
        with MicroBatchScheduler(
            searcher, max_batch=1, max_delay_us=0, max_queue=2, max_in_flight=1
        ) as scheduler:
            first = scheduler.submit(queries[0])
            # The pump dispatches the head immediately (max_batch=1) and
            # blocks inside its collect; everything after now queues.
            assert _wait_until(lambda: len(searcher.dispatched) == 1)
            queued = [scheduler.submit(q) for q in queries[1:3]]
            with pytest.raises(ServingOverloadError):
                scheduler.submit(queries[3])
            assert scheduler.stats.snapshot()["rejected"] == 1
            searcher.release.set()
            for future in [first] + queued:
                assert future.result(timeout=WAIT_S).indices.shape == (1,)
            # Admission recovers once the queue drains.
            scheduler.submit(queries[4]).result(timeout=WAIT_S)

    def test_overload_error_is_a_serving_and_repro_error(self):
        assert issubclass(ServingOverloadError, ServingError)
        assert issubclass(ServingError, ReproError)


class TestCancellation:
    def test_cancelled_requests_are_dropped_before_dispatch(self):
        searcher = _GatedSearcher()
        searcher.fit(np.random.default_rng(3).normal(size=(32, FEATURES)))
        queries = _queries(4)
        with MicroBatchScheduler(
            searcher, max_batch=1, max_delay_us=0, max_in_flight=1
        ) as scheduler:
            first = scheduler.submit(queries[0])
            assert _wait_until(lambda: len(searcher.dispatched) == 1)
            doomed = scheduler.submit(queries[1])
            survivor = scheduler.submit(queries[2])
            assert doomed.cancel()
            searcher.release.set()
            first.result(timeout=WAIT_S)
            survivor.result(timeout=WAIT_S)
            assert doomed.cancelled()
            assert _wait_until(
                lambda: scheduler.stats.snapshot()["cancelled"] == 1
            )
        # The cancelled query never reached the searcher: 3 submissions,
        # 2 dispatched batches of one query each.
        assert searcher.dispatched == [1, 1]


class TestLifecycle:
    def test_close_drains_pending_queries_without_deadline_waits(self):
        searcher = _fitted_searcher()
        queries = _queries(10)
        expected = searcher.kneighbors_batch(queries, k=2)
        scheduler = MicroBatchScheduler(searcher, max_batch=64, max_delay_us=10e6)
        futures = [scheduler.submit(q, k=2) for q in queries]
        start = time.monotonic()
        scheduler.close()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # drained immediately, not after the 10 s window
        for index, future in enumerate(futures):
            result = future.result(timeout=0)  # already delivered by close()
            np.testing.assert_array_equal(result.indices, expected[index].indices)

    def test_close_is_idempotent_and_stops_intake(self):
        searcher = _fitted_searcher()
        scheduler = MicroBatchScheduler(searcher)
        scheduler.submit(_queries(1)[0]).result(timeout=WAIT_S)
        scheduler.close()
        scheduler.close()
        with pytest.raises(ServingError, match="closed"):
            scheduler.submit(_queries(1)[0])

    def test_context_manager_closes_on_exit(self):
        searcher = _fitted_searcher()
        with MicroBatchScheduler(searcher) as scheduler:
            scheduler.submit(_queries(1)[0]).result(timeout=WAIT_S)
        with pytest.raises(ServingError):
            scheduler.submit(_queries(1)[0])

    def test_forgotten_scheduler_is_finalized_at_gc(self):
        searcher = _fitted_searcher()
        scheduler = MicroBatchScheduler(searcher)
        scheduler.submit(_queries(1)[0]).result(timeout=WAIT_S)
        threads = (scheduler._engine._pump, scheduler._engine._collector)
        assert all(thread is not None and thread.is_alive() for thread in threads)
        del scheduler  # never closed: the weakref.finalize net must drain
        gc.collect()
        for thread in threads:
            thread.join(timeout=WAIT_S)
            assert not thread.is_alive()

    def test_close_from_a_done_callback_returns_and_the_threads_drain(self):
        # Callbacks run on the collector: close() there must not join its
        # own thread, nor the pump waiting for the slot it would free.
        searcher = _HoldFirstCollectSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        queries = _queries(4)
        scheduler = MicroBatchScheduler(searcher, max_batch=1, max_delay_us=0, max_in_flight=1)
        first = scheduler.submit(queries[0])
        assert searcher.entered.wait(timeout=WAIT_S)
        rest = [scheduler.submit(query) for query in queries[1:]]
        first.add_done_callback(lambda _: scheduler.close())
        searcher.release.set()
        for future in [first] + rest:
            assert future.result(timeout=WAIT_S).indices.shape == (1,)
        for thread in (scheduler._engine._pump, scheduler._engine._collector):
            thread.join(timeout=WAIT_S)
            assert not thread.is_alive()

    def test_searcher_remains_usable_after_scheduler_close(self):
        searcher = _fitted_searcher()
        queries = _queries(4)
        expected = searcher.kneighbors_batch(queries, k=2)
        with MicroBatchScheduler(searcher) as scheduler:
            scheduler.submit(queries[0], k=2).result(timeout=WAIT_S)
        after = searcher.kneighbors_batch(queries, k=2)
        np.testing.assert_array_equal(expected.indices, after.indices)


class TestValidation:
    def test_searcher_without_serving_seam_rejected(self):
        with pytest.raises(ServingError, match="submit_serving"):
            MicroBatchScheduler(object())

    def test_unfitted_searcher_rejected_at_submit(self):
        with MicroBatchScheduler(SoftwareSearcher("euclidean")) as scheduler:
            with pytest.raises(SearchError, match="fitted"):
                scheduler.submit(np.zeros(FEATURES))

    def test_bad_queries_and_k_rejected_at_submit_not_in_batch(self):
        searcher = _fitted_searcher(rows=16)
        with MicroBatchScheduler(searcher) as scheduler:
            with pytest.raises(SearchError, match="features"):
                scheduler.submit(np.zeros(FEATURES + 1))
            with pytest.raises(SearchError, match="finite"):
                scheduler.submit(np.full(FEATURES, np.nan))
            with pytest.raises(ConfigurationError, match="k"):
                scheduler.submit(np.zeros(FEATURES), k=17)
            # A bad submission never poisons later good ones.
            scheduler.submit(np.zeros(FEATURES)).result(timeout=WAIT_S)

    def test_bad_knobs_rejected(self):
        searcher = _fitted_searcher()
        with pytest.raises(ConfigurationError, match="max_batch"):
            MicroBatchScheduler(searcher, max_batch=0)
        with pytest.raises(ConfigurationError, match="max_delay_us"):
            MicroBatchScheduler(searcher, max_delay_us=-1.0)
        with pytest.raises(ConfigurationError, match="max_queue"):
            MicroBatchScheduler(searcher, max_queue=0)
        with pytest.raises(ConfigurationError, match="max_in_flight"):
            MicroBatchScheduler(searcher, max_in_flight=0)


class TestAsyncFrontEnd:
    def test_await_search_matches_direct_batch(self):
        searcher = _fitted_searcher()
        queries = _queries(12)
        expected = searcher.kneighbors_batch(queries, k=3)

        async def main(scheduler):
            return await asyncio.gather(
                *(scheduler.search(query, k=3) for query in queries)
            )

        with MicroBatchScheduler(searcher, max_delay_us=20_000) as scheduler:
            results = asyncio.run(main(scheduler))
        for index, result in enumerate(results):
            np.testing.assert_array_equal(result.indices, expected[index].indices)
            np.testing.assert_array_equal(result.scores, expected[index].scores)
            assert result.labels == expected[index].labels

    def test_search_many_preserves_row_order(self):
        searcher = _fitted_searcher()
        queries = _queries(5)
        expected = searcher.kneighbors_batch(queries, k=2)

        async def main(scheduler):
            return await scheduler.search_many(queries, k=2)

        with MicroBatchScheduler(searcher) as scheduler:
            results = asyncio.run(main(scheduler))
        for index, result in enumerate(results):
            np.testing.assert_array_equal(result.indices, expected[index].indices)


class TestSubmitMany:
    def test_rows_coalesce_and_results_demux_in_order(self):
        searcher = _fitted_searcher()
        queries = _queries(9)
        expected = searcher.kneighbors_batch(queries, k=2)
        with MicroBatchScheduler(searcher, max_delay_us=20_000) as scheduler:
            futures = scheduler.submit_many(queries, k=2)
            assert len(futures) == 9
            for index, future in enumerate(futures):
                result = future.result(timeout=WAIT_S)
                np.testing.assert_array_equal(result.indices, expected[index].indices)
                np.testing.assert_array_equal(result.scores, expected[index].scores)
        assert scheduler.stats.snapshot()["coalesced"] >= 2

    def test_kneighbors_blocking_convenience(self):
        searcher = _fitted_searcher()
        query = _queries(1)[0]
        expected = searcher.kneighbors(query, k=3)
        with MicroBatchScheduler(searcher) as scheduler:
            result = scheduler.kneighbors(query, k=3)
        np.testing.assert_array_equal(result.indices, expected.indices)
        np.testing.assert_array_equal(result.scores, expected.scores)
        assert result.labels == expected.labels


class TestServingStats:
    def test_counters_and_snapshot_consistency(self):
        stats = ServingStats()
        stats.bump(enqueued=3, rejected=1)
        stats.record_batch(4)
        stats.record_batch(1)
        snapshot = stats.snapshot()
        assert snapshot["enqueued"] == 3
        assert snapshot["rejected"] == 1
        assert snapshot["batches"] == 2
        assert snapshot["coalesced"] == 4  # only the size-4 batch coalesced
        assert snapshot["trimmed"] == 0  # flushes are never trimmed
        assert snapshot["batch_shapes"] == {4: 1, 1: 1}
        # The snapshot is a copy, not a live view.
        snapshot["batch_shapes"][4] = 99
        assert stats.snapshot()["batch_shapes"][4] == 1

    def test_latency_ring_buffer_percentiles(self):
        stats = ServingStats(latency_window=4)
        empty = stats.latency_percentiles()
        assert empty["window"] == 0 and np.isnan(empty["p99"])
        for latency in (1.0, 2.0, 3.0, 4.0, 100.0):
            stats.record_latency(latency)
        window = stats.latency_percentiles()
        # Ring semantics: the 1.0 ms sample fell off the window of 4.
        assert window["window"] == 4
        assert window["p50"] == pytest.approx(3.5)
        assert window["p99"] > window["p95"] > window["p50"]
        assert stats.snapshot()["latency_ms"]["window"] == 4

    def test_mixed_k_batches_are_counted(self):
        stats = ServingStats()
        stats.record_batch(4, mixed=True)
        stats.record_batch(4)
        assert stats.snapshot()["mixed_k"] == 1


class _BudgetEchoSearcher(SoftwareSearcher):
    """Records the ``timeout`` each collect receives from the pump."""

    def __init__(self):
        super().__init__("euclidean")
        self.budgets = []

    def submit_serving(self, queries, k=1, rng=None):
        result = self.kneighbors_arrays(queries, k=k, rng=rng)

        def collect(timeout=None):
            self.budgets.append(timeout)
            return result

        return collect


class _ExplodingSearcher(SoftwareSearcher):
    """Every dispatch fails at submit time (a dead backend)."""

    def submit_serving(self, queries, k=1, rng=None):
        raise RuntimeError("backend is down")


class _TypeErrorSearcher(SoftwareSearcher):
    """Fits like the Euclidean engine, but every ranking raises TypeError."""

    def __init__(self):
        super().__init__("euclidean")

    def _rank_batch(self, queries, rng, k):
        raise TypeError("engine bug in _rank_batch")


class _LabelsFailOnceSearcher(SoftwareSearcher):
    """Ranks like the Euclidean engine; its second ``labels_for`` call raises."""

    def __init__(self):
        super().__init__("euclidean")
        self.label_calls = 0

    def labels_for(self, indices):
        self.label_calls += 1
        if self.label_calls == 2:
            raise SearchError("label store unavailable")
        return super().labels_for(indices)


class _HoldFirstCollectSearcher(SoftwareSearcher):
    """The first batch's collect blocks until released; later ones return.

    Counts dispatches and the most batches outstanding at once (dispatched,
    collect not yet returned).  With ``hold=False`` no collect blocks.
    """

    def __init__(self, hold=True):
        super().__init__("euclidean")
        self.entered = threading.Event()
        self.release = threading.Event()
        if not hold:
            self.release.set()
        self.dispatched = 0
        self.peak_outstanding = 0
        self._outstanding = 0
        self._lock = threading.Lock()

    def submit_serving(self, queries, k=1, rng=None):
        result = self.kneighbors_arrays(queries, k=k, rng=rng)
        with self._lock:
            first = self.dispatched == 0
            self.dispatched += 1
            self._outstanding += 1
            self.peak_outstanding = max(self.peak_outstanding, self._outstanding)

        def collect(timeout=None):
            if first:
                self.entered.set()
                assert self.release.wait(timeout=WAIT_S), "test never released the gate"
            with self._lock:
                self._outstanding -= 1
            return result

        return collect


def _serving_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-serving-")}


class TestDeadlinesAndFailureAccounting:
    def test_request_timeout_validation(self):
        with pytest.raises(ConfigurationError, match="request_timeout_s"):
            MicroBatchScheduler(_fitted_searcher(), request_timeout_s=0)

    def test_expired_while_queued_fails_typed_before_any_compute(self):
        searcher = _GatedSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        with MicroBatchScheduler(
            searcher,
            max_batch=1,
            max_in_flight=1,
            max_delay_us=0,
            request_timeout_s=0.15,
        ) as scheduler:
            first = scheduler.submit(_queries(1)[0], k=2)
            # The pump dispatches the first query, then blocks in its
            # (gated) collect with the in-flight window full.
            deadline = time.monotonic() + WAIT_S
            while not searcher.dispatched and time.monotonic() < deadline:
                time.sleep(0.005)
            assert searcher.dispatched == [1]
            second = scheduler.submit(_queries(1, seed=9)[0], k=2)
            time.sleep(0.25)  # the queued request's deadline passes
            searcher.release.set()
            # The dispatched request resolves (this collect ignores its
            # timeout); the queued one expired.
            assert first.result(timeout=WAIT_S).indices.shape == (2,)
            with pytest.raises(ServingTimeoutError, match="while queued"):
                second.result(timeout=WAIT_S)
            # The query never cost a dispatch.
            assert searcher.dispatched == [1]
            snapshot = scheduler.stats.snapshot()
            assert snapshot["completed"] == 1
            assert snapshot["failed"] == 1
            assert snapshot["timeouts"] == 1
            lane = scheduler.lane_stats()["default"]
            assert lane["failures"] == 1
            assert lane["timeouts"] == 1

    def test_engine_type_error_fails_the_request_with_that_error(self):
        # Regression: the pump retried a collect that raised TypeError
        # without its timeout, so the request failed instead as a second
        # collect of the same sharded batch.
        features = _queries(20, seed=5)
        with ShardedSearcher(
            _TypeErrorSearcher, num_shards=2, executor="processes", num_workers=2
        ) as sharded:
            sharded.fit(features)
            with MicroBatchScheduler(sharded, request_timeout_s=30) as scheduler:
                future = scheduler.submit(features[0], k=1)
                with pytest.raises(TypeError, match="engine bug"):
                    future.result(timeout=WAIT_S)
            assert sharded._executor.ring_in_flight == 0

    def test_dispatch_failures_count_per_lane_but_not_as_timeouts(self):
        searcher = _ExplodingSearcher("euclidean")
        searcher.fit(_queries(16, seed=5), np.arange(16))
        with MicroBatchScheduler(searcher, max_batch=2, max_delay_us=0) as scheduler:
            future = scheduler.submit(_queries(1)[0], k=1)
            with pytest.raises(RuntimeError, match="backend is down"):
                future.result(timeout=WAIT_S)
            snapshot = scheduler.stats.snapshot()
            assert snapshot["failed"] == 1
            assert snapshot["timeouts"] == 0
            lane = scheduler.lane_stats()["default"]
            assert lane["failures"] == 1
            assert lane["timeouts"] == 0

    def test_collects_inherit_the_tightest_remaining_budget(self):
        searcher = _BudgetEchoSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        with MicroBatchScheduler(
            searcher, max_batch=4, max_delay_us=0, request_timeout_s=5.0
        ) as scheduler:
            assert scheduler.submit(_queries(1)[0], k=2).result(timeout=WAIT_S)
        assert len(searcher.budgets) == 1
        assert searcher.budgets[0] is not None
        assert 0.0 < searcher.budgets[0] <= 5.0

    def test_without_deadlines_collects_see_no_budget(self):
        searcher = _BudgetEchoSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        with MicroBatchScheduler(searcher, max_batch=4, max_delay_us=0) as scheduler:
            assert scheduler.submit(_queries(1)[0], k=2).result(timeout=WAIT_S)
        assert searcher.budgets == [None]

    def test_a_demultiplexing_failure_fails_the_rest_of_the_batch(self):
        # Regression: labels_for raising while a batch was demultiplexed
        # killed the pump and stranded the batch's undelivered futures.
        searcher = _LabelsFailOnceSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        queries = _queries(3)
        expected = searcher.kneighbors_batch(queries, k=2)
        before = _serving_threads()
        scheduler = MicroBatchScheduler(searcher, max_batch=2, max_delay_us=10e6)
        first, second = scheduler.submit_many(queries[:2], k=2)  # one full batch
        # The first rider was delivered before labels_for failed on the second.
        np.testing.assert_array_equal(first.result(timeout=WAIT_S).indices, expected[0].indices)
        with pytest.raises(SearchError, match="label store"):
            second.result(timeout=WAIT_S)
        snapshot = scheduler.stats.snapshot()
        assert (snapshot["completed"], snapshot["failed"]) == (1, 1)
        assert scheduler.lane_stats()["default"]["failures"] == 1
        # The collector lived on: the next request is served.
        third = scheduler.submit(queries[2], k=2)
        scheduler.close()
        np.testing.assert_array_equal(third.result(timeout=0).indices, expected[2].indices)
        assert _serving_threads() <= before


class TestPipelining:
    """The pump never waits on a collect; ``max_in_flight`` bounds the batches."""

    def test_second_batch_dispatches_while_the_first_is_collected(self):
        searcher = _HoldFirstCollectSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        queries = _queries(2)
        with MicroBatchScheduler(
            searcher, max_batch=1, max_delay_us=0, max_in_flight=2
        ) as scheduler:
            first = scheduler.submit(queries[0])
            assert searcher.entered.wait(timeout=WAIT_S)
            second = scheduler.submit(queries[1])
            # The first batch's collect is held, yet its free in-flight slot
            # takes the second batch at once.
            assert _wait_until(lambda: searcher.dispatched == 2, timeout=1.0)
            assert not first.done()
            searcher.release.set()
            for future in (first, second):
                assert future.result(timeout=WAIT_S).indices.shape == (1,)
        assert searcher.peak_outstanding == 2

    def test_one_slot_never_holds_two_batches(self):
        searcher = _HoldFirstCollectSearcher()
        searcher.fit(_queries(32, seed=5), np.arange(32))
        queries = _queries(4)
        with MicroBatchScheduler(
            searcher, max_batch=1, max_delay_us=0, max_in_flight=1
        ) as scheduler:
            futures = [scheduler.submit(queries[0])]
            assert searcher.entered.wait(timeout=WAIT_S)
            futures += [scheduler.submit(query) for query in queries[1:]]
            assert not _wait_until(lambda: searcher.dispatched > 1, timeout=0.2)
            searcher.release.set()
            for future in futures:
                assert future.result(timeout=WAIT_S).indices.shape == (1,)
        assert searcher.dispatched == 4
        assert searcher.peak_outstanding == 1

    def test_concurrent_clients_under_a_short_switch_interval(self):
        # Pump and collector share the in-flight queue: 8 closed-loop
        # clients on 2 slots, with thread switches forced every few
        # bytecodes, must neither lose a delivery nor overfill the slots.
        searcher = _HoldFirstCollectSearcher(hold=False)
        searcher.fit(_queries(64, seed=5), np.arange(64))
        queries = _queries(240)
        expected = searcher.kneighbors_batch(queries, k=3)
        results = [None] * len(queries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatchScheduler(
                searcher, max_batch=4, max_delay_us=200, max_in_flight=2
            ) as scheduler:

                def client(offset):
                    for i in range(offset, len(queries), 8):
                        results[i] = scheduler.submit(queries[i], k=3).result(timeout=WAIT_S)

                threads = [threading.Thread(target=client, args=(c,)) for c in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=WAIT_S)
                    assert not thread.is_alive()
                stats = scheduler.stats.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert stats["completed"] == len(queries) and stats["failed"] == 0
        assert searcher.peak_outstanding <= 2
        assert not scheduler._engine._inflight
        for index, result in enumerate(results):
            np.testing.assert_array_equal(result.indices, expected[index].indices)


class TestCrossKCoalescing:
    """Mixed-``k`` batches rank once at ``max(k)``; demuxed rows stay
    bitwise identical to per-``k`` dispatch, including past shard edges
    (``k`` > rows-per-shard) and through tie-heavy stores."""

    def test_mixed_k_shares_one_batch_and_matches_per_k_dispatch(self):
        searcher = _fitted_searcher(rows=64)
        queries = _queries(12)
        ks = [1, 5, 32] * 4
        references = {k: searcher.kneighbors_batch(queries, k=k) for k in (1, 5, 32)}
        with MicroBatchScheduler(searcher, max_batch=12, max_delay_us=10e6) as scheduler:
            futures = [
                scheduler.submit(query, k=k) for query, k in zip(queries, ks)
            ]
            results = [future.result(timeout=WAIT_S) for future in futures]
            stats = scheduler.stats.snapshot()
        # One full batch despite three distinct k values.
        assert stats["batch_shapes"] == {12: 1}
        assert stats["mixed_k"] == 1
        for index, (result, k) in enumerate(zip(results, ks)):
            expected = references[k][index]
            assert result.indices.shape == (k,)
            np.testing.assert_array_equal(result.indices, expected.indices)
            np.testing.assert_array_equal(result.scores, expected.scores)
            assert result.labels == expected.labels

    def test_mixed_k_parity_when_k_exceeds_rows_per_shard(self):
        # 48 rows over 4 shards: 12 rows per shard, so k=32 forces every
        # shard to contribute its whole store to the exact merge.
        rows = 48
        features = RNG.normal(size=(rows, FEATURES))
        labels = np.arange(rows)
        queries = RNG.normal(size=(9, FEATURES))
        ks = [1, 5, 32] * 3
        searcher = make_searcher(
            "mcam-3bit", num_features=FEATURES, seed=11, shards=4
        )
        searcher.fit(features, labels)
        references = {k: searcher.kneighbors_batch(queries, k=k) for k in (1, 5, 32)}
        with MicroBatchScheduler(searcher, max_batch=9, max_delay_us=10e6) as scheduler:
            futures = [
                scheduler.submit(query, k=k) for query, k in zip(queries, ks)
            ]
            for index, future in enumerate(futures):
                result = future.result(timeout=WAIT_S)
                expected = references[ks[index]][index]
                np.testing.assert_array_equal(result.indices, expected.indices)
                np.testing.assert_array_equal(result.scores, expected.scores)

    def test_mixed_k_parity_on_tie_heavy_store(self):
        # Quantized duplicated rows: massive score ties, where only stable
        # tie-breaking keeps the top-k prefix of a deeper ranking exact.
        base = np.round(RNG.normal(size=(8, FEATURES)))
        features = np.tile(base, (6, 1))  # 48 rows, each repeated 6 times
        labels = np.arange(features.shape[0])
        searcher = SoftwareSearcher("euclidean")
        searcher.fit(features, labels)
        queries = np.round(RNG.normal(size=(10, FEATURES)))
        ks = [1, 5, 32, 5, 1] * 2
        references = {k: searcher.kneighbors_batch(queries, k=k) for k in (1, 5, 32)}
        with MicroBatchScheduler(searcher, max_batch=10, max_delay_us=10e6) as scheduler:
            futures = [
                scheduler.submit(query, k=k) for query, k in zip(queries, ks)
            ]
            for index, future in enumerate(futures):
                result = future.result(timeout=WAIT_S)
                expected = references[ks[index]][index]
                np.testing.assert_array_equal(result.indices, expected.indices)
                np.testing.assert_array_equal(result.scores, expected.scores)


def _make_engine(max_batch=4, weights=(("a", 3.0),), searcher=None):
    """A pump-less engine with staged lanes, for deterministic policy tests."""
    if searcher is None:
        searcher = _fitted_searcher()
    engine = _SchedulerEngine(
        max_batch=max_batch,
        max_delay_s=0.0,
        max_queue=1024,
        max_in_flight=2,
        min_delay_s=0.0,
    )
    for name, weight in weights:
        engine.add_lane(name, searcher, weight=weight, max_queue=None)
    return engine


def _stage(lane, ks):
    """Append one pending request per ``k`` (bypassing submit: no pump)."""
    from concurrent.futures import Future

    for k in ks:
        lane.pending.append(_Request(np.zeros(FEATURES), k, Future(), 0.0))


class TestAdaptiveWindow:
    """The per-lane window controller, driven with synthetic timestamps."""

    def _lane(self, min_delay_s=0.0001, max_delay_s=0.01):
        return _Lane(
            name="lane",
            searcher=None,
            weight=1.0,
            max_queue=8,
            min_delay_s=min_delay_s,
            max_delay_s=max_delay_s,
            max_batch=9,
        )

    def test_inter_arrival_ewma_tracks_the_gap(self):
        lane = self._lane()
        lane.note_arrival(0.0)
        assert lane.inter_ewma is None  # one arrival has no gap yet
        lane.note_arrival(0.010)
        assert lane.inter_ewma == pytest.approx(0.010)
        lane.note_arrival(0.030)  # gap 0.020, EWMA alpha 0.2
        assert lane.inter_ewma == pytest.approx(0.012)

    def test_filled_batches_shrink_the_window(self):
        lane = self._lane()
        assert lane.delay_s == pytest.approx(0.01)  # starts at the cap
        lane.note_flush(9, max_batch=9, filled=True)
        assert lane.delay_s == pytest.approx(0.005)
        lane.note_flush(9, max_batch=9, filled=True)
        assert lane.delay_s == pytest.approx(0.0025)

    def test_sparse_arrivals_shrink_an_unproductive_window(self):
        lane = self._lane()
        # Observed inter-arrival (1 s) dwarfs the window: waiting attracts
        # no batch-mates, so a deadline flush shrinks rather than grows.
        lane.note_arrival(0.0)
        lane.note_arrival(1.0)
        lane.note_flush(1, max_batch=9, filled=False)
        assert lane.delay_s == pytest.approx(0.005)

    def test_productive_deadline_flushes_grow_back_to_the_cap(self):
        lane = self._lane()
        lane.delay_s = 0.002
        # Fast arrivals (0.5 ms apart): the window is attracting mates but
        # not filling, so it grows — and saturates at the cap.
        lane.note_arrival(0.0)
        lane.note_arrival(0.0005)
        for _ in range(10):
            lane.note_flush(5, max_batch=9, filled=False)
        assert lane.delay_s == pytest.approx(0.01)

    def test_effective_delay_clamps_to_the_fill_horizon(self):
        lane = self._lane()
        lane.note_arrival(0.0)
        lane.note_arrival(0.0002)  # 0.2 ms inter-arrival, horizon 8
        # delay_s is still the 10 ms cap, but filling a batch should only
        # take ~1.6 ms — never wait longer than that.
        assert lane.effective_delay() == pytest.approx(0.0016)

    def test_effective_delay_respects_the_floor_and_cap(self):
        lane = self._lane(min_delay_s=0.001, max_delay_s=0.01)
        lane.note_arrival(0.0)
        lane.note_arrival(1e-6)  # would clamp below the floor
        assert lane.effective_delay() == pytest.approx(0.001)
        lane.inter_ewma = 10.0  # would extrapolate above the cap
        assert lane.effective_delay() == pytest.approx(0.01)

    def test_fixed_window_mode_ignores_the_controller(self):
        # min_delay == max_delay is the fixed window: no arrival gap or
        # flush outcome may move it, neither sparse traffic (which would
        # shrink it), dense traffic (fill-horizon clamp) nor filled batches.
        lane = self._lane(min_delay_s=0.01, max_delay_s=0.01)
        assert lane.effective_delay() == 0.01
        trace = np.random.default_rng(17)
        now = 0.0
        for _ in range(200):
            now += float(trace.exponential(trace.choice([1e-5, 1e-3, 1.0])))
            lane.note_arrival(now)
            assert lane.effective_delay() == 0.01
            lane.note_flush(
                int(trace.integers(1, 10)), max_batch=9, filled=bool(trace.integers(2))
            )
            assert lane.effective_delay() == 0.01

    def test_scheduler_converges_to_the_floor_under_saturation(self):
        searcher = _fitted_searcher()
        queries = _queries(32)
        with MicroBatchScheduler(
            searcher,
            max_batch=4,
            max_delay_us=50_000,
            min_delay_us=100.0,
        ) as scheduler:
            # Full batches over and over: every flush is batch-driven, so
            # the window halves its way down to the floor.
            for _ in range(8):
                futures = scheduler.submit_many(queries[:4])
                for future in futures:
                    future.result(timeout=WAIT_S)
            delay_us = scheduler.lane_stats()["default"]["delay_us"]
        assert delay_us <= 200.0


class TestFairLanes:
    def test_deficit_round_robin_follows_the_configured_weights(self):
        engine = _make_engine(max_batch=4, weights=(("a", 3.0), ("b", 1.0)))
        _stage(engine._lanes["a"], [1] * 16)
        _stage(engine._lanes["b"], [1] * 16)
        engine._closing = True  # drain mode: every lane is always ready
        order = []
        while any(lane.pending for lane in engine._rotation):
            lane, requests = engine._next_batch()
            assert len(requests) == 4
            order.append(lane.name)
        # Saturated 3:1 weights: three heavy-lane batches per light one
        # while both are backlogged, then the leftovers drain.
        assert order[:4] == ["a", "a", "a", "b"]
        assert order.count("a") == order.count("b") == 4
        stats = engine.lane_stats()
        assert stats["a"]["dispatched_queries"] == 16
        assert stats["b"]["dispatched_queries"] == 16

    def test_equal_weights_alternate(self):
        engine = _make_engine(max_batch=2, weights=(("a", 1.0), ("b", 1.0)))
        _stage(engine._lanes["a"], [1] * 6)
        _stage(engine._lanes["b"], [1] * 6)
        engine._closing = True
        order = []
        while any(lane.pending for lane in engine._rotation):
            lane, _ = engine._next_batch()
            order.append(lane.name)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_idle_lane_forfeits_banked_credit(self):
        engine = _make_engine(max_batch=4, weights=(("a", 3.0), ("b", 1.0)))
        _stage(engine._lanes["a"], [1] * 4)
        engine._closing = True
        engine._next_batch()  # lane a drains its only batch
        assert engine._lanes["a"].deficit == 0.0  # 8 leftover credits gone

    def test_lane_handles_route_and_isolate_overload(self):
        searcher = _GatedSearcher()
        searcher.fit(np.random.default_rng(3).normal(size=(32, FEATURES)))
        queries = _queries(8)
        with MicroBatchScheduler(
            searcher, max_batch=1, max_delay_us=0, max_in_flight=1
        ) as scheduler:
            narrow = scheduler.add_lane("narrow", weight=1.0, max_queue=1)
            assert isinstance(narrow, ServingLane)
            # Block the pump inside a default-lane collect, then fill the
            # narrow lane's one-slot queue.
            first = scheduler.submit(queries[0])
            assert _wait_until(lambda: len(searcher.dispatched) == 1)
            queued = narrow.submit(queries[1])
            with pytest.raises(ServingOverloadError, match="narrow"):
                narrow.submit(queries[2])
            # The default lane admits queries regardless of the narrow
            # lane's overload: admission control is per lane.
            wide = scheduler.submit(queries[3])
            searcher.release.set()
            for future in (first, queued, wide):
                assert future.result(timeout=WAIT_S).indices.shape == (1,)
            stats = scheduler.lane_stats()
        assert stats["narrow"]["rejected"] == 1
        assert stats["default"]["rejected"] == 0
        assert stats["narrow"]["dispatched_queries"] == 1
        assert stats["default"]["dispatched_queries"] == 2

    def test_lane_api_validation(self):
        searcher = _fitted_searcher()
        with MicroBatchScheduler(searcher) as scheduler:
            scheduler.add_lane("tenant")
            with pytest.raises(ServingError, match="already exists"):
                scheduler.add_lane("tenant")
            with pytest.raises(ConfigurationError, match="weight"):
                scheduler.add_lane("bad", weight=0.0)
            with pytest.raises(ServingError, match="submit_serving"):
                scheduler.add_lane("worse", searcher=object())
            with pytest.raises(ServingError, match="unknown lane"):
                scheduler.lane("ghost")
            with pytest.raises(ServingError, match="unknown lane"):
                scheduler.submit(_queries(1)[0], lane="ghost")
            assert scheduler.lanes == ("default", "tenant")
        with pytest.raises(ServingError, match="closed"):
            scheduler.add_lane("late")

    def test_lane_results_match_direct_dispatch_per_searcher(self):
        store_a = _fitted_searcher(rows=40, seed=5)
        store_b = _fitted_searcher(rows=24, seed=9)
        queries = _queries(6)
        expected_a = store_a.kneighbors_batch(queries, k=2)
        expected_b = store_b.kneighbors_batch(queries, k=3)
        with MicroBatchScheduler(store_a, max_delay_us=20_000) as scheduler:
            lane_b = scheduler.add_lane("b", searcher=store_b)
            futures_a = [scheduler.submit(q, k=2) for q in queries]
            futures_b = [lane_b.submit(q, k=3) for q in queries]
            for index in range(len(queries)):
                result_a = futures_a[index].result(timeout=WAIT_S)
                result_b = futures_b[index].result(timeout=WAIT_S)
                np.testing.assert_array_equal(
                    result_a.indices, expected_a[index].indices
                )
                np.testing.assert_array_equal(
                    result_b.indices, expected_b[index].indices
                )
                assert result_b.labels == expected_b[index].labels


class TestBitwiseParity:
    """Coalescing is transport, never semantics: demuxed rows are bitwise
    identical to direct ``kneighbors_batch`` calls, per worker count."""

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_concurrent_clients_match_direct_batches(self, num_workers):
        rows, queries_n = 96, 24
        features = RNG.normal(size=(rows, FEATURES))
        labels = np.arange(rows)
        queries = RNG.normal(size=(queries_n, FEATURES))

        reference = make_searcher("mcam-3bit", num_features=FEATURES, seed=5, shards=2)
        reference.fit(features, labels)
        expected = reference.kneighbors_batch(queries, k=3)

        with make_searcher(
            "mcam-3bit",
            num_features=FEATURES,
            seed=5,
            shards=2,
            executor="processes",
            num_workers=num_workers,
        ) as sharded:
            sharded.fit(features, labels)
            with MicroBatchScheduler(
                sharded, max_batch=8, max_delay_us=5_000
            ) as scheduler:
                results = [None] * queries_n
                errors = []

                def client(offset):
                    try:
                        for i in range(offset, queries_n, 4):
                            results[i] = scheduler.submit(queries[i], k=3).result(
                                timeout=WAIT_S
                            )
                    except Exception as exc:  # pragma: no cover - surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(c,)) for c in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not errors
                stats = scheduler.stats.snapshot()
        assert stats["completed"] == queries_n
        for index, result in enumerate(results):
            np.testing.assert_array_equal(result.indices, expected[index].indices)
            np.testing.assert_array_equal(result.scores, expected[index].scores)
            assert result.labels == expected[index].labels

    def test_single_process_scheduler_matches_direct_batches(self):
        searcher = _fitted_searcher(rows=80)
        queries = _queries(16)
        expected = searcher.kneighbors_batch(queries, k=4)
        with MicroBatchScheduler(searcher, max_batch=5) as scheduler:
            futures = [scheduler.submit(q, k=4) for q in queries]
            for index, future in enumerate(futures):
                result = future.result(timeout=WAIT_S)
                np.testing.assert_array_equal(result.indices, expected[index].indices)
                np.testing.assert_array_equal(result.scores, expected[index].scores)
                assert result.labels == expected[index].labels
