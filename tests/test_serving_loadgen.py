"""Load generators: warmup exclusion, the requested ``k``, report math.

The CI gates compare LoadReports across scheduler configurations, so the
generators themselves must be beyond suspicion: both loops must time on
one monotonic clock, exclude warmup the same way (by *submission* time
against the WarmupClock cutoff) and pass the same ``k`` with every
request, warmup included.  These tests drive the loops against
synthetic targets whose latency profile is controlled, so warmup leakage
would be visible as an order-of-magnitude shift in the reported
percentiles.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.exceptions import ServingOverloadError
from repro.serving import LoadReport, WarmupClock, run_closed_loop, run_open_loop

FEATURES = 4


def _queries(count):
    return np.zeros((count, FEATURES))


class _ScriptedTarget:
    """A submit target with a controllable latency schedule.

    The first ``slow_first`` requests (in submission order, across all
    client threads) sleep ``slow_s`` before resolving; the rest resolve
    immediately.  Thread-safe; records every requested ``k`` in order.
    """

    def __init__(self, slow_first=0, slow_s=0.05):
        self._lock = threading.Lock()
        self._count = 0
        self.slow_first = slow_first
        self.slow_s = slow_s
        self.seen_k = []

    def submit(self, query, k=1):
        with self._lock:
            index = self._count
            self._count += 1
            self.seen_k.append(k)
        if index < self.slow_first:
            time.sleep(self.slow_s)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        future.set_result((np.zeros(k, dtype=np.int64), np.zeros(k)))
        return future


class TestWarmupClock:
    def test_nothing_is_measured_before_the_cutoff(self):
        clock = WarmupClock()
        assert clock.cutoff == float("inf")
        assert not clock.in_measurement(clock.now())

    def test_measurement_keys_on_submission_time(self):
        clock = WarmupClock()
        before = clock.now()
        cutoff = clock.start_measurement()
        assert clock.cutoff == cutoff
        # Submitted before the cutoff: excluded even if it completes after.
        assert not clock.in_measurement(before)
        assert clock.in_measurement(cutoff)
        assert clock.in_measurement(clock.now())

    def test_cutoff_may_be_set_at_a_future_instant(self):
        clock = WarmupClock()
        cutoff = clock.start_measurement(at=clock.now() + 60.0)
        assert not clock.in_measurement(clock.now())
        assert clock.in_measurement(cutoff + 1.0)


class TestClosedLoopWarmup:
    def test_warmup_requests_are_excluded_from_the_distribution(self):
        # 8 warmup requests are slow (50 ms); everything measured is fast.
        # Without exclusion, p99 would sit near 50 ms instead of ~0.
        clients, warmup, measured = 4, 2, 8
        target = _ScriptedTarget(slow_first=clients * warmup, slow_s=0.05)
        report = run_closed_loop(
            target,
            _queries(16),
            clients=clients,
            requests_per_client=measured,
            warmup_per_client=warmup,
        )
        assert report.warmup == clients * warmup
        assert report.completed == clients * measured
        assert len(report.latencies_ms) == report.completed
        assert report.p99_ms < 25.0  # the 50 ms warmup cost never leaks

    def test_no_warmup_measures_everything(self):
        target = _ScriptedTarget()
        report = run_closed_loop(
            target, _queries(8), clients=2, requests_per_client=4
        )
        assert report.warmup == 0
        assert report.completed == 8

    def test_every_request_carries_k(self):
        target = _ScriptedTarget()
        run_closed_loop(
            target,
            _queries(12),
            clients=2,
            requests_per_client=3,
            k=5,
            warmup_per_client=1,
        )
        assert target.seen_k == [5] * 8


class TestOpenLoopWarmup:
    def test_warmup_window_is_excluded_but_arrivals_never_pause(self):
        target = _ScriptedTarget()
        report = run_open_loop(
            target,
            _queries(16),
            rate_qps=400.0,
            duration_s=0.2,
            warmup_s=0.1,
        )
        assert report.warmup > 0  # the warmup window saw arrivals
        assert report.completed > 0
        assert len(report.latencies_ms) == report.completed
        # Duration covers the measured window only, so QPS tracks the
        # offered rate rather than being diluted by warmup time.
        assert report.duration_s < 0.2 * 1.5
        assert report.completed + report.warmup == target._count

    def test_every_arrival_carries_k(self):
        target = _ScriptedTarget()
        report = run_open_loop(
            target,
            _queries(4),
            rate_qps=300.0,
            duration_s=0.05,
            k=5,
            warmup_s=0.05,
        )
        assert report.warmup > 0
        assert target.seen_k == [5] * target._count

    def test_overload_during_warmup_is_not_a_measured_rejection(self):
        class _Overloaded:
            def submit(self, query, k=1):
                raise ServingOverloadError("full")

        report = run_open_loop(
            _Overloaded(),
            _queries(4),
            rate_qps=300.0,
            duration_s=0.05,
            warmup_s=0.05,
        )
        assert report.warmup > 0
        assert report.rejected > 0  # measured-window rejections still count
        assert report.completed == 0


class TestLoadReport:
    def test_percentile_properties(self):
        report = LoadReport(
            completed=4, duration_s=2.0, latencies_ms=[1.0, 2.0, 3.0, 4.0]
        )
        assert report.qps == pytest.approx(2.0)
        assert report.p50_ms == pytest.approx(2.5)
        assert report.p95_ms == pytest.approx(3.85)
        assert report.p99_ms == pytest.approx(3.97)
        assert report.mean_ms == pytest.approx(2.5)

    def test_empty_report_is_nan_not_crash(self):
        report = LoadReport()
        assert report.qps == 0.0
        assert np.isnan(report.p50_ms)
        assert np.isnan(report.p95_ms)
        assert np.isnan(report.mean_ms)
        assert "qps=0.0" in report.summary()
