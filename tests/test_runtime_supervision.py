"""Fault tolerance: supervision policy, fault injection, chaos recovery.

The recovery contract extends the transport's: a worker killed mid-batch,
a hung worker, a corrupt or deleted spool entry, or a lost shared-memory
segment changes *how long* a batch takes — never *what it computes* and
never whether the process survives.  These tests pin the policy objects
(:class:`~repro.runtime.supervision.CircuitBreaker` and
:class:`~repro.runtime.supervision.PoolSupervisor`, driven by fake
clocks), the determinism of the fault-injection harness, the spool
integrity headers, and — most importantly — the end-to-end chaos
scenarios: every injected fault either heals in place and replays the
idempotent batch to a bitwise-identical result, or fails typed within its
deadline, with no hang and no leaked ring slot either way.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import SoftwareSearcher, make_searcher
from repro.core.search import MCAMSearcher
from repro.core.sharding import ShardedSearcher
from repro.exceptions import (
    ConfigurationError,
    ServingTimeoutError,
    SpoolIntegrityError,
    WorkerCrashError,
)
from repro.runtime import (
    CircuitBreaker,
    FaultInjector,
    PersistentProcessPool,
    PoolSupervisor,
    ProcessShardExecutor,
)
from repro.runtime.process_pool import _evict_searcher_entries
from repro.runtime.transport import (
    load_spool_payload,
    shared_memory_available,
    verify_spool_entry,
    write_spool_bundle,
    write_spool_pickle,
)

WORKERS = 2

RNG = np.random.default_rng(20260807)


class FakeClock:
    """Injectable monotonic clock the policy tests advance by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _sleep_job(seconds):
    """Module-level so the pool can ship it to a worker."""
    time.sleep(seconds)
    return seconds


def _echo_job(value):
    return value


def _exit_job(_):
    os._exit(13)  # simulate an abrupt worker death (OOM-kill shaped)


class _SleepyShard:
    """A shard whose ranking hangs — the hung-worker chaos payload."""

    def __init__(self, sleep_s: float) -> None:
        self.sleep_s = sleep_s

    def _rank_batch(self, queries, rng=None, k=1):
        time.sleep(self.sleep_s)
        rows = queries.shape[0]
        return (
            np.zeros((rows, k), dtype=np.int64),
            np.zeros((rows, k), dtype=np.float64),
        )


class _SlowShard:
    """Delegating shard that ranks slowly — results stay bitwise identical.

    Used by the kill-worker scenarios to make the crash deterministic: a
    sub-millisecond batch can finish on the surviving worker before the
    pool notices the death, while a batch still running when the death is
    detected reliably fails with ``BrokenProcessPool``.
    """

    def __init__(self, shard, delay_s: float) -> None:
        self.shard = shard
        self.delay_s = delay_s

    def _rank_batch(self, queries, rng=None, k=1):
        time.sleep(self.delay_s)
        return self.shard._rank_batch(queries, rng=rng, k=k)


def two_shard_jobs(executor, queries, k=2, searcher_id="chaos", epoch=1, delay_s=0.0):
    """Publish two SoftwareSearcher shards and build their cached-rank jobs.

    Mirrors what :class:`~repro.core.sharding.ShardedSearcher` dispatches;
    returns ``(jobs, expected)`` where ``expected`` is the per-shard
    globally indexed result an undisturbed run must match bitwise.
    """
    features = np.random.default_rng(11).normal(size=(16, 4))
    shards = [
        SoftwareSearcher("euclidean").fit(features[:8]),
        SoftwareSearcher("euclidean").fit(features[8:]),
    ]
    paths = [
        executor.publish_shard(
            searcher_id,
            index,
            (_SlowShard(shard, delay_s) if delay_s else shard, np.arange(8) + 8 * index),
            epoch=epoch,
        )
        for index, shard in enumerate(shards)
    ]
    jobs = [
        (searcher_id, index, epoch, paths[index], np.random.default_rng(0), queries, k)
        for index in range(2)
    ]
    expected = []
    for index, shard in enumerate(shards):
        local_indices, scores = shard._rank_batch(
            queries, rng=np.random.default_rng(0), k=k
        )
        expected.append((local_indices + 8 * index, scores))
    return jobs, expected


def damage_spool_header(path):
    """Overwrite a pickle entry's magic, or delete a bundle's manifest."""
    if os.path.isdir(path):
        os.remove(os.path.join(path, "manifest.json"))
    else:
        with open(path, "r+b") as fh:
            fh.write(b"\x00" * 5)


def assert_batch_matches(results, expected):
    for (indices, scores), (want_indices, want_scores) in zip(results, expected):
        np.testing.assert_array_equal(indices, want_indices)
        np.testing.assert_array_equal(scores, want_scores)


# ----------------------------------------------------------------------
# Policy objects (unit, fake clocks)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_closed_breaker_allows_and_counts_nothing(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0, clock=FakeClock())
        assert breaker.allows()
        assert not breaker.tripped
        assert breaker.failures == 0

    def test_trips_at_threshold_not_before(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0, clock=FakeClock())
        breaker.record_failure()
        assert breaker.allows() and not breaker.tripped
        breaker.record_failure()
        assert breaker.tripped
        assert not breaker.allows()

    def test_cooldown_admits_a_probe_and_its_outcome_decides(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allows()
        clock.advance(10.0)
        # Half-open: still tripped, but a probe may pass — and checking is
        # read-only, so racing probes all see the same answer.
        assert breaker.allows() and breaker.tripped
        assert breaker.allows()
        breaker.record_failure()  # probe failed: re-open, fresh cooldown
        assert not breaker.allows()
        clock.advance(10.0)
        assert breaker.allows()
        breaker.record_success()  # probe passed: fully closed
        assert not breaker.tripped
        assert breaker.failures == 0

    def test_validation(self):
        with pytest.raises(Exception):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=0.0)


class TestPoolSupervisor:
    @staticmethod
    def _supervisor(heals, clock, **kwargs):
        return PoolSupervisor(
            lambda: heals.append(clock()), clock=clock, **kwargs
        )

    def test_concurrent_observers_of_one_crash_heal_exactly_once(self):
        heals, clock = [], FakeClock()
        supervisor = self._supervisor(heals, clock)
        observed = supervisor.generation
        assert supervisor.ensure_healed(observed) == observed + 1
        # A second collect that dispatched into the same generation finds
        # it already healed and does not heal again.
        assert supervisor.ensure_healed(observed) == observed + 1
        assert len(heals) == 1
        assert supervisor.total_restarts == 1

    def test_demotes_after_restart_budget_and_cooldown_reprobes(self):
        heals, clock = [], FakeClock()
        supervisor = self._supervisor(
            heals, clock, max_restarts=2, restart_window_s=30.0, cooldown_s=5.0
        )
        supervisor.ensure_healed(supervisor.generation)
        assert not supervisor.demoted and supervisor.pool_allowed
        clock.advance(1.0)
        supervisor.ensure_healed(supervisor.generation)
        assert supervisor.demoted
        assert not supervisor.pool_allowed
        clock.advance(5.0)
        # Cooled down: still demoted, but dispatches may probe the pool.
        assert supervisor.demoted and supervisor.pool_allowed
        supervisor.record_success()
        assert not supervisor.demoted
        assert supervisor.pool_allowed

    def test_restarts_outside_the_window_are_pruned(self):
        heals, clock = [], FakeClock()
        supervisor = self._supervisor(
            heals, clock, max_restarts=2, restart_window_s=10.0, cooldown_s=5.0
        )
        supervisor.ensure_healed(supervisor.generation)
        clock.advance(11.0)  # first restart ages out of the window
        supervisor.ensure_healed(supervisor.generation)
        assert not supervisor.demoted
        assert supervisor.total_restarts == 2

    def test_success_clears_the_restart_history(self):
        heals, clock = [], FakeClock()
        supervisor = self._supervisor(
            heals, clock, max_restarts=2, restart_window_s=30.0, cooldown_s=5.0
        )
        supervisor.ensure_healed(supervisor.generation)
        supervisor.record_success()
        clock.advance(1.0)
        supervisor.ensure_healed(supervisor.generation)
        assert not supervisor.demoted  # history cleared: 1 strike, not 2


# ----------------------------------------------------------------------
# Fault injector (unit)
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_arm_validation(self):
        injector = FaultInjector()
        with pytest.raises(ConfigurationError, match="unknown fault"):
            injector.arm("meteor_strike")
        with pytest.raises(ConfigurationError, match="probability"):
            injector.arm("kill_worker", probability=1.5)
        with pytest.raises(ConfigurationError, match="count"):
            injector.arm("kill_worker", count=0)
        with pytest.raises(ConfigurationError, match="delay_s"):
            injector.arm("delay_collect", delay_s=-1.0)

    def test_at_occurrence_pins_the_fault_to_one_site_visit(self):
        injector = FaultInjector().arm("delay_collect", at_occurrence=1, delay_s=0.0)
        injector.fire("collect", executor=None)
        assert injector.fired == []
        injector.fire("collect", executor=None)
        assert [f["occurrence"] for f in injector.fired] == [1]
        injector.fire("collect", executor=None)  # count=1: armed once, fired once
        assert len(injector.fired) == 1

    def test_count_bounds_total_fires(self):
        injector = FaultInjector().arm("delay_collect", count=2, delay_s=0.0)
        for _ in range(4):
            injector.fire("collect", executor=None)
        assert len(injector.fired) == 2

    def test_seeded_probability_schedule_is_reproducible(self):
        def schedule(seed):
            injector = FaultInjector(seed=seed).arm(
                "delay_collect", probability=0.5, count=100, delay_s=0.0
            )
            for _ in range(32):
                injector.fire("collect", executor=None)
            return [f["occurrence"] for f in injector.fired]

        first = schedule(7)
        assert first  # p=0.5 over 32 draws: firing never is astronomically unlikely
        assert schedule(7) == first

    def test_faults_with_nothing_to_break_log_none_detail(self):
        with ProcessShardExecutor(num_workers=1) as executor:  # pool never started
            injector = FaultInjector().arm("kill_worker").arm("corrupt_spool")
            executor.fault_injector = injector
            injector.fire("dispatch", executor)
        assert {f["fault"]: f["detail"] for f in injector.fired} == {
            "kill_worker": None,
            "corrupt_spool": None,
        }


# ----------------------------------------------------------------------
# Spool integrity headers
# ----------------------------------------------------------------------
class TestSpoolIntegrity:
    @staticmethod
    def _payload():
        return (SoftwareSearcher("euclidean").fit(RNG.normal(size=(8, 4))), np.arange(8))

    def test_pickle_spool_round_trips_and_verifies(self, tmp_path):
        path = write_spool_pickle(str(tmp_path / "entry.pkl"), self._payload())
        assert verify_spool_entry(path)
        shard, index_map = load_spool_payload(path)
        np.testing.assert_array_equal(index_map, np.arange(8))
        assert shard.num_entries == 8

    def test_corrupt_pickle_spool_fails_checksum(self, tmp_path):
        path = write_spool_pickle(str(tmp_path / "entry.pkl"), self._payload())
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            fh.write(b"\xde\xad\xbe\xef")
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="checksum"):
            load_spool_payload(path)

    def test_missing_entry_raises_typed(self, tmp_path):
        path = str(tmp_path / "gone.pkl")
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="missing"):
            load_spool_payload(path)

    def test_corrupt_bundle_payload_fails_checksum(self, tmp_path):
        path = write_spool_bundle(str(tmp_path / "bundle"), self._payload())
        assert verify_spool_entry(path)
        payload_path = os.path.join(path, "payload.pkl")
        size = os.path.getsize(payload_path)
        with open(payload_path, "r+b") as fh:
            fh.seek(size // 2)
            fh.write(b"\xde\xad\xbe\xef")
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError):
            load_spool_payload(path)

    def test_pickle_spool_with_overwritten_magic_fails_typed(self, tmp_path):
        # Every spool entry is written with its header, so a file without
        # one is damaged — never an older format to load unverified.
        path = write_spool_pickle(str(tmp_path / "entry.pkl"), self._payload())
        damage_spool_header(path)
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="integrity header"):
            load_spool_payload(path)

    def test_bundle_without_manifest_fails_typed(self, tmp_path):
        path = write_spool_bundle(str(tmp_path / "bundle"), self._payload())
        damage_spool_header(path)
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="manifest"):
            load_spool_payload(path)


# ----------------------------------------------------------------------
# Typed timeouts on the pool primitive
# ----------------------------------------------------------------------
class TestPoolTimeouts:
    def test_map_with_timeout_raises_typed_instead_of_deadlocking(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            with pytest.raises(ServingTimeoutError, match="deadline"):
                pool.map(_sleep_job, [30.0, 30.0], timeout=0.3)
        finally:
            pool.terminate()  # reap the sleepers; close() would wait on them

    def test_map_within_timeout_returns_results_in_order(self):
        with PersistentProcessPool(num_workers=WORKERS) as pool:
            assert pool.map(_echo_job, [1, 2, 3], timeout=30.0) == [1, 2, 3]

    def test_map_over_crashing_workers_raises_worker_crash(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            with pytest.raises(WorkerCrashError, match="died mid-batch"):
                pool.map(_exit_job, [0, 1], timeout=30.0)
        finally:
            pool.terminate()

    def test_probe_and_kill_one_worker(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            assert pool.probe()
            pids = pool.worker_pids()
            assert len(pids) == WORKERS
            assert pool.kill_one_worker() == pids[0]
        finally:
            pool.terminate()


# ----------------------------------------------------------------------
# End-to-end chaos recovery
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosRecovery:
    def test_worker_kill_mid_batch_heals_and_replays_bitwise_pickle(self):
        queries = RNG.normal(size=(5, 4))
        with ProcessShardExecutor(num_workers=WORKERS, transport="pickle") as executor:
            jobs, expected = two_shard_jobs(executor, queries, delay_s=0.2)
            assert_batch_matches(executor.map_cached(jobs), expected)  # warm pool
            injector = FaultInjector().arm("kill_worker")
            executor.fault_injector = injector
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert [f["fault"] for f in injector.fired] == ["kill_worker"]
            assert isinstance(injector.fired[0]["detail"], int)
            assert executor.supervisor.total_restarts == 1
            # The healed pool serves undisturbed steady state.
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert executor.supervisor.total_restarts == 1

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_worker_kill_mid_batch_heals_and_replays_bitwise_shm(self):
        queries = RNG.normal(size=(5, 4))
        with ProcessShardExecutor(num_workers=WORKERS, transport="shm") as executor:
            jobs, expected = two_shard_jobs(executor, queries, delay_s=0.2)
            assert_batch_matches(executor.map_cached(jobs), expected)
            executor.fault_injector = FaultInjector().arm("kill_worker")
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert executor.supervisor.total_restarts == 1
            # No ring-slot leak: the crashed dispatch released its slot and
            # the heal re-armed the ring.
            assert executor.ring_in_flight == 0
            assert executor.active_transport == "shm"
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert executor.ring_in_flight == 0

    def test_hung_worker_fails_typed_within_deadline_and_heals_behind(self):
        queries = RNG.normal(size=(3, 4))
        with ProcessShardExecutor(
            num_workers=WORKERS, transport="pickle", dispatch_timeout_s=0.25
        ) as executor:
            searcher_id = "sleepy"
            paths = [
                executor.publish_shard(
                    searcher_id, index, (_SleepyShard(30.0), np.arange(4)), epoch=1
                )
                for index in range(2)
            ]
            jobs = [
                (searcher_id, index, 1, paths[index], None, queries, 2)
                for index in range(2)
            ]
            started = time.monotonic()
            with pytest.raises(ServingTimeoutError):
                executor.map_cached(jobs, timeout=1.0)
            # Typed failure within roughly the budget plus the heals — not
            # the 30 s the hung workers would have cost.
            assert time.monotonic() - started < 15.0
            assert executor.supervisor.total_restarts >= 1
            # The pool was healed behind the raise: the next batch works.
            good_jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.map_cached(good_jobs), expected)

    @pytest.mark.parametrize("fault", ["corrupt_spool", "drop_spool"])
    def test_spool_faults_are_repaired_and_replayed_bitwise(self, fault):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=1, transport="pickle") as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.map_cached(jobs), expected)
            # Evict the single worker's resident shards so the next batch
            # must reload from the (about to be broken) spool.
            assert executor._pool.broadcast(_evict_searcher_entries, "chaos") == 1
            injector = FaultInjector().arm(fault)
            executor.fault_injector = injector
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert [f["fault"] for f in injector.fired] == [fault]
            assert injector.fired[0]["detail"] is not None
            # Spool repair is not a pool restart.
            assert executor.supervisor.total_restarts == 0
            for path in executor._published.values():
                assert verify_spool_entry(path)

    @pytest.mark.parametrize(
        "transport",
        [
            "pickle",
            pytest.param(
                "shm",
                marks=pytest.mark.skipif(
                    not shared_memory_available(), reason="no shared memory on host"
                ),
            ),
        ],
    )
    def test_damaged_headers_are_republished_and_replayed_bitwise(self, transport):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=1, transport=transport) as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.map_cached(jobs), expected)
            # Force the next batch to reload from the spool.
            assert executor._pool.broadcast(_evict_searcher_entries, "chaos") == 1
            path = executor._published[("chaos", 0)]
            damage_spool_header(path)
            assert not verify_spool_entry(path)
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert executor.supervisor.total_restarts == 0
            for entry in executor._published.values():
                assert verify_spool_entry(entry)

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_lost_segment_demotes_to_pickle_and_replays_bitwise(self):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=WORKERS, transport="auto") as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.map_cached(jobs), expected)
            injector = FaultInjector().arm("corrupt_segment")
            executor.fault_injector = injector
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert [f["fault"] for f in injector.fired] == ["corrupt_segment"]
            assert executor._shm_breaker.tripped
            assert executor.active_transport == "pickle"
            assert executor.ring_in_flight == 0
            # Transport demotion is not a pool restart.
            assert executor.supervisor.total_restarts == 0

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_shm_breaker_reprobes_after_cooldown(self):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(
            num_workers=WORKERS, transport="auto", shm_cooldown_s=0.2
        ) as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.map_cached(jobs), expected)
            executor.fault_injector = FaultInjector().arm("corrupt_segment")
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert executor.active_transport == "pickle"
            time.sleep(0.25)
            # Cooled down: the next batch probes shm, and its success
            # closes the breaker.
            assert executor.active_transport == "shm"
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert not executor._shm_breaker.tripped

    def test_restart_budget_demotes_to_serial_then_reprobes(self):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(
            num_workers=WORKERS,
            transport="pickle",
            max_restarts=1,
            serial_cooldown_s=1.5,
        ) as executor:
            slow_jobs, slow_expected = two_shard_jobs(executor, queries, delay_s=0.2)
            fast_jobs, fast_expected = two_shard_jobs(
                executor, queries, searcher_id="chaos-fast"
            )
            assert_batch_matches(executor.map_cached(slow_jobs), slow_expected)
            executor.fault_injector = FaultInjector().arm("kill_worker")
            # The crash exhausts the 1-restart budget; the replay runs
            # in-process serially — bitwise identical, pool left down.
            assert_batch_matches(executor.map_cached(slow_jobs), slow_expected)
            assert executor.supervisor.demoted
            assert not executor._pool.is_live
            # Steady-state demoted batches stay serial (and correct).
            assert_batch_matches(executor.map_cached(fast_jobs), fast_expected)
            assert not executor._pool.is_live
            time.sleep(1.6)
            # Cooled down: the next batch probes the pool; success lifts
            # the demotion.
            assert_batch_matches(executor.map_cached(fast_jobs), fast_expected)
            assert not executor.supervisor.demoted
            assert executor._pool.is_live

    def test_deadline_exhausted_before_retry_fails_typed(self):
        queries = RNG.normal(size=(3, 4))
        with ProcessShardExecutor(num_workers=WORKERS, transport="pickle") as executor:
            searcher_id = "sleepy-budget"
            paths = [
                executor.publish_shard(
                    searcher_id, index, (_SleepyShard(30.0), np.arange(4)), epoch=1
                )
                for index in range(2)
            ]
            jobs = [
                (searcher_id, index, 1, paths[index], None, queries, 2)
                for index in range(2)
            ]
            # The whole budget burns on the first attempt; the retry must
            # not dispatch 30 s of serial work — it fails typed instead.
            started = time.monotonic()
            with pytest.raises(ServingTimeoutError, match="deadline"):
                executor.map_cached(jobs, timeout=0.3)
            assert time.monotonic() - started < 15.0


# ----------------------------------------------------------------------
# Scheduler over a crashing executor
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestSchedulerUnderFaults:
    def test_close_drains_while_a_crashed_batch_retries(self):
        from repro.serving import MicroBatchScheduler

        features = np.random.default_rng(3).normal(size=(48, 10))
        labels = np.arange(48)
        queries = np.random.default_rng(4).normal(size=(6, 10))
        reference = make_searcher("mcam-3bit", num_features=10, seed=8, shards=2)
        reference.fit(features, labels)
        expected = reference.kneighbors_batch(queries, k=3)
        with ProcessShardExecutor(num_workers=WORKERS, transport="pickle") as executor:
            sharded = ShardedSearcher(
                lambda: MCAMSearcher(bits=3, seed=8), num_shards=2, executor=executor
            )
            sharded.fit(features, labels)
            sharded.kneighbors_batch(queries, k=3)  # warm pool and spool
            executor.fault_injector = FaultInjector().arm("kill_worker")
            with MicroBatchScheduler(
                sharded,
                max_batch=len(queries),
                max_delay_us=500.0,
                request_timeout_s=30.0,
            ) as scheduler:
                futures = [scheduler.submit(query, k=3) for query in queries]
                # Exiting the block closes while the crashed batch's heal
                # and retry are in flight on the pump.
            # close() drained: every admitted future resolved — no hang,
            # no dropped request.
            assert all(future.done() for future in futures)
            for index, future in enumerate(futures):
                result = future.result(timeout=5.0)
                np.testing.assert_array_equal(result.indices, expected[index].indices)
                np.testing.assert_array_equal(result.scores, expected[index].scores)
            # At most one heal: the injected kill either crashed a batch
            # (healed + retried transparently) or the tiny batch finished
            # on the surviving worker before the death was noticed.
            assert executor.supervisor.total_restarts <= 1
            sharded.close()


# ----------------------------------------------------------------------
# Eviction against dead workers
# ----------------------------------------------------------------------
class TestEvictionRobustness:
    def test_evict_broadcast_survives_already_dead_workers(self):
        queries = RNG.normal(size=(3, 4))
        with ProcessShardExecutor(num_workers=WORKERS, transport="pickle") as executor:
            jobs, expected = two_shard_jobs(executor, queries, searcher_id="doomed")
            assert_batch_matches(executor.map_cached(jobs), expected)
            assert executor._pool.kill_one_worker() is not None
            # Best-effort hygiene must swallow the broken pool, and the
            # bookkeeping must be gone regardless.
            executor.evict("doomed", broadcast=True)
            assert not executor._published
            assert not executor._payloads
