"""Fault tolerance: supervision policy, fault injection, chaos recovery.

The recovery contract extends the transport's: a worker killed mid-batch,
a hung worker, a corrupt or deleted spool entry, or a lost shared-memory
segment changes *how long* a batch takes — never *what it computes* and
never whether the process survives.  These tests pin the policy object
(:class:`~repro.runtime.supervision.PoolSupervisor`, driven by fake
clocks), the determinism of the fault-injection harness, spool bundle
integrity, and — most importantly — the end-to-end chaos
scenarios: every injected fault either heals in place and replays the
idempotent batch to a bitwise-identical result, or fails typed within its
deadline, with no hang and no leaked ring segment either way.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
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
    FaultInjector,
    PersistentProcessPool,
    PoolSupervisor,
    ProcessShardExecutor,
    worker_shard_cache_epochs,
)
from repro.runtime import transport as transport_module
from repro.runtime.process_pool import _evict_searcher_entries
from repro.runtime.transport import (
    load_spool_payload,
    verify_spool_entry,
    write_spool_bundle,
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


def _resident_shards(searcher_id):
    """Shards of ``searcher_id`` resident in the calling (worker) process."""
    return sorted(key[1] for key in worker_shard_cache_epochs() if key[0] == searcher_id)


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


def two_shard_jobs(
    executor, queries, k=2, searcher_id="chaos", epoch=1, delay_s=0.0, rows=8
):
    """Publish two SoftwareSearcher shards and build their cached-rank jobs.

    Mirrors what :class:`~repro.core.sharding.ShardedSearcher` dispatches;
    returns ``(jobs, expected)`` where ``expected`` is the per-shard
    globally indexed result an undisturbed run must match bitwise.  Each
    shard holds ``rows`` rows.
    """
    features = np.random.default_rng(11).normal(size=(2 * rows, 4))
    shards = [
        SoftwareSearcher("euclidean").fit(features[:rows]),
        SoftwareSearcher("euclidean").fit(features[rows:]),
    ]
    paths = [
        executor.publish_shard(
            searcher_id,
            index,
            (_SlowShard(shard, delay_s) if delay_s else shard, np.arange(rows) + rows * index),
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
        expected.append((local_indices + rows * index, scores))
    return jobs, expected


#: Ways to damage a spool entry outside its buffers, each checked typed.
ENTRY_DAMAGE = ("truncated", "magic", "header")


def damage_entry(path, damage):
    """Truncate a spool entry, or change one byte of its magic or its header.

    The header byte is the first digit of the stream length, so the header
    stays valid JSON and only the CRC can tell.
    """
    if damage == "truncated":
        os.truncate(path, os.path.getsize(path) // 2)
        return
    with open(path, "r+b") as fh:
        data = fh.read()
        key = b'"stream_bytes": '
        offset = 0 if damage == "magic" else data.index(key) + len(key)
        fh.seek(offset)
        fh.write(b"8" if data[offset : offset + 1] == b"9" else b"9")


def buffer_spans(path):
    """The ``[offset, size]`` of every out-of-band buffer, from an entry's header."""
    prefix = transport_module._SPOOL_PREFIX
    with open(path, "rb") as fh:
        _, _, header_bytes = prefix.unpack(fh.read(prefix.size))
        return json.loads(fh.read(header_bytes))["buffers"]


def assert_batch_matches(results, expected):
    for (indices, scores), (want_indices, want_scores) in zip(results, expected):
        np.testing.assert_array_equal(indices, want_indices)
        np.testing.assert_array_equal(scores, want_scores)


# ----------------------------------------------------------------------
# Policy objects (unit, fake clocks)
# ----------------------------------------------------------------------
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
# Spool entry integrity
# ----------------------------------------------------------------------
class TestSpoolIntegrity:
    @staticmethod
    def _payload():
        return (SoftwareSearcher("euclidean").fit(RNG.normal(size=(8, 4))), np.arange(8))

    def test_missing_entry_raises_typed(self, tmp_path):
        path = str(tmp_path / "gone")
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="missing"):
            load_spool_payload(path)

    def test_corrupt_bundle_payload_fails_checksum(self, tmp_path):
        path = write_spool_bundle(str(tmp_path / "bundle"), self._payload())
        assert verify_spool_entry(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            fh.write(b"\xde\xad\xbe\xef")
        assert os.path.getsize(path) == size
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="checksum"):
            load_spool_payload(path)

    def test_rewritten_stored_row_fails_checksum_before_unpickling(self, tmp_path, monkeypatch):
        # One stored row of a 4096-row 3-bit MCAM shard lives in its 2 MB
        # states buffer, which workers memory-map and rank from.
        rng = np.random.default_rng(5)
        searcher = make_searcher("mcam-3bit", num_features=64, seed=3)
        searcher.fit(rng.normal(size=(4096, 64)), rng.integers(0, 5, 4096))
        payload = (searcher, np.arange(4096))
        path = write_spool_bundle(str(tmp_path / "shard-e1"), payload)
        offset, nbytes = max(buffer_spans(path), key=lambda span: span[1])
        states = searcher.array.stored_states
        assert nbytes == states.nbytes
        row = 1234
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(offset + row * states[row].nbytes)
            fh.write(states[row + 1].tobytes())
        assert os.path.getsize(path) == size
        unpickled = []
        monkeypatch.setattr(
            transport_module.pickle, "loads", lambda *args, **kwargs: unpickled.append(args)
        )
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="checksum"):
            load_spool_payload(path)
        assert unpickled == []
        monkeypatch.undo()
        # The repair rewrites the entry from the payload, which then serves bitwise.
        write_spool_bundle(path, payload)
        loaded, index_map = load_spool_payload(path)
        queries = rng.normal(size=(8, 64))
        want = searcher._rank_batch(queries, rng=np.random.default_rng(0), k=4)
        got = loaded._rank_batch(queries, rng=np.random.default_rng(0), k=4)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(index_map, np.arange(4096))

    @pytest.mark.parametrize("damage", ENTRY_DAMAGE)
    def test_damaged_prefix_or_header_fails_typed(self, tmp_path, damage):
        path = write_spool_bundle(str(tmp_path / "bundle"), self._payload())
        damage_entry(path, damage)
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="checksum"):
            load_spool_payload(path)

    def test_empty_entry_fails_typed(self, tmp_path):
        path = str(tmp_path / "empty")
        open(path, "wb").close()
        assert not verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError, match="unreadable"):
            load_spool_payload(path)

    def test_concurrent_repairs_rewrite_each_broken_entry_once(self):
        # Collects on several threads can meet the same broken entries at
        # once; two interleaved writers of one staging file would publish
        # a torn entry.
        interval = sys.getswitchinterval()
        with ProcessShardExecutor(num_workers=1) as executor:
            paths = [
                executor.publish_shard("race", index, self._payload(), epoch=1)
                for index in range(3)
            ]
            for path in paths:
                damage_entry(path, "header")
            repaired = []
            threads = [
                threading.Thread(target=lambda: repaired.append(executor._repair_spool()))
                for _ in range(8)
            ]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(repaired) == len(threads) and sum(repaired) == len(paths)
            assert all(verify_spool_entry(path) for path in paths)

    def test_published_entry_is_one_file_that_evict_and_close_remove(self):
        with ProcessShardExecutor(num_workers=1) as executor:
            first = executor.publish_shard("files", 0, self._payload(), epoch=1)
            second = executor.publish_shard("files", 1, self._payload(), epoch=1)
            spool = os.path.dirname(first)
            assert sorted(os.listdir(spool)) == sorted(
                os.path.basename(path) for path in (first, second)
            )
            assert all(os.path.isfile(path) for path in (first, second))
            # A new epoch replaces the previous one's file.
            third = executor.publish_shard("files", 0, self._payload(), epoch=2)
            assert sorted(os.listdir(spool)) == sorted(
                os.path.basename(path) for path in (second, third)
            )
            executor.evict("files", broadcast=False)
            assert os.listdir(spool) == []
            executor.publish_shard("files", 0, self._payload(), epoch=3)
        assert not os.path.exists(spool)


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

    def test_jobs_cancelled_by_a_heal_raise_worker_crash(self):
        # Healing one batch's pool cancels the jobs another thread's batch
        # still had queued; that batch must see a crash it can replay.
        from concurrent.futures import Future

        from repro.runtime.process_pool import _await_futures

        future = Future()
        future.cancel()
        with pytest.raises(WorkerCrashError, match="died mid-batch"):
            _await_futures([future], timeout=1.0)

    def test_kill_one_worker_kills_the_lowest_pid(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            assert pool.map(_echo_job, [0, 1], timeout=30.0) == [0, 1]
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
    def test_worker_kill_mid_batch_heals_and_replays_bitwise(self):
        queries = RNG.normal(size=(5, 4))
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = two_shard_jobs(executor, queries, delay_s=0.2)
            assert_batch_matches(executor.submit_cached(jobs)(), expected)  # warm pool
            injector = FaultInjector().arm("kill_worker")
            executor.fault_injector = injector
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            assert [f["fault"] for f in injector.fired] == ["kill_worker"]
            assert isinstance(injector.fired[0]["detail"], int)
            assert executor.supervisor.total_restarts == 1
            # No segment leak: the crashed dispatch unlinked its segment.
            assert executor.ring_in_flight == 0
            assert executor.active_transport == "shm"
            # The healed pool serves undisturbed steady state.
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            assert executor.supervisor.total_restarts == 1
            assert executor.ring_in_flight == 0

    def test_worker_kill_mid_batch_heals_to_one_home_worker_per_shard(self):
        queries = RNG.normal(size=(5, 4))
        searcher_id = "chaos-affinity"
        _evict_searcher_entries(searcher_id)  # forked workers inherit this cache
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = two_shard_jobs(executor, queries, searcher_id=searcher_id, delay_s=0.2)
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            executor.fault_injector = FaultInjector().arm("kill_worker")
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            assert executor.supervisor.total_restarts == 1
            assert executor.ring_in_flight == 0
            # The respawned workers loaded only their own shard again.
            resident = [
                executor._pool.submit_to(worker, _resident_shards, searcher_id).result(timeout=60)
                for worker in range(WORKERS)
            ]
            assert resident == [[0], [1]]

    def test_hung_worker_fails_typed_within_deadline_and_heals_behind(self):
        queries = RNG.normal(size=(3, 4))
        with ProcessShardExecutor(num_workers=WORKERS, dispatch_timeout_s=0.25) as executor:
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
                executor.submit_cached(jobs, timeout=1.0)()
            # Typed failure within roughly the budget plus the heals — not
            # the 30 s the hung workers would have cost.
            assert time.monotonic() - started < 15.0
            assert executor.supervisor.total_restarts >= 1
            assert executor.ring_in_flight == 0
            # The pool was healed behind the raise: the next batch works.
            good_jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.submit_cached(good_jobs)(), expected)

    @pytest.mark.parametrize("fault", ["corrupt_spool", "drop_spool"])
    def test_spool_faults_are_repaired_and_replayed_bitwise(self, fault):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=1) as executor:
            jobs, expected = two_shard_jobs(executor, queries, rows=64)
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            # Evict the single worker's resident shards so the next batch
            # must reload from the (about to be broken) spool.
            assert executor._pool.broadcast(_evict_searcher_entries, "chaos") == 1
            path = executor._published[("chaos", 0)][0]
            middle = os.path.getsize(path) // 2
            injector = FaultInjector().arm(fault)
            executor.fault_injector = injector
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            assert [f["fault"] for f in injector.fired] == [fault]
            assert injector.fired[0]["detail"] == path
            if fault == "corrupt_spool":
                # The scribble landed in the stored rows, not in the stream.
                assert any(start <= middle < start + size for start, size in buffer_spans(path))
            # Spool repair is not a pool restart.
            assert executor.supervisor.total_restarts == 0
            for entry, _ in executor._published.values():
                assert verify_spool_entry(entry)

    @pytest.mark.parametrize("damage", ENTRY_DAMAGE)
    def test_damaged_entries_are_republished_and_replayed_bitwise(self, damage):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=1) as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            # Force the next batch to reload from the spool.
            assert executor._pool.broadcast(_evict_searcher_entries, "chaos") == 1
            path = executor._published[("chaos", 0)][0]
            damage_entry(path, damage)
            assert not verify_spool_entry(path)
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            assert executor.supervisor.total_restarts == 0
            for entry, _ in executor._published.values():
                assert verify_spool_entry(entry)

    def test_lost_segment_replays_in_process_bitwise(self):
        queries = RNG.normal(size=(4, 4))
        _evict_searcher_entries("chaos")  # this process holds no shards yet
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            # The first batch gets a new segment that no worker has mapped,
            # so unlinking its name makes every worker's attach fail.
            injector = FaultInjector().arm("corrupt_segment")
            executor.fault_injector = injector
            try:
                assert_batch_matches(executor.submit_cached(jobs)(), expected)
                lost = injector.fired[0]["detail"]
                assert lost is not None
                # The replay ran in this process, on the parent's copies.
                assert {("chaos", 0), ("chaos", 1)} <= set(worker_shard_cache_epochs())
                assert executor.ring_in_flight == 0
                # Losing a segment is not a pool restart.
                assert executor.supervisor.total_restarts == 0
                # The next batch rides shared memory again, on a new segment.
                assert_batch_matches(executor.submit_cached(jobs)(), expected)
                assert executor.active_transport == "shm"
                names = executor._ring.segment_names
                assert len(names) == 1 and lost not in names
                assert executor.ring_in_flight == 0
            finally:
                _evict_searcher_entries("chaos")

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="only forked workers inherit the parent's locks",
    )
    def test_workers_fork_while_another_thread_holds_the_tracker_lock(self):
        # Every segment create, unlink and attach takes the resource
        # tracker's lock.  A worker forked while another dispatching thread
        # holds it inherits it held, and must still attach its segments.
        from multiprocessing import resource_tracker

        tracker_lock = resource_tracker._resource_tracker._lock
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = two_shard_jobs(executor, queries)
            ring = executor._ring
            ring.release(ring.acquire(1 << 16))  # dispatch reuses it: no tracker call
            held, done = threading.Event(), threading.Event()

            def hold():
                with tracker_lock:
                    held.set()
                    done.wait(60.0)

            holder = threading.Thread(target=hold)
            holder.start()
            assert held.wait(10.0)
            try:
                results = executor.submit_cached(jobs, timeout=10.0)()
            finally:
                done.set()
                holder.join()
            assert_batch_matches(results, expected)
            assert executor.supervisor.total_restarts == 0

    def test_restart_budget_demotes_to_serial_then_reprobes(self):
        queries = RNG.normal(size=(4, 4))
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            executor.supervisor.max_restarts = 1
            executor.supervisor.cooldown_s = 1.5
            slow_jobs, slow_expected = two_shard_jobs(executor, queries, delay_s=0.2)
            fast_jobs, fast_expected = two_shard_jobs(
                executor, queries, searcher_id="chaos-fast"
            )
            assert_batch_matches(executor.submit_cached(slow_jobs)(), slow_expected)
            executor.fault_injector = FaultInjector().arm("kill_worker")
            # The crash exhausts the 1-restart budget; the replay runs
            # in-process serially — bitwise identical, pool left down.
            assert_batch_matches(executor.submit_cached(slow_jobs)(), slow_expected)
            assert executor.supervisor.demoted
            assert executor.active_transport == "serial"
            assert not executor._pool.is_live
            # Steady-state demoted batches stay serial (and correct).
            assert_batch_matches(executor.submit_cached(fast_jobs)(), fast_expected)
            assert not executor._pool.is_live
            time.sleep(1.6)
            # Cooled down: the next batch probes the pool; success lifts
            # the demotion.
            assert_batch_matches(executor.submit_cached(fast_jobs)(), fast_expected)
            assert not executor.supervisor.demoted
            assert executor.active_transport == "shm"
            assert executor._pool.is_live

    def test_deadline_exhausted_before_retry_fails_typed(self):
        queries = RNG.normal(size=(3, 4))
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
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
                executor.submit_cached(jobs, timeout=0.3)()
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
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
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
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = two_shard_jobs(executor, queries, searcher_id="doomed")
            assert_batch_matches(executor.submit_cached(jobs)(), expected)
            assert executor._pool.kill_one_worker() is not None
            # Best-effort hygiene must swallow the broken pool, and the
            # bookkeeping must be gone regardless.
            executor.evict("doomed", broadcast=True)
            assert not executor._published
