"""Zero-copy shard transport: lifecycle, concurrency and cache eviction.

The transport's contract extends the runtime's: moving payloads through
shared memory (or memory-mapped spool files) changes *how bytes travel*,
never *what is computed* — and it must never leak segments.  These tests
pin segment lifecycle (unlinked on ``close()``, on context-manager exit and
via the ``weakref.finalize`` safety net), batches that stay correct when
several are in flight from several threads, the in-process replay when a
segment cannot be allocated, one-file spool round trips, and the eviction
message that keeps long-running shared pools from accumulating dead
searchers' shards.
"""

from __future__ import annotations

import mmap
import os

import numpy as np
import pytest

from repro.core import make_searcher
from repro.core.search import MCAMSearcher
from repro.core.sharding import ShardedSearcher
from repro.exceptions import ConfigurationError, SearchError, ServingError
from repro.runtime import ProcessShardExecutor, SharedMemoryRing
from repro.runtime import transport as transport_module
from repro.runtime.process_pool import (
    _WORKER_SHARD_CACHE,
    _rank_cached_shard_job,
    worker_shard_cache_epochs,
)
from repro.runtime.transport import (
    ShardBatchLayout,
    load_spool_payload,
    remove_spool_entry,
    shared_memory_available,
    write_spool_bundle,
)

WORKERS = 2

RNG = np.random.default_rng(20260727)


def _workload(rows=120, features=10, queries=6):
    return (
        RNG.normal(size=(rows, features)),
        RNG.integers(0, 5, size=rows),
        RNG.normal(size=(queries, features)),
    )


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def _mapped_file(array):
    """The memory map under a spool-loaded array, found through its bases."""
    base = array
    while not isinstance(base, memoryview):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)
    return base.obj


def _probe_worker_cache(_=None):
    """Module-level so the pool can ship it to a worker."""
    return worker_shard_cache_epochs()


#: Messages the calling process received through :func:`_record_message`.
_MESSAGES = []


def _record_message(message):
    _MESSAGES.append(message)
    return len(_MESSAGES)


def _received_messages(_=None):
    return list(_MESSAGES)


def _resident_shards(searcher_id):
    """Shards of ``searcher_id`` resident in the calling (worker) process."""
    return sorted(key[1] for key in worker_shard_cache_epochs() if key[0] == searcher_id)


def _resident_by_worker(executor, searcher_id):
    """Per worker, the shards of ``searcher_id`` it holds (probed through submit_to)."""
    pool = executor._pool
    return [
        pool.submit_to(worker, _resident_shards, searcher_id).result(timeout=60)
        for worker in range(pool.effective_workers)
    ]


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
class TestSharedMemoryRing:
    def test_slots_are_reused_and_grow_on_demand(self):
        with SharedMemoryRing() as ring:
            first = ring.acquire(128)
            second = ring.acquire(128)
            assert first.name != second.name  # a held segment is never shared
            assert ring.in_use == 2
            assert ring.release(first) and ring.release(second)
            assert ring.in_use == 0
            reused = ring.acquire(64)  # an idle segment fits: no realloc
            assert reused in (first, second)
            idle = second if reused is first else first
            # Nothing idle fits: the idle segment is unlinked, so the ring
            # holds no more segments than batches in flight.
            grown = ring.acquire(first.size + 1)
            assert grown.name not in (first.name, second.name)
            assert not _segment_exists(idle.name)
            assert len(ring.segment_names) == 2
            assert ring.in_use == 2

    def test_discarded_segments_are_unlinked_and_never_reused(self):
        with SharedMemoryRing() as ring:
            segment = ring.acquire(128)
            ring.discard(segment)
            assert not _segment_exists(segment.name)
            assert ring.in_use == 0 and ring.segment_names == ()
            assert not ring.release(segment)  # gone for good
            assert ring.acquire(64) is not segment

    def test_release_after_close_reports_the_segment_gone(self):
        # A batch still in flight when its executor closes must learn that
        # its segment was unlinked under it rather than reuse it.
        ring = SharedMemoryRing()
        segment = ring.acquire(128)
        ring.close()
        assert not ring.release(segment)
        assert ring.in_use == 0

    def test_close_unlinks_every_segment_and_is_idempotent(self):
        ring = SharedMemoryRing()
        names = [ring.acquire(256).name for _ in range(3)]
        assert all(_segment_exists(name) for name in names)
        ring.close()
        assert all(not _segment_exists(name) for name in names)
        ring.close()  # idempotent
        # The ring is reusable after close.
        replacement = ring.acquire(64)
        assert _segment_exists(replacement.name)
        ring.close()

    def test_finalize_safety_net_unlinks_on_gc(self):
        ring = SharedMemoryRing()
        name = ring.acquire(512).name
        finalizer = ring._finalizer
        assert finalizer.alive
        del ring  # forgotten ring: the finalizer must unlink at GC
        assert not finalizer.alive
        assert not _segment_exists(name)

    def test_batch_layout_round_trips_queries_and_results(self):
        queries = RNG.normal(size=(7, 5))
        layout = ShardBatchLayout(queries, shard_ks=(3, 1))
        with SharedMemoryRing() as ring:
            segment = ring.acquire(layout.total_bytes)
            layout.write_queries(segment)
            view = np.ndarray(queries.shape, dtype=queries.dtype, buffer=segment.buf)
            np.testing.assert_array_equal(view, queries)
            indices, scores = layout.result_views(segment, 0)
            indices[...] = 7
            scores[...] = 0.5
            check_indices, check_scores = layout.result_views(segment, 0)
            assert check_indices.shape == (7, 3) and np.all(check_indices == 7)
            assert check_scores.shape == (7, 3) and np.all(check_scores == 0.5)
            # Blocks never overlap: shard 1's views are untouched zeros or
            # writable independently of shard 0's.
            other_indices, _ = layout.result_views(segment, 1)
            other_indices[...] = 3
            np.testing.assert_array_equal(layout.result_views(segment, 0)[0], 7)


class TestSpoolBundles:
    def test_bundle_round_trip_is_memory_mapped_and_equal(self, tmp_path):
        searcher = MCAMSearcher(bits=3, seed=1)
        features = RNG.normal(size=(40, 6))
        searcher.fit(features, RNG.integers(0, 3, size=40))
        index_map = np.arange(40, dtype=np.int64)
        path = write_spool_bundle(str(tmp_path / "shard-e1"), (searcher, index_map))
        # One regular file per entry, and no staging file left behind.
        assert os.listdir(tmp_path) == ["shard-e1"] and os.path.isfile(path)

        loaded, loaded_map = load_spool_payload(path)
        np.testing.assert_array_equal(index_map, loaded_map)
        # The reconstructed arrays are read-only, aligned views of one
        # memory map of the entry (the N-workers-one-copy property)...
        assert not loaded_map.flags.writeable
        maps = {id(_mapped_file(array)) for array in (loaded_map, loaded.array._stored_states)}
        assert len(maps) == 1
        assert loaded_map.ctypes.data % 64 == 0
        # ...and searching them is bitwise identical to the original.
        queries = RNG.normal(size=(5, 6))
        expected_indices, expected_scores = searcher._rank_batch(
            queries, rng=np.random.default_rng(0), k=3
        )
        indices, scores = loaded._rank_batch(queries, rng=np.random.default_rng(0), k=3)
        np.testing.assert_array_equal(expected_indices, indices)
        np.testing.assert_array_equal(expected_scores, scores)

    def test_remove_spool_entry_is_best_effort(self, tmp_path):
        bundle = write_spool_bundle(str(tmp_path / "bundle-e1"), np.arange(3))
        remove_spool_entry(bundle)
        remove_spool_entry(str(tmp_path / "never-existed"))  # best effort
        assert not (tmp_path / "bundle-e1").exists()


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
class TestExecutorTransportLifecycle:
    @staticmethod
    def _searcher(**kwargs):
        return make_searcher(
            "mcam-3bit",
            num_features=10,
            seed=8,
            shards=4,
            executor="processes",
            num_workers=WORKERS,
            **kwargs,
        )

    def test_serving_batches_ride_shared_memory_bitwise_identically(self):
        features, labels, queries = _workload()
        reference = make_searcher("mcam-3bit", num_features=10, seed=8, shards=4)
        reference.fit(features, labels)
        expected = reference.kneighbors_batch(queries, k=4)
        with self._searcher() as sharded:
            assert sharded._executor.active_transport == "shm"
            sharded.fit(features, labels)
            for _ in range(3):  # cold publish, then warm ring reuse
                result = sharded.kneighbors_batch(queries, k=4)
                np.testing.assert_array_equal(expected.indices, result.indices)
                np.testing.assert_array_equal(expected.scores, result.scores)
                assert expected.labels == result.labels
            assert all(os.path.isfile(p) for p in sharded._published_paths.values())
            names = sharded._executor._ring.segment_names
            assert names
        assert all(not _segment_exists(name) for name in names)

    def test_close_unlinks_segments_and_is_idempotent(self):
        features, labels, queries = _workload()
        searcher = self._searcher()
        searcher.fit(features, labels)
        searcher.kneighbors_batch(queries, k=2)
        names = searcher._executor._ring.segment_names
        assert names and all(_segment_exists(name) for name in names)
        searcher.close()
        assert all(not _segment_exists(name) for name in names)
        searcher.close()  # idempotent

    def test_forgotten_executor_segments_unlink_at_gc(self):
        features, labels, queries = _workload()
        executor = ProcessShardExecutor(num_workers=WORKERS)
        searcher = ShardedSearcher(
            lambda: MCAMSearcher(bits=3, seed=8), num_shards=4, executor=executor
        )
        searcher.fit(features, labels)
        searcher.kneighbors_batch(queries, k=2)
        names = executor._ring.segment_names
        finalizer = executor._ring._finalizer
        assert names and finalizer.alive
        executor._pool.close()  # stop workers so only the ring holds segments
        del searcher, executor  # never closed: the safety net must unlink
        assert not finalizer.alive
        assert all(not _segment_exists(name) for name in names)


class TestSharedMemoryRequirement:
    def test_hosts_without_shared_memory_are_refused(self, monkeypatch):
        monkeypatch.setattr(transport_module, "_shared_memory", None)
        with pytest.raises(ConfigurationError, match="executor='serial'"):
            ProcessShardExecutor(num_workers=WORKERS)

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_segment_allocation_failure_replays_in_process(self, monkeypatch):
        features, labels, queries = _workload()
        reference = make_searcher("mcam-3bit", num_features=10, seed=8, shards=4)
        reference.fit(features, labels)
        expected = reference.kneighbors_batch(queries, k=3)
        with make_searcher(
            "mcam-3bit",
            num_features=10,
            seed=8,
            shards=4,
            executor="processes",
            num_workers=WORKERS,
        ) as sharded:
            sharded.fit(features, labels)
            supervisor = sharded._executor.supervisor
            successes = []
            record_success = supervisor.record_success
            monkeypatch.setattr(
                supervisor, "record_success", lambda: successes.append(record_success())
            )

            def exhausted(self, nbytes):
                raise OSError(28, "No space left on device")

            with monkeypatch.context() as patch:
                patch.setattr(SharedMemoryRing, "acquire", exhausted)
                result = sharded.kneighbors_batch(queries, k=3)  # ranked in process
            np.testing.assert_array_equal(expected.indices, result.indices)
            np.testing.assert_array_equal(expected.scores, result.scores)
            # An in-process batch is no evidence that the pool works.
            assert successes == []
            assert sharded._executor.ring_in_flight == 0
            # The next batch tries shared memory again.
            result = sharded.kneighbors_batch(queries, k=3)
            np.testing.assert_array_equal(expected.indices, result.indices)
            np.testing.assert_array_equal(expected.scores, result.scores)
            assert len(successes) == 1
            assert sharded._executor._ring.segment_names


class TestSubmitCachedContract:
    def test_per_job_query_batches_are_rejected(self):
        """A batch writes one query matrix to shared memory for all shards;
        jobs carrying different arrays must fail typed, not be silently
        ranked against job 0's queries."""
        from repro.core import SoftwareSearcher

        features = RNG.normal(size=(12, 4))
        first = SoftwareSearcher("euclidean").fit(features[:6])
        second = SoftwareSearcher("euclidean").fit(features[6:])
        with ProcessShardExecutor(num_workers=1) as executor:
            paths = [
                executor.publish_shard("per-job", 0, (first, np.arange(6)), epoch=1),
                executor.publish_shard(
                    "per-job", 1, (second, np.arange(6, 12)), epoch=1
                ),
            ]
            queries_a = RNG.normal(size=(3, 4))
            queries_b = RNG.normal(size=(3, 4))
            jobs = [
                ("per-job", 0, 1, paths[0], np.random.default_rng(0), queries_a, 2),
                ("per-job", 1, 1, paths[1], np.random.default_rng(0), queries_b, 2),
            ]
            with pytest.raises(ServingError, match="same query matrix"):
                executor.submit_cached(jobs)()
            assert executor.ring_in_flight == 0


class TestShardAffinity:
    """Each shard is ranked by, and resident in, its home worker only."""

    @staticmethod
    def _serve(executor, num_shards, batches):
        features, labels, queries = _workload(rows=160)
        reference = make_searcher("mcam-3bit", num_features=10, seed=8, shards=num_shards)
        reference.fit(features, labels)
        expected = reference.kneighbors_batch(queries, k=3)
        searcher = ShardedSearcher(
            lambda: MCAMSearcher(bits=3, seed=8), num_shards=num_shards, executor=executor
        )
        searcher.fit(features, labels)
        for _ in range(batches):
            result = searcher.kneighbors_batch(queries, k=3)
            np.testing.assert_array_equal(expected.indices, result.indices)
            np.testing.assert_array_equal(expected.scores, result.scores)
        return searcher

    def test_fewer_workers_than_shards_keep_each_shard_in_one_worker(self):
        with ProcessShardExecutor(num_workers=2) as executor:
            searcher = self._serve(executor, num_shards=4, batches=3)
            # Shard s lives on worker s mod 2, and nowhere else.
            assert _resident_by_worker(executor, searcher._searcher_id) == [[0, 2], [1, 3]]
            assert executor.ring_in_flight == 0

    def test_more_workers_than_shards_alternate_over_disjoint_worker_sets(self):
        with ProcessShardExecutor(num_workers=4) as executor:
            searcher = self._serve(executor, num_shards=2, batches=2)
            # Consecutive batches ran on workers {0, 1} and {2, 3}: every
            # worker ranked, and each shard is resident in two of them.
            assert _resident_by_worker(executor, searcher._searcher_id) == [[0], [1], [0], [1]]

    def test_searchers_sharing_an_executor_start_on_different_workers(self):
        with ProcessShardExecutor(num_workers=2) as executor:
            first = self._serve(executor, num_shards=2, batches=1)
            second = self._serve(executor, num_shards=2, batches=1)
            assert _resident_by_worker(executor, first._searcher_id) == [[0], [1]]
            assert _resident_by_worker(executor, second._searcher_id) == [[1], [0]]


class TestBroadcastResilience:
    def test_broadcast_runs_once_in_every_worker(self):
        from repro.runtime import PersistentProcessPool

        with PersistentProcessPool(num_workers=3) as pool:
            assert pool.broadcast(_record_message, "never") == 0  # no workers yet
            pool.map(_received_messages, range(6))  # start every worker
            assert pool.broadcast(_record_message, "evict") == 3
            received = [
                pool.submit_to(worker, _received_messages, None).result(timeout=60)
                for worker in range(3)
            ]
            assert received == [["evict"]] * 3
            with pytest.raises(ConfigurationError, match="worker must lie"):
                pool.submit_to(3, _received_messages, None)

    def test_broadcast_swallows_a_shut_down_pool(self):
        """Eviction runs on cleanup paths: a broken/shut-down pool must
        yield 0 deliveries, never an exception out of close()."""
        from repro.runtime import PersistentProcessPool

        pool = PersistentProcessPool(num_workers=1)
        try:
            pool.map(_probe_worker_cache, [None, None])  # start workers
            for worker in pool._workers:
                worker.shutdown(wait=True)  # break it behind the wrapper
            assert pool.broadcast(_probe_worker_cache, None) == 0
        finally:
            pool.close()


class TestWorkerShardCacheEviction:
    """close() must not strand dead searchers' shards in long-running pools."""

    def test_close_evicts_this_searchers_shards_from_a_shared_pool(self):
        features, labels, queries = _workload()
        with ProcessShardExecutor(num_workers=1) as executor:
            first = ShardedSearcher(
                lambda: MCAMSearcher(bits=3, seed=1), num_shards=2, executor=executor
            )
            second = ShardedSearcher(
                lambda: MCAMSearcher(bits=3, seed=1), num_shards=2, executor=executor
            )
            first.fit(features, labels)
            second.fit(features, labels)
            expected = first.kneighbors_batch(queries, k=3)
            second.kneighbors_batch(queries, k=3)
            # One worker => every job (and the eviction broadcast) lands on
            # the same process, so the probe is deterministic.
            pool = executor._pool
            workers = pool._workers
            resident = {key[0] for key in pool.submit_to(0, _probe_worker_cache, None).result()}
            assert {first._searcher_id, second._searcher_id} <= resident

            first.close()  # shared executor: evict, do NOT shut the pool down
            resident = {key[0] for key in pool.submit_to(0, _probe_worker_cache, None).result()}
            assert first._searcher_id not in resident
            assert second._searcher_id in resident
            # The surviving searcher still serves, and the pool never cycled.
            np.testing.assert_array_equal(
                expected.indices, second.kneighbors_batch(queries, k=3).indices
            )
            assert pool._workers is workers

    def test_close_evicts_this_searchers_shards_from_every_worker(self):
        features, labels, queries = _workload()
        with ProcessShardExecutor(num_workers=2) as executor:
            first = ShardedSearcher(
                lambda: MCAMSearcher(bits=3, seed=1), num_shards=2, executor=executor
            )
            second = ShardedSearcher(
                lambda: MCAMSearcher(bits=3, seed=1), num_shards=2, executor=executor
            )
            first.fit(features, labels)
            second.fit(features, labels)
            expected = first.kneighbors_batch(queries, k=3)
            second.kneighbors_batch(queries, k=3)
            assert _resident_by_worker(executor, first._searcher_id) == [[0], [1]]
            assert _resident_by_worker(executor, second._searcher_id) == [[1], [0]]
            workers = executor._pool._workers

            first.close()  # shared executor: evict, do NOT shut the pool down
            assert _resident_by_worker(executor, first._searcher_id) == [[], []]
            assert _resident_by_worker(executor, second._searcher_id) == [[1], [0]]
            assert executor._pool.broadcast(_probe_worker_cache, None) == 2
            np.testing.assert_array_equal(
                expected.indices, second.kneighbors_batch(queries, k=3).indices
            )
            assert executor._pool._workers is workers

    def test_evict_purges_the_calling_process_cache(self, tmp_path):
        from repro.core import SoftwareSearcher

        features = RNG.normal(size=(10, 4))
        path = write_spool_bundle(
            str(tmp_path / "shard-e1"),
            (SoftwareSearcher("euclidean").fit(features), np.arange(10, dtype=np.int64)),
        )
        job = (
            "evict-me",
            0,
            1,
            path,
            np.random.default_rng(1),
            RNG.normal(size=(3, 4)),
            2,
        )
        _rank_cached_shard_job(job)  # populates THIS process's cache
        assert ("evict-me", 0) in _WORKER_SHARD_CACHE
        with ProcessShardExecutor(num_workers=1) as executor:
            executor.evict("evict-me")
        assert ("evict-me", 0) not in _WORKER_SHARD_CACHE

    def test_owned_executor_close_still_purges_in_process_entries(self):
        features, labels, queries = _workload()
        searcher = make_searcher(
            "mcam-3bit",
            num_features=10,
            seed=8,
            shards=2,
            executor="processes",
            num_workers=1,
        )
        searcher.fit(features, labels)
        searcher.kneighbors_batch(queries, k=2)
        # Simulate an in-process entry (the <=1-job short cut's residue).
        _WORKER_SHARD_CACHE[(searcher._searcher_id, 99)] = (1, object(), np.arange(1))
        searcher.close()
        assert not any(
            key[0] == searcher._searcher_id for key in _WORKER_SHARD_CACHE
        )


class TestResidentShardBound:
    def test_cache_is_lru_bounded_so_missed_evictions_age_out(self, tmp_path, monkeypatch):
        from repro.core import SoftwareSearcher
        from repro.runtime import process_pool

        monkeypatch.setattr(process_pool, "_MAX_RESIDENT_SHARDS", 3)
        features = RNG.normal(size=(6, 3))
        payload = (SoftwareSearcher("euclidean").fit(features), np.arange(6, dtype=np.int64))
        paths = [
            write_spool_bundle(str(tmp_path / f"shard{index}-e1"), payload)
            for index in range(4)
        ]
        try:
            for index in range(3):
                process_pool._resident_shard("bounded", index, 1, paths[index])
            # Touch shard 0 so it is most-recent; loading a 4th must evict
            # shard 1 (the least recently used), not shard 0.
            process_pool._resident_shard("bounded", 0, 1, paths[0])
            process_pool._resident_shard("bounded", 3, 1, paths[3])
            resident = {key[1] for key in worker_shard_cache_epochs() if key[0] == "bounded"}
            assert resident == {0, 2, 3}
        finally:
            process_pool._evict_searcher_entries("bounded")


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
class TestAttachmentPruning:
    def test_attaching_a_new_name_prunes_unlinked_attachments(self):
        from repro.runtime.transport import _ATTACHED_SEGMENTS, attach_segment

        ring = SharedMemoryRing()
        try:
            first = ring.acquire(128)
            attach_segment(first.name)
            assert first.name in _ATTACHED_SEGMENTS
            ring.release(first)
            # Replacing the too-small idle segment unlinks it in the owner;
            # the next attachment of the replacement must drop the dead
            # mapping instead of pinning its pages until LRU pressure.
            grown = ring.acquire(first.size + 1)
            attach_segment(grown.name)
            assert first.name not in _ATTACHED_SEGMENTS
            assert grown.name in _ATTACHED_SEGMENTS
        finally:
            ring.close()
            for name in list(_ATTACHED_SEGMENTS):
                _ATTACHED_SEGMENTS.pop(name).close()


class TestInFlightDispatch:
    """submit_cached: several batches in flight, from several threads."""

    @staticmethod
    def _two_shard_jobs(executor, queries, k=2, searcher_id="in-flight", epoch=1):
        from repro.core import SoftwareSearcher

        features = RNG.normal(size=(16, 4))
        shards = [
            SoftwareSearcher("euclidean").fit(features[:8]),
            SoftwareSearcher("euclidean").fit(features[8:]),
        ]
        paths = [
            executor.publish_shard(
                searcher_id, index, (shard, np.arange(8) + 8 * index), epoch=epoch
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

    @staticmethod
    def _assert_batch(results, expected):
        for (indices, scores), (want_indices, want_scores) in zip(results, expected):
            np.testing.assert_array_equal(indices, want_indices)
            np.testing.assert_array_equal(scores, want_scores)

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_three_batches_ride_the_ring_concurrently_in_any_order(self):
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            batches = [
                self._two_shard_jobs(
                    executor, RNG.normal(size=(rows, 4)), searcher_id=f"in-flight-{rows}"
                )
                for rows in (3, 5, 4)
            ]
            # Every batch is dispatched before any is collected: each holds
            # its own segment, so no batch overwrites another's results.
            collects = [executor.submit_cached(jobs) for jobs, _ in batches]
            assert executor.ring_in_flight == 3
            for held, (collect, (_, expected)) in zip(
                (2, 1, 0), reversed(list(zip(collects, batches)))
            ):
                self._assert_batch(collect(), expected)
                assert executor.ring_in_flight == held

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_each_batch_is_collected_once(self):
        # A second collect would read a segment another batch may now hold.
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = self._two_shard_jobs(executor, RNG.normal(size=(3, 4)))
            inner = executor._dispatch_cached(jobs)
            self._assert_batch(inner(timeout=30.0), expected)
            with pytest.raises(ServingError, match="once"):
                inner(timeout=30.0)
            assert executor.ring_in_flight == 0

    def test_publishing_an_epoch_twice_is_a_no_op(self):
        # Threads sharing a searcher may both publish its first epoch.
        from repro.core import SoftwareSearcher

        payload = (SoftwareSearcher("euclidean").fit(RNG.normal(size=(6, 4))), np.arange(6))
        with ProcessShardExecutor(num_workers=1) as executor:
            path = executor.publish_shard("twice", 0, payload, epoch=3)
            assert executor.publish_shard("twice", 0, payload, epoch=3) == path
            _, index_map = load_spool_payload(path)
            np.testing.assert_array_equal(index_map, np.arange(6))

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_collected_results_survive_later_batches(self):
        with ProcessShardExecutor(num_workers=WORKERS) as executor:
            jobs, expected = self._two_shard_jobs(executor, RNG.normal(size=(3, 4)))
            results = executor.submit_cached(jobs)()
            # Two later batches of the same shape reuse the ring's segments;
            # the first batch's results are the caller's own arrays.
            for _ in range(2):
                later = RNG.normal(size=(3, 4))
                executor.submit_cached([job[:5] + (later,) + job[6:] for job in jobs])()
            self._assert_batch(results, expected)

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_threads_sharing_one_executor_rank_bitwise(self):
        import threading

        features, labels, queries = _workload()
        reference = make_searcher("mcam-3bit", num_features=10, seed=8, shards=4)
        reference.fit(features, labels)
        expected = reference.kneighbors_batch(queries, k=3)
        errors = []
        with self._sharded_searcher() as sharded:
            sharded.fit(features, labels)

            def hammer():
                try:
                    for _ in range(8):
                        result = sharded.kneighbors_batch(queries, k=3)
                        np.testing.assert_array_equal(expected.indices, result.indices)
                        np.testing.assert_array_equal(expected.scores, result.scores)
                except Exception as exc:  # surfaced to the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert sharded._executor.ring_in_flight == 0

    @staticmethod
    def _sharded_searcher():
        return make_searcher(
            "mcam-3bit",
            num_features=10,
            seed=8,
            shards=4,
            executor="processes",
            num_workers=WORKERS,
        )


class TestServingStackTeardown:
    """A scheduler, a searcher and a shared executor may each reach close()
    and evict() — in any order, from more than one thread — without a
    double-free, a KeyError on the published table, or a hang."""

    def _serving_stack(self, executor):
        features, labels, _ = _workload()
        searcher = ShardedSearcher(
            lambda: MCAMSearcher(bits=3, seed=8), num_shards=2, executor=executor
        )
        searcher.fit(features, labels)
        return searcher

    def test_searcher_then_executor_close(self):
        executor = ProcessShardExecutor(num_workers=1)
        searcher = self._serving_stack(executor)
        searcher.kneighbors_batch(RNG.normal(size=(4, 10)), k=2)
        searcher.close()
        executor.close()
        executor.close()

    def test_executor_then_searcher_close(self):
        executor = ProcessShardExecutor(num_workers=1)
        searcher = self._serving_stack(executor)
        searcher.kneighbors_batch(RNG.normal(size=(4, 10)), k=2)
        executor.close()
        # The searcher's close evicts through the already-closed executor:
        # the broadcast lands on a shut-down pool (0 deliveries) and the
        # published table is already empty — both must be tolerated.
        searcher.close()
        searcher.close()

    def test_evict_after_close_is_a_noop(self):
        executor = ProcessShardExecutor(num_workers=1)
        searcher = self._serving_stack(executor)
        searcher.kneighbors_batch(RNG.normal(size=(4, 10)), k=2)
        executor.close()
        executor.evict(searcher._searcher_id)
        executor.evict("never-published")

    def test_concurrent_evicts_and_close_never_race(self):
        import threading

        executor = ProcessShardExecutor(num_workers=1)
        searcher = self._serving_stack(executor)
        searcher.kneighbors_batch(RNG.normal(size=(4, 10)), k=2)
        errors = []

        def run(fn):
            try:
                fn()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(arg,))
            for arg in [
                lambda: executor.evict(searcher._searcher_id, broadcast=False),
                lambda: executor.evict(searcher._searcher_id, broadcast=False),
                executor.close,
                executor.close,
            ]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_scheduler_and_searcher_close_in_either_order(self):
        from repro.serving import MicroBatchScheduler

        features, labels, queries = _workload()
        for searcher_first in (False, True):
            with ProcessShardExecutor(num_workers=WORKERS) as executor:
                searcher = ShardedSearcher(
                    lambda: MCAMSearcher(bits=3, seed=8),
                    num_shards=2,
                    executor=executor,
                )
                searcher.fit(features, labels)
                scheduler = MicroBatchScheduler(searcher, max_delay_us=1_000)
                scheduler.submit(queries[0], k=2).result(timeout=30)
                if searcher_first:
                    searcher.close()
                    scheduler.close()
                else:
                    scheduler.close()
                    searcher.close()
                scheduler.close()
                searcher.close()


class TestSharedExecutorConfiguration:
    def test_num_workers_with_instance_rejected(self):
        with ProcessShardExecutor(num_workers=1) as executor:
            with pytest.raises(SearchError, match="num_workers"):
                ShardedSearcher(
                    lambda: MCAMSearcher(bits=3),
                    num_shards=2,
                    executor=executor,
                    num_workers=2,
                )

    def test_instance_without_executor_interface_rejected(self):
        with pytest.raises(SearchError, match="map"):
            ShardedSearcher(lambda: MCAMSearcher(bits=3), num_shards=2, executor=object())

    def test_executor_name_reflects_the_shared_instance(self):
        with ProcessShardExecutor(num_workers=1) as executor:
            searcher = ShardedSearcher(
                lambda: MCAMSearcher(bits=3), num_shards=2, executor=executor
            )
            assert searcher.executor_name == "processes"
            assert not searcher._owns_executor
            searcher.close()
