"""Parallel experiment runtime: process pools, trial dispatch, determinism.

The runtime's contract is strict: executors and trial runners change *where*
work executes, never *what* it computes.  These tests pin that down —
bitwise parity of the ``"processes"`` shard executor against ``"serial"``
on both CAM backends, worker-count-independent Fig. 8 sweep points, and
episode-parallel few-shot evaluation matching the serial reference.
"""

from __future__ import annotations

import ctypes
import os
from functools import partial

import numpy as np
import pytest

from repro.analysis.scaling import ScalingStudy
from repro.analysis.variation_study import VariationSweep
from repro.circuits.matchline import MatchLineModel
from repro.circuits.sense_amplifier import TimeDomainSenseAmplifier
from repro.core import MCAMSearcher, ShardedSearcher, SoftwareSearcher, make_searcher
from repro.core.sharding import (
    SerialShardExecutor,
    available_shard_executors,
    resolve_shard_executor,
)
from repro.datasets.omniglot import SyntheticEmbeddingSpace
from repro.exceptions import ConfigurationError, SearchError
from repro.mann.fewshot import FewShotEvaluator, default_method_factories
from repro.runtime import (
    ParallelTrialRunner,
    PersistentProcessPool,
    SerialTrialRunner,
    chunk_units,
    require_picklable,
    resolve_trial_runner,
)
from repro.runtime.process_pool import (
    _WORKER_SHARD_CACHE,
    ProcessShardExecutor,
    _rank_cached_shard_job,
    worker_shard_cache_epochs,
)
from repro.runtime.transport import remove_spool_entry, write_spool_bundle

WORKERS = 2


def _square(x):
    return x * x


class _TypeErrorSearcher(SoftwareSearcher):
    """Fits like the Euclidean engine, but every ranking raises TypeError."""

    def __init__(self):
        super().__init__("euclidean")

    def _rank_batch(self, queries, rng, k):
        raise TypeError("engine bug in _rank_batch")


def _noisy_mcam(seed):
    """A 3-bit MCAM whose time-domain sensing draws timing noise per query."""
    amplifier = TimeDomainSenseAmplifier(
        MatchLineModel(num_cells=64), timing_noise_sigma_s=2e-10
    )
    return MCAMSearcher(bits=3, sense_amplifier=amplifier, seed=seed)


def _worker_pid(_unit=None):
    return os.getpid()


def _weighted_draw(seed):
    """A float that any change in summation order or stream would move."""
    return float(np.random.default_rng(seed).normal(size=16) @ np.linspace(0.1, 1.6, 16))


def _openblas_thread_counts(_job=None):
    """``scipy_openblas_get_num_threads64_`` of every OpenBLAS mapped here."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    counts = []
    for path in sorted(paths):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            counts.append(getter())
    return counts


class TestPersistentProcessPool:
    def test_map_preserves_order_and_results(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            assert pool.map(_square, range(17)) == [x * x for x in range(17)]
        finally:
            pool.close()

    def test_pool_persists_across_maps_and_restarts_after_close(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            assert pool.map(_square, [1, 2]) == [1, 4]
            first = pool._workers
            assert pool.map(_square, [3, 4]) == [9, 16]
            assert pool._workers is first  # warm pool reused
            pool.close()
            assert pool._workers is None
            assert pool.map(_square, [5, 6]) == [25, 36]  # restarted lazily
        finally:
            pool.close()

    def test_single_job_runs_in_process(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        try:
            assert pool.map(_square, [7]) == [49]
            assert pool._workers is None  # short-cut never started workers
        finally:
            pool.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(Exception):
            PersistentProcessPool(num_workers=0)

    def test_workers_run_one_blas_thread_and_the_parent_keeps_its_own(self):
        try:
            parent_before = _openblas_thread_counts()
        except OSError:
            parent_before = []
        if not parent_before:
            pytest.skip("numpy's BLAS exports no scipy_openblas_get_num_threads64_")
        with PersistentProcessPool(num_workers=WORKERS) as pool:
            futures = pool.submit_all(_openblas_thread_counts, range(2 * WORKERS))
            workers = [future.result(timeout=60) for future in futures]
        assert workers == [[1] * len(parent_before)] * (2 * WORKERS)
        assert _openblas_thread_counts() == parent_before


class TestProcessShardExecutor:
    @pytest.mark.parametrize("name", ("mcam-3bit", "tcam-lsh"))
    def test_bitwise_parity_with_serial(self, name):
        rng = np.random.default_rng(31)
        features = rng.normal(size=(160, 12))
        labels = rng.integers(0, 5, size=160)
        queries = rng.normal(size=(9, 12))

        results = {}
        for executor in ("serial", "processes"):
            searcher = make_searcher(
                name,
                num_features=12,
                seed=8,
                shards=4,
                executor=executor,
                num_workers=WORKERS,
            )
            searcher.fit(features, labels)
            try:
                results[executor] = searcher.kneighbors_batch(queries, k=4)
            finally:
                searcher.close()
        np.testing.assert_array_equal(results["serial"].indices, results["processes"].indices)
        np.testing.assert_array_equal(results["serial"].scores, results["processes"].scores)
        assert results["serial"].labels == results["processes"].labels

    def test_processes_listed_as_available(self):
        assert available_shard_executors() == ("processes", "serial")
        assert resolve_shard_executor("processes") is ProcessShardExecutor
        assert resolve_shard_executor("Serial") is SerialShardExecutor
        with pytest.raises(SearchError, match="available: processes, serial"):
            resolve_shard_executor("threads")

    @pytest.mark.parametrize("executor", ("serial", "processes"))
    def test_engine_type_error_reaches_the_caller(self, executor):
        # Regression: a TypeError out of the workers was retried as a
        # collect without its timeout, which failed instead as a second
        # collect of the same batch and hid the engine's error.
        features = np.random.default_rng(4).normal(size=(20, 4))
        with ShardedSearcher(
            _TypeErrorSearcher, num_shards=2, executor=executor, num_workers=WORKERS
        ) as sharded:
            sharded.fit(features)
            with pytest.raises(TypeError, match="engine bug"):
                sharded.kneighbors_batch(features[:3], k=2)


class TestWorkerShardCache:
    """Worker-resident shards: ship once per epoch, never serve stale state."""

    @staticmethod
    def _store(rows=80, features=12, queries=7, seed=31):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(rows, features)),
            rng.integers(0, 5, size=rows),
            rng.normal(size=(queries, features)),
        )

    def test_reprogram_between_batches_never_serves_stale_shards(self):
        features, labels, queries = self._store()
        mutated = features + 0.75  # every row (and the calibration) changes
        with make_searcher(
            "mcam-3bit",
            num_features=12,
            seed=8,
            shards=4,
            executor="processes",
            num_workers=WORKERS,
        ) as sharded:
            reference = make_searcher("mcam-3bit", num_features=12, seed=8)
            sharded.fit(features, labels)
            reference.fit(features, labels)
            first = sharded.kneighbors_batch(queries, k=4)  # warms every worker
            np.testing.assert_array_equal(
                reference.kneighbors_batch(queries, k=4).indices, first.indices
            )
            epochs_before = list(sharded._shard_epochs)
            sharded.fit(mutated, labels)  # reprogram between batches
            reference.fit(mutated, labels)
            assert all(
                after > before
                for before, after in zip(epochs_before, sharded._shard_epochs)
            )
            # Every shard job carries the bumped epoch, so whichever worker
            # serves it must reload — a stale cached shard would rank the
            # old store and break this bitwise comparison.
            expected = reference.kneighbors_batch(queries, k=4)
            actual = sharded.kneighbors_batch(queries, k=4)
            np.testing.assert_array_equal(expected.indices, actual.indices)
            np.testing.assert_array_equal(expected.scores, actual.scores)

    def test_shards_published_once_per_epoch_not_per_batch(self):
        features, labels, queries = self._store()
        with make_searcher(
            "mcam-3bit",
            num_features=12,
            seed=8,
            shards=4,
            executor="processes",
            num_workers=WORKERS,
        ) as sharded:
            sharded.fit(features, labels)
            sharded.kneighbors_batch(queries, k=2)
            published = dict(sharded._published_epochs)
            paths = dict(sharded._published_paths)
            mtimes = {index: os.stat(path).st_mtime_ns for index, path in paths.items()}
            for _ in range(3):  # steady-state batches ship only queries
                sharded.kneighbors_batch(queries, k=2)
            assert sharded._published_epochs == published
            assert {
                index: os.stat(path).st_mtime_ns
                for index, path in sharded._published_paths.items()
            } == mtimes

    def test_cached_job_is_keyed_by_epoch(self, tmp_path):
        # Direct worker-side check: a matching epoch serves the resident
        # shard (the spool may even have moved on), a bumped epoch reloads.
        rng = np.random.default_rng(0)
        features = rng.normal(size=(10, 4))
        queries = rng.normal(size=(3, 4))
        index_map = np.arange(10, dtype=np.int64)
        path = tmp_path / "shard-e1"
        key = ("test-searcher", 0)
        try:
            write_spool_bundle(str(path), (SoftwareSearcher("euclidean").fit(features), index_map))
            job = lambda epoch: (  # noqa: E731
                *key,
                epoch,
                str(path),
                np.random.default_rng(1),
                queries,
                2,
            )
            first, _ = _rank_cached_shard_job(job(1))
            assert worker_shard_cache_epochs()[key] == 1
            # Re-publish different contents WITHOUT bumping the epoch: the
            # resident copy must keep serving (the parent only rewrites the
            # spool together with an epoch bump).
            remove_spool_entry(str(path))
            write_spool_bundle(
                str(path), (SoftwareSearcher("euclidean").fit(features + 5.0), index_map)
            )
            second, _ = _rank_cached_shard_job(job(1))
            np.testing.assert_array_equal(first, second)
            # An epoch bump forces the reload and must change the ranking.
            third, _ = _rank_cached_shard_job(job(2))
            assert worker_shard_cache_epochs()[key] == 2
            assert not np.array_equal(first, third)
        finally:
            _WORKER_SHARD_CACHE.pop(key, None)

    def test_disabling_the_cache_restores_ship_every_batch(self):
        # An executor without submit_cached gets self-contained shard jobs
        # through map: the worker processes receive every programmed shard
        # with every batch, and nothing is published to the spool.
        features, labels, queries = self._store()
        processes = PersistentProcessPool(num_workers=WORKERS)
        batches = []

        class MapOnly:
            def map(self, fn, jobs):
                jobs = list(jobs)
                batches.append(len(jobs))
                return processes.map(fn, jobs)

            def close(self):
                processes.close()

        try:
            with make_searcher(
                "mcam-3bit", num_features=12, seed=8, shards=4, executor=MapOnly()
            ) as sharded:
                reference = make_searcher("mcam-3bit", num_features=12, seed=8)
                sharded.fit(features, labels)
                reference.fit(features, labels)
                for _ in range(2):
                    np.testing.assert_array_equal(
                        reference.kneighbors_batch(queries, k=3).indices,
                        sharded.kneighbors_batch(queries, k=3).indices,
                    )
                assert batches == [4, 4]
                assert sharded._published_epochs == {}
        finally:
            processes.close()


class TestTrialRunners:
    @pytest.mark.parametrize(
        "runner_factory",
        (
            SerialTrialRunner,
            partial(ParallelTrialRunner, num_workers=WORKERS),
        ),
    )
    def test_map_matches_serial_loop(self, runner_factory):
        runner = runner_factory()
        try:
            assert runner.map(_square, range(11)) == [x * x for x in range(11)]
        finally:
            runner.close()

    def test_parallel_map_runs_on_every_worker_and_matches_serial(self):
        units = list(range(12))  # 3 workers x CHUNKS_PER_WORKER = 6 chunks
        serial = SerialTrialRunner().map(_weighted_draw, units)
        with ParallelTrialRunner(num_workers=3) as runner:
            assert runner.map(_weighted_draw, units) == serial
            pids = runner.map(_worker_pid, units)
            assert set(pids) == set(runner._pool.worker_pids())
            assert len(set(pids)) == 3

    def test_chunking_preserves_order_and_content(self):
        units = list(range(13))
        for num_chunks in (1, 2, 5, 13, 50):
            chunks = chunk_units(units, num_chunks)
            assert [u for chunk in chunks for u in chunk] == units
            assert len(chunks) == min(num_chunks, len(units))

    def test_unknown_executor_rejected(self):
        for name in ("mpi", "threads"):
            with pytest.raises(ConfigurationError, match="available: processes, serial"):
                resolve_trial_runner(name)

    def test_resolve_by_name(self):
        assert isinstance(resolve_trial_runner("serial"), SerialTrialRunner)
        assert isinstance(resolve_trial_runner("processes"), ParallelTrialRunner)

    def test_require_picklable_flags_lambdas(self):
        require_picklable(_square, "fn")  # module-level: fine
        with pytest.raises(ConfigurationError):
            require_picklable(lambda: None, "fn")


class TestPoolLifecycle:
    """Context managers, idempotent close, and the exit/GC safety nets."""

    def test_pool_context_manager_closes_on_exit(self):
        with PersistentProcessPool(num_workers=WORKERS) as pool:
            assert pool.map(_square, [2, 3]) == [4, 9]
            assert pool._workers is not None
        assert pool._workers is None
        assert pool.map(_square, [4, 5]) == [16, 25]  # restarts lazily
        pool.close()

    @pytest.mark.parametrize(
        "factory",
        (
            PersistentProcessPool,
            SerialTrialRunner,
            partial(ParallelTrialRunner, num_workers=WORKERS),
        ),
    )
    def test_close_is_idempotent(self, factory):
        resource = factory()
        resource.map(_square, [1, 2])
        resource.close()
        resource.close()  # second close must be a no-op, not an error

    @pytest.mark.parametrize(
        "factory",
        (
            SerialTrialRunner,
            partial(ParallelTrialRunner, num_workers=WORKERS),
        ),
    )
    def test_trial_runners_support_with_blocks(self, factory):
        with factory() as runner:
            assert runner.map(_square, [3, 4]) == [9, 16]

    def test_close_stops_workers_that_never_ran_a_job(self):
        # Each worker is its own executor, whose manager thread sends the
        # worker its shutdown sentinel; a worker left without one would
        # outlive close() and block interpreter exit.
        pool = PersistentProcessPool(num_workers=3)
        assert pool.submit_to(0, _square, 3).result(timeout=60) == 9
        processes = pool._worker_processes()
        assert len(processes) == 3
        pool.close()
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_forgotten_pool_is_finalized_at_gc(self):
        pool = PersistentProcessPool(num_workers=WORKERS)
        pool.map(_square, [1, 2, 3])
        finalizer = pool._finalizer
        assert finalizer is not None and finalizer.alive
        del pool  # the safety net must shut the workers down without close()
        assert not finalizer.alive

    def test_evaluator_and_sweep_support_with_blocks(self):
        space = SyntheticEmbeddingSpace(seed=9)
        factory = partial(make_searcher, "mcam-3bit", space.embedding_dim, seed=3)
        with FewShotEvaluator(
            space, n_way=5, k_shot=1, num_episodes=4, executor="processes", num_workers=WORKERS
        ) as evaluator:
            result = evaluator.evaluate(factory, rng=17)
        assert 0.0 <= result.statistics.mean <= 1.0
        evaluator.close()  # close after the with block stays a no-op
        with VariationSweep(
            space,
            tasks=((5, 1),),
            sigmas_v=(0.0,),
            num_episodes=2,
            luts_per_sigma=1,
            executor="processes",
            num_workers=WORKERS,
        ) as sweep:
            assert len(sweep.run(rng=5).points) == 1

    def test_sharded_searcher_supports_with_blocks(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(24, 6))
        with make_searcher(
            "euclidean", num_features=6, shards=3, executor="processes", num_workers=WORKERS
        ) as searcher:
            searcher.fit(features)
            assert searcher.kneighbors_batch(features[:2], k=1).indices.shape == (2, 1)
        searcher.close()  # idempotent after the with block


class TestVariationSweepDeterminism:
    """Same seed => same Fig. 8 points, at any executor and worker count."""

    @staticmethod
    def _sweep(executor, num_workers=None):
        space = SyntheticEmbeddingSpace(seed=6)
        sweep = VariationSweep(
            space,
            tasks=((5, 1),),
            sigmas_v=(0.0, 0.1),
            num_episodes=4,
            luts_per_sigma=2,
            executor=executor,
            num_workers=num_workers,
        )
        return sweep.run(rng=123).points

    def test_processes_bitwise_identical_to_serial_at_any_worker_count(self):
        reference = self._sweep("serial")
        for num_workers in (1, 2, 3):
            assert self._sweep("processes", num_workers) == reference

    def test_unknown_executor_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            VariationSweep(SyntheticEmbeddingSpace(seed=6), executor="mpi")


class TestEpisodeParallelFewShot:
    def test_parallel_episodes_match_serial(self):
        space = SyntheticEmbeddingSpace(seed=9)
        factory = partial(make_searcher, "mcam-3bit", space.embedding_dim, seed=3)
        serial = FewShotEvaluator(space, n_way=5, k_shot=1, num_episodes=8).evaluate(
            factory, rng=17
        )
        with FewShotEvaluator(
            space,
            n_way=5,
            k_shot=1,
            num_episodes=8,
            executor="processes",
            num_workers=WORKERS,
        ) as evaluator:
            parallel = evaluator.evaluate(factory, rng=17)
        assert parallel.statistics.mean == serial.statistics.mean
        assert parallel.statistics.minimum == serial.statistics.minimum
        assert parallel.statistics.maximum == serial.statistics.maximum

    def test_parallel_compare_matches_serial(self):
        space = SyntheticEmbeddingSpace(seed=9)
        factories = default_method_factories(space.embedding_dim, seed=1)
        serial = FewShotEvaluator(space, n_way=5, k_shot=1, num_episodes=5).compare(
            factories, rng=2
        )
        parallel = FewShotEvaluator(
            space,
            n_way=5,
            k_shot=1,
            num_episodes=5,
            executor="processes",
            num_workers=WORKERS,
        ).compare(factories, rng=2)
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name].statistics.mean == parallel[name].statistics.mean

    def test_default_method_factories_are_picklable(self):
        for name, factory in default_method_factories(16, seed=0).items():
            require_picklable(factory, name)

    def test_unpicklable_factory_raises_helpful_error(self):
        space = SyntheticEmbeddingSpace(seed=9)
        evaluator = FewShotEvaluator(
            space, n_way=5, k_shot=1, num_episodes=4, executor="processes", num_workers=WORKERS
        )
        with pytest.raises(ConfigurationError, match="picklable"):
            evaluator.evaluate(lambda: None, rng=0)

    def test_compare_gives_every_method_its_own_episode_streams(self):
        # One worker receives one pickled chunk carrying several methods'
        # jobs; pickling shares the Generator objects those jobs hold, so
        # each method must still draw from its own copies of the streams.
        space = SyntheticEmbeddingSpace(seed=9)
        factories = {name: partial(_noisy_mcam, seed) for seed, name in enumerate("abc", 1)}
        with FewShotEvaluator(
            space, n_way=5, k_shot=1, num_episodes=6, executor="processes", num_workers=1
        ) as evaluator:
            together = evaluator.compare(factories, rng=7)
        solo = FewShotEvaluator(space, n_way=5, k_shot=1, num_episodes=6)
        for name, factory in factories.items():
            alone = solo.evaluate(factory, rng=7)
            assert together[name].statistics.mean == alone.statistics.mean

    @pytest.mark.parametrize("space_seed", (9, 3))
    def test_serial_compare_gives_every_method_its_own_episode_streams(self, space_seed):
        # The serial runner interleaves the methods episode by episode; a
        # method drawing timing noise must not advance the next method's
        # stream, so each reads what it reads alone (and under "processes").
        space = SyntheticEmbeddingSpace(seed=space_seed)
        factories = {name: partial(_noisy_mcam, seed) for seed, name in enumerate("abc", 1)}
        evaluator = FewShotEvaluator(space, n_way=5, k_shot=1, num_episodes=6)
        together = evaluator.compare(factories, rng=7)
        for name, factory in factories.items():
            alone = evaluator.evaluate(factory, rng=7)
            assert together[name].statistics.mean == alone.statistics.mean


class TestScalingStudyDeterminism:
    def test_trial_executor_matches_serial(self):
        kwargs = dict(ways=(5,), word_lengths=(16,), num_episodes=3, shard_counts=(1, 2))
        reference = ScalingStudy(**kwargs).run(rng=7)
        parallel = ScalingStudy(
            **kwargs, trial_executor="processes", num_workers=WORKERS
        ).run(rng=7)
        assert reference.points == parallel.points

    def test_unknown_trial_executor_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            ScalingStudy(trial_executor="mpi")
