"""Tests for the sharded multi-array execution layer.

The acceptance bar of the sharding layer is *bitwise* parity: partitioning a
store across fixed-capacity CAM tiles and merging per-shard top-k must
return exactly the neighbors, scores and labels of the unsharded backend,
for every shard count, tie-heavy data and every k-range edge case, on the
``"serial"`` reference executor and on the ``"processes"`` executor the
benchmark serves (its worker caches and transport are tested in
``tests/test_runtime.py``).
"""

import os
import pickle

import numpy as np
import pytest

from repro.circuits import MCAMArray, TCAMArray, partition_rows, split_rows_evenly
from repro.circuits.mcam_array import preserve_search_caches
from repro.core import (
    MCAMSearcher,
    ShardedSearcher,
    SoftwareSearcher,
    UniformQuantizer,
    get_backend,
    make_searcher,
    merge_shard_topk,
)
from repro.devices.variation import GaussianVthVariationModel
from repro.exceptions import CapacityError, ConfigurationError, ReproError, SearchError

CAM_BACKENDS = ("mcam-3bit", "mcam-2bit", "tcam-lsh")
ALL_BACKENDS = CAM_BACKENDS + ("euclidean",)

NUM_FEATURES = 8


@pytest.fixture(scope="module")
def store():
    rng = np.random.default_rng(11)
    features = rng.normal(size=(41, NUM_FEATURES))
    labels = rng.integers(0, 5, size=41)
    queries = rng.normal(size=(9, NUM_FEATURES))
    return features, labels, queries


@pytest.fixture(scope="module")
def tie_heavy_store():
    # A tiny integer alphabet makes CAM scores collide constantly, so the
    # stable (lowest global index) tie-breaking carries the whole ordering.
    rng = np.random.default_rng(23)
    features = rng.integers(0, 2, size=(40, NUM_FEATURES)).astype(float)
    labels = rng.integers(0, 3, size=40)
    queries = rng.integers(0, 2, size=(12, NUM_FEATURES)).astype(float)
    return features, labels, queries


def _clipped(rows, stored):
    """``rows`` clipped into the per-feature range of ``stored``."""
    return np.clip(rows, stored.min(axis=0), stored.max(axis=0))


def _fit_pair(name, data, **shard_config):
    features, labels, _ = data
    base = make_searcher(name, num_features=NUM_FEATURES, seed=7).fit(features, labels)
    sharded = make_searcher(name, num_features=NUM_FEATURES, seed=7, **shard_config).fit(
        features, labels
    )
    return base, sharded


def _assert_batch_equal(expected, actual):
    np.testing.assert_array_equal(expected.indices, actual.indices)
    np.testing.assert_array_equal(expected.scores, actual.scores)
    assert expected.labels == actual.labels


class TestShardParity:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("shards", (1, 2, 7))
    @pytest.mark.parametrize("executor", ("serial", "processes"))
    def test_bitwise_parity_with_unsharded_backend(self, store, name, shards, executor):
        base, sharded = _fit_pair(name, store, shards=shards, executor=executor, num_workers=2)
        queries = store[2]
        with sharded:
            for k in (1, 3, base.num_entries):
                _assert_batch_equal(
                    base.kneighbors_batch(queries, k=k), sharded.kneighbors_batch(queries, k=k)
                )

    @pytest.mark.parametrize("name", CAM_BACKENDS + ("euclidean", "manhattan"))
    @pytest.mark.parametrize("shards", (2, 7))
    def test_tie_heavy_data_keeps_stable_tie_breaking(self, tie_heavy_store, name, shards):
        base, sharded = _fit_pair(name, tie_heavy_store, shards=shards)
        queries = tie_heavy_store[2]
        for k in (1, 5, base.num_entries):
            _assert_batch_equal(
                base.kneighbors_batch(queries, k=k), sharded.kneighbors_batch(queries, k=k)
            )

    @pytest.mark.parametrize("name", ("mcam-3bit", "mcam-2bit"))
    @pytest.mark.parametrize("shards", (1, 2, 3))
    def test_tie_heavy_data_through_the_screen(self, tie_heavy_store, name, shards):
        # 52 copies of the tie-heavy store, queried twice over, put the
        # unsharded engine in the MCAM screen band; two shards stay in it
        # for k <= 16, three leave it.  Every score is tied dozens of times,
        # so the row index alone orders the copies.
        features, labels, queries = tie_heavy_store
        queries = np.tile(queries, (2, 1))
        tiled = (np.tile(features, (52, 1)), np.tile(labels, 52), queries)
        base, sharded = _fit_pair(name, tiled, shards=shards)
        assert base.array.in_screen_band(32)
        conductances = base.array.row_conductances_batch(base.quantizer.quantize(queries))
        for k in (1, 5, 32):
            expected = base.kneighbors_batch(queries, k=k)
            reference = np.argsort(conductances, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(expected.indices, reference)
            scores = np.take_along_axis(conductances, reference, axis=1)
            assert expected.scores.tobytes() == scores.tobytes()
            _assert_batch_equal(expected, sharded.kneighbors_batch(queries, k=k))

    @pytest.mark.parametrize("name", ("mcam-3bit", "mcam-2bit"))
    def test_one_row_shards_score_a_single_query_like_the_store(self, name):
        """Regression: a one-row shard summed a single query's cells pairwise.

        Nine 64-feature rows in eight shards leave seven one-row shards,
        whose scores for one query differed in the last bits from the
        unsharded store's.
        """
        rng = np.random.default_rng(40)
        for _ in range(10):
            features = rng.normal(size=(9, 64))
            query = rng.normal(size=64)
            base = make_searcher(name, num_features=64, seed=7).fit(features)
            sharded = make_searcher(name, num_features=64, seed=7, shards=8).fit(features)
            expected = base.kneighbors(query, k=9)
            actual = sharded.kneighbors(query, k=9)
            np.testing.assert_array_equal(expected.indices, actual.indices)
            assert expected.scores.tobytes() == actual.scores.tobytes()

    @pytest.mark.parametrize("name", CAM_BACKENDS)
    def test_single_query_kneighbors_parity(self, store, name):
        base, sharded = _fit_pair(name, store, shards=3)
        query = store[2][0]
        expected = base.kneighbors(query, k=4)
        actual = sharded.kneighbors(query, k=4)
        np.testing.assert_array_equal(expected.indices, actual.indices)
        np.testing.assert_array_equal(expected.scores, actual.scores)
        assert expected.labels == actual.labels

    @pytest.mark.parametrize("name", CAM_BACKENDS)
    def test_single_query_kneighbors_parity_on_processes(self, store, name):
        # A single query travels to the workers as a batch of one.
        base, sharded = _fit_pair(name, store, shards=3, executor="processes", num_workers=2)
        query = store[2][0]
        with sharded:
            actual = sharded.kneighbors(query, k=4)
        expected = base.kneighbors(query, k=4)
        np.testing.assert_array_equal(expected.indices, actual.indices)
        assert expected.scores.tobytes() == actual.scores.tobytes()
        assert expected.labels == actual.labels

    @pytest.mark.parametrize("name", CAM_BACKENDS)
    def test_predict_batch_parity(self, store, name):
        base, sharded = _fit_pair(name, store, shards=5, executor="processes", num_workers=2)
        queries = store[2]
        with sharded:
            np.testing.assert_array_equal(
                base.predict_batch(queries), sharded.predict_batch(queries)
            )


class TestShardEdgeCases:
    def test_more_shards_than_entries_collapses_to_singleton_shards(self, store):
        features, labels, queries = store
        base = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7).fit(
            features[:5], labels[:5]
        )
        sharded = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7, shards=9).fit(
            features[:5], labels[:5]
        )
        assert sharded.num_shards == 5  # empty shards are dropped
        assert sharded.shard_sizes == (1, 1, 1, 1, 1)
        for k in (1, 5):
            _assert_batch_equal(
                base.kneighbors_batch(queries, k=k), sharded.kneighbors_batch(queries, k=k)
            )

    def test_store_smaller_than_one_tile_is_a_single_shard(self, store):
        features, labels, queries = store
        base, sharded = _fit_pair("mcam-3bit", store, max_rows_per_array=1000)
        assert sharded.num_shards == 1
        _assert_batch_equal(
            base.kneighbors_batch(queries, k=3), sharded.kneighbors_batch(queries, k=3)
        )

    def test_k_larger_than_every_shard(self, store):
        # 41 entries over 7 shards: the largest shard holds 6 rows, far fewer
        # than k=20; the merge must still produce the exact global top-20.
        base, sharded = _fit_pair("tcam-lsh", store, shards=7)
        assert max(sharded.shard_sizes) < 20
        _assert_batch_equal(
            base.kneighbors_batch(store[2], k=20), sharded.kneighbors_batch(store[2], k=20)
        )

    def test_singleton_and_short_shards_on_processes(self, store):
        # Workers rank one-row shards and shards shorter than k; the merge of
        # their short top-k lists is still exactly the unsharded top-k.
        features, labels, queries = store
        base, sharded = _fit_pair(
            "mcam-3bit",
            (features[:5], labels[:5], queries),
            shards=9,
            executor="processes",
            num_workers=2,
        )
        assert sharded.shard_sizes == (1, 1, 1, 1, 1)
        with sharded:
            for k in (1, 5):
                _assert_batch_equal(
                    base.kneighbors_batch(queries, k=k), sharded.kneighbors_batch(queries, k=k)
                )
        base, sharded = _fit_pair("tcam-lsh", store, shards=7, executor="processes", num_workers=2)
        assert max(sharded.shard_sizes) < 20
        with sharded:
            _assert_batch_equal(
                base.kneighbors_batch(queries, k=20), sharded.kneighbors_batch(queries, k=20)
            )

    def test_k_beyond_store_rejected_like_unsharded(self, store):
        features, labels, queries = store
        base, sharded = _fit_pair("mcam-3bit", store, shards=3)
        with pytest.raises(ReproError):
            base.kneighbors_batch(queries, k=features.shape[0] + 1)
        with pytest.raises(ReproError):
            sharded.kneighbors_batch(queries, k=features.shape[0] + 1)

    def test_tiled_arrays_are_geometry_bounded(self, store):
        features, labels, _ = store
        sharded = make_searcher(
            "mcam-3bit", num_features=NUM_FEATURES, seed=7, max_rows_per_array=16
        ).fit(features, labels)
        assert sharded.num_shards == 3
        assert sharded.shard_sizes == (16, 16, 9)
        for shard in sharded.shard_searchers:
            assert shard.array.max_rows == 16
            assert shard.array.num_rows <= 16

    def test_unfitted_search_rejected(self):
        sharded = ShardedSearcher(lambda: SoftwareSearcher("euclidean"), num_shards=2)
        with pytest.raises(SearchError):
            sharded.kneighbors(np.zeros(4))


class TestShardConfiguration:
    def test_both_shards_and_max_rows_rejected(self):
        with pytest.raises(SearchError):
            ShardedSearcher(lambda: SoftwareSearcher(), num_shards=2, max_rows_per_array=8)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedSearcher(lambda: SoftwareSearcher(), num_shards=0)

    def test_unknown_executor_rejected(self):
        with pytest.raises(SearchError):
            ShardedSearcher(lambda: SoftwareSearcher(), num_shards=2, executor="mpi")

    def test_deleted_threads_strategy_names_the_available_ones(self):
        with pytest.raises(SearchError, match="available: processes, serial"):
            make_searcher("mcam-3bit", num_features=NUM_FEATURES, shards=2, executor="threads")

    def test_non_callable_factory_rejected(self):
        with pytest.raises(SearchError):
            ShardedSearcher("mcam-3bit", num_shards=2)

    def test_factory_must_return_searcher(self, store):
        features, labels, _ = store
        sharded = ShardedSearcher(lambda: object(), num_shards=2)
        with pytest.raises(SearchError):
            sharded.fit(features, labels)

    def test_compound_registry_name_resolves(self, store):
        features, labels, queries = store
        factory = get_backend("sharded(mcam-3bit)")
        searcher = factory(NUM_FEATURES, shards=4, seed=3)
        assert isinstance(searcher, ShardedSearcher)
        searcher.fit(features, labels)
        assert searcher.num_shards == 4
        assert searcher.kneighbors_batch(queries, k=2).indices.shape == (len(queries), 2)

    def test_compound_name_with_unknown_inner_backend_rejected(self):
        with pytest.raises(SearchError):
            get_backend("sharded(no-such-engine)")

    def test_default_shard_count_is_two(self, store):
        features, labels, _ = store
        sharded = ShardedSearcher(lambda: SoftwareSearcher("euclidean")).fit(features, labels)
        assert sharded.num_shards == 2

    def test_generator_seed_supported(self, store):
        features, labels, queries = store
        sharded = make_searcher(
            "mcam-3bit", num_features=NUM_FEATURES, seed=np.random.default_rng(0), shards=3
        ).fit(features, labels)
        assert sharded.kneighbors_batch(queries, k=2).indices.shape == (len(queries), 2)

    def test_searcher_class_as_factory_gets_no_shard_index(self, store):
        features, labels, queries = store
        sharded = ShardedSearcher(SoftwareSearcher, num_shards=2).fit(features, labels)
        assert sharded.kneighbors_batch(queries, k=1).indices.shape == (len(queries), 1)

    def test_refit_reuses_shard_engines_when_partition_unchanged(self, store):
        features, labels, queries = store
        sharded = ShardedSearcher(lambda: SoftwareSearcher("euclidean"), num_shards=4)
        sharded.fit(features, labels)
        engines = sharded.shard_searchers
        sharded.fit(features + 1.0, labels)
        assert sharded.shard_searchers == engines
        reference = SoftwareSearcher("euclidean").fit(features + 1.0, labels)
        np.testing.assert_array_equal(
            reference.kneighbors_batch(queries, k=5).indices,
            sharded.kneighbors_batch(queries, k=5).indices,
        )


class TestShardRefit:
    """A refit reprograms the arrays it keeps, bitwise like a fresh fit."""

    @pytest.mark.parametrize("name", CAM_BACKENDS)
    def test_refit_matches_fresh_programming_across_arrays(self, store, name):
        features, labels, queries = store
        first = features[:20]
        second = first.copy()
        second[[0, 9, 19]] = features[30:33]  # one changed row in each of the three arrays
        searcher = make_searcher(name, num_features=NUM_FEATURES, seed=7, max_rows_per_array=8)
        searcher.fit(first, labels[:20])
        engines = searcher.shard_searchers
        searcher.kneighbors_batch(queries, k=2)  # the refit must not serve stale caches
        searcher.fit(second, labels[:20])
        assert searcher.shard_searchers == engines
        base, fresh = _fit_pair(name, (second, labels[:20], queries), max_rows_per_array=8)
        for k in (1, 4, 20):
            expected = base.kneighbors_batch(queries, k=k)
            _assert_batch_equal(expected, fresh.kneighbors_batch(queries, k=k))
            _assert_batch_equal(expected, searcher.kneighbors_batch(queries, k=k))

    @pytest.mark.parametrize("name", CAM_BACKENDS)
    def test_shrink_releases_arrays_and_grow_reopens(self, store, name):
        features, labels, queries = store
        searcher = make_searcher(name, num_features=NUM_FEATURES, seed=7, max_rows_per_array=8)
        searcher.fit(features[:20], labels[:20])
        assert searcher.shard_sizes == (8, 8, 4)
        searcher.fit(features[:7], labels[:7])
        assert searcher.shard_sizes == (7,)
        with pytest.raises(ReproError):
            searcher.kneighbors_batch(queries, k=8)
        searcher.fit(features[:20], labels[:20])
        assert searcher.shard_sizes == (8, 8, 4)
        base = make_searcher(name, num_features=NUM_FEATURES, seed=7).fit(
            features[:20], labels[:20]
        )
        for k in (1, 4, 20):
            _assert_batch_equal(
                base.kneighbors_batch(queries, k=k), searcher.kneighbors_batch(queries, k=k)
            )

    @pytest.mark.parametrize("config", ({"shards": 3}, {"max_rows_per_array": 4}))
    def test_device_mode_refit_matches_fresh_programming(self, store, config):
        # With program_seed every row draws its device variation from its own
        # keyed stream, so reprogramming the kept arrays in place equals
        # programming the mutated store from scratch.
        features, labels, queries = store
        rows = features[:10]
        mutated = rows.copy()
        mutated[[1, 6]] = _clipped(features[20:22], rows)
        config = dict(config, variation=GaussianVthVariationModel(sigma_v=0.05), program_seed=17)

        def fit(data):
            return make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7, **config).fit(
                data, labels[:10]
            )

        searcher = fit(rows)
        engines = searcher.shard_searchers
        searcher.kneighbors_batch(queries, k=2)
        searcher.fit(mutated, labels[:10])
        assert searcher.shard_searchers == engines
        fresh = fit(mutated)
        for a, b in zip(searcher.shard_searchers, fresh.shard_searchers):
            assert a.array.row_profiles().tobytes() == b.array.row_profiles().tobytes()
        for k in (1, 4, 10):
            _assert_batch_equal(
                fresh.kneighbors_batch(queries, k=k), searcher.kneighbors_batch(queries, k=k)
            )


class TestShardAppend:
    """Live ingestion: append() must be indistinguishable from a refit."""

    @staticmethod
    def _make(name, **config):
        return make_searcher(
            name, num_features=NUM_FEATURES, seed=7, appendable=True, **config
        )

    @pytest.mark.parametrize("name", ("mcam-3bit", "tcam-lsh", "euclidean"))
    @pytest.mark.parametrize("config", ({"shards": 3}, {"max_rows_per_array": 8}))
    def test_append_bitwise_matches_from_scratch_refit(self, store, name, config):
        features, labels, queries = store
        grown = self._make(name, **config).fit(features[:30], labels[:30])
        grown.append(features[30:], labels[30:])
        refit = self._make(name, **config).fit(features, labels)
        unsharded = make_searcher(name, num_features=NUM_FEATURES, seed=7).fit(
            features, labels
        )
        for k in (1, 4, features.shape[0]):
            expected = refit.kneighbors_batch(queries, k=k)
            _assert_batch_equal(expected, grown.kneighbors_batch(queries, k=k))
            _assert_batch_equal(expected, unsharded.kneighbors_batch(queries, k=k))

    def test_append_to_empty_searcher_is_a_fit(self, store):
        features, labels, queries = store
        appended = self._make("mcam-3bit", shards=3).append(features, labels)
        base = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7).fit(
            features, labels
        )
        _assert_batch_equal(
            base.kneighbors_batch(queries, k=3), appended.kneighbors_batch(queries, k=3)
        )

    def test_k_bounds_track_partial_appends(self, store):
        features, labels, queries = store
        searcher = self._make("mcam-3bit", shards=2).fit(features[:5], labels[:5])
        searcher.append(features[5:8], labels[5:8])
        base = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7).fit(
            features[:8], labels[:8]
        )
        # k == total rows after the partial append works and matches bitwise;
        # one beyond is rejected exactly like the unsharded engine.
        _assert_batch_equal(
            base.kneighbors_batch(queries, k=8), searcher.kneighbors_batch(queries, k=8)
        )
        with pytest.raises(ReproError):
            searcher.kneighbors_batch(queries, k=9)
        with pytest.raises(ReproError):
            base.kneighbors_batch(queries, k=9)

    def test_single_row_append_into_store_smaller_than_one_tile(self, store):
        features, labels, queries = store
        searcher = self._make("mcam-3bit", max_rows_per_array=1000).fit(
            features[:6], labels[:6]
        )
        searcher.append(features[6:7], labels[6:7])
        assert searcher.num_shards == 1
        base = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7).fit(
            features[:7], labels[:7]
        )
        for k in (1, 7):
            _assert_batch_equal(
                base.kneighbors_batch(queries, k=k),
                searcher.kneighbors_batch(queries, k=k),
            )

    def test_append_opens_fresh_tile_when_geometry_is_full(self, store):
        features, labels, queries = store
        searcher = self._make("tcam-lsh", max_rows_per_array=8).fit(
            features[:16], labels[:16]
        )
        assert searcher.num_shards == 2
        searcher.append(features[16:20], labels[16:20])
        assert searcher.num_shards == 3
        assert searcher.shard_sizes == (8, 8, 4)
        base = make_searcher("tcam-lsh", num_features=NUM_FEATURES, seed=7).fit(
            features[:20], labels[:20]
        )
        _assert_batch_equal(
            base.kneighbors_batch(queries, k=5), searcher.kneighbors_batch(queries, k=5)
        )

    def test_repeated_appends_balance_least_full_shards(self, store):
        features, labels, queries = store
        searcher = self._make("euclidean", shards=3).fit(features[:9], labels[:9])
        for start in range(9, 15):
            searcher.append(features[start : start + 1], labels[start : start + 1])
        assert searcher.shard_sizes == (5, 5, 5)
        base = make_searcher("euclidean", num_features=NUM_FEATURES, seed=7).fit(
            features[:15], labels[:15]
        )
        _assert_batch_equal(
            base.kneighbors_batch(queries, k=4), searcher.kneighbors_batch(queries, k=4)
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="multi-worker append parity mirrors the multi-core benchmark gates",
    )
    @pytest.mark.parametrize("num_workers", (2, 4))
    def test_append_parity_on_processes_executor(self, store, num_workers):
        features, labels, queries = store
        config = dict(shards=4, executor="processes", num_workers=num_workers)
        with self._make("mcam-3bit", **config) as grown, self._make(
            "mcam-3bit", **config
        ) as refit:
            grown.fit(features[:30], labels[:30])
            grown.kneighbors_batch(queries, k=2)  # warm the worker caches
            grown.append(features[30:], labels[30:])
            refit.fit(features, labels)
            for k in (1, 5):
                _assert_batch_equal(
                    refit.kneighbors_batch(queries, k=k),
                    grown.kneighbors_batch(queries, k=k),
                )

    def test_append_requires_appendable_flag(self, store):
        features, labels, _ = store
        searcher = make_searcher(
            "mcam-3bit", num_features=NUM_FEATURES, seed=7, shards=2
        ).fit(features, labels)
        with pytest.raises(SearchError, match="appendable"):
            searcher.append(features[:1], labels[:1])

    def test_appendable_without_sharding_rejected(self):
        with pytest.raises(SearchError):
            make_searcher("mcam-3bit", num_features=NUM_FEATURES, appendable=True)

    def test_append_label_consistency_enforced(self, store):
        features, labels, _ = store
        labeled = self._make("euclidean", shards=2).fit(features[:10], labels[:10])
        with pytest.raises(SearchError):
            labeled.append(features[10:12])  # unlabeled rows into a labeled store
        unlabeled = self._make("euclidean", shards=2).fit(features[:10])
        with pytest.raises(SearchError):
            unlabeled.append(features[10:12], labels[10:12])

    def test_append_feature_width_checked(self, store):
        features, labels, _ = store
        searcher = self._make("euclidean", shards=2).fit(features, labels)
        with pytest.raises(SearchError):
            searcher.append(features[:2, : NUM_FEATURES - 1])

    def test_opaque_calibration_refits_every_shard(self, store):
        # An engine with data-dependent calibration but no calibration_token
        # override gives append() no proof that untouched shards are still
        # valid, so every shard must refit (the conservative default).
        features, labels, queries = store

        class CenteredSearcher(SoftwareSearcher):
            def _calibrate(self, features):
                self._center = features.mean(axis=0)

            def _fit(self, features, labels):
                center = getattr(self, "_center", 0.0)
                super()._fit(features - center, labels)

            def _rank_batch(self, queries, rng, k):
                center = getattr(self, "_center", 0.0)
                return super()._rank_batch(queries - center, rng=rng, k=k)

        searcher = ShardedSearcher(
            lambda: CenteredSearcher("euclidean"), num_shards=3, appendable=True
        )
        searcher.fit(features[:30], labels[:30])
        epochs = list(searcher._shard_epochs)
        searcher.append(features[30:], labels[30:])
        assert all(
            after > before for before, after in zip(epochs, searcher._shard_epochs)
        )
        reference = ShardedSearcher(
            lambda: CenteredSearcher("euclidean"), num_shards=3, appendable=True
        ).fit(features, labels)
        _assert_batch_equal(
            reference.kneighbors_batch(queries, k=3),
            searcher.kneighbors_batch(queries, k=3),
        )

    def test_untouched_shards_skip_refit_when_calibration_is_stable(self, store):
        # The software metrics have no data-dependent calibration, so an
        # append must bump only the program epoch of the shard that received
        # the rows.  MCAM rows inside the quantizer's calibration leave it
        # as it is too; a row outside it moves it, and every shard refits.
        features, labels, _ = store
        inside = _clipped(features[9:11], features[:9])

        def bumped(searcher, rows, row_labels):
            epochs = list(searcher._shard_epochs)
            searcher.append(rows, row_labels)
            return [
                index
                for index, (before, after) in enumerate(zip(epochs, searcher._shard_epochs))
                if before != after
            ]

        for name in ("euclidean", "mcam-3bit"):
            searcher = self._make(name, shards=3).fit(features[:9], labels[:9])
            assert len(bumped(searcher, inside[:1], labels[9:10])) == 1
            assert len(bumped(searcher, inside[1:], labels[10:11])) == 1
        outside = features[:9].max(axis=0, keepdims=True) + 1.0
        assert bumped(searcher, outside, labels[11:12]) == [0, 1, 2]

    def test_refit_after_appends_restores_contiguous_partition(self, store):
        features, labels, queries = store
        searcher = self._make("mcam-3bit", shards=3).fit(features[:30], labels[:30])
        searcher.append(features[30:], labels[30:])
        searcher.fit(features, labels)  # full refit resets the row routing
        base = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7).fit(
            features, labels
        )
        _assert_batch_equal(
            base.kneighbors_batch(queries, k=3), searcher.kneighbors_batch(queries, k=3)
        )

    @pytest.mark.parametrize("name", ("mcam-2bit", "mcam-3bit"))
    @pytest.mark.parametrize("config", ({"shards": 3}, {"max_rows_per_array": 8}))
    def test_clipped_append_bitwise_matches_from_scratch_refit(self, store, name, config):
        # Rows clipped into the fitted range take the rows-only path: no
        # recalibration, and only the new rows are quantized and programmed.
        features, labels, queries = store
        grown_rows = np.vstack([features[:30], _clipped(features[30:], features[:30])])
        grown = self._make(name, **config).fit(features[:30], labels[:30])
        for start in range(30, grown_rows.shape[0], 3):
            assert grown.shard_searchers[0].calibration_covers(grown_rows[start : start + 3])
            grown.kneighbors_batch(queries, k=2)  # the next append extends built caches
            grown.append(grown_rows[start : start + 3], labels[start : start + 3])
        refit = self._make(name, **config).fit(grown_rows, labels)
        unsharded = make_searcher(name, num_features=NUM_FEATURES, seed=7).fit(grown_rows, labels)
        for k in (1, 4, grown_rows.shape[0]):
            expected = unsharded.kneighbors_batch(queries, k=k)
            _assert_batch_equal(expected, grown.kneighbors_batch(queries, k=k))
            _assert_batch_equal(expected, refit.kneighbors_batch(queries, k=k))

    def test_device_mode_append_matches_the_full_store_path(self, store, monkeypatch):
        # With program_seed every row draws from its own stream, so programming
        # only the new rows equals today's recalibrate-and-refit path bitwise.
        features, labels, queries = store
        rows = _clipped(features[30:], features[:30])
        config = dict(
            shards=3,
            variation=GaussianVthVariationModel(sigma_v=0.05),
            program_seed=17,
        )

        def grow():
            searcher = self._make("mcam-3bit", **config).fit(features[:30], labels[:30])
            for start in range(0, rows.shape[0], 4):
                searcher.kneighbors_batch(queries, k=2)
                searcher.append(rows[start : start + 4], labels[30 + start : 34 + start])
            return searcher

        rows_only = grow()
        with monkeypatch.context() as patch:
            patch.setattr(MCAMSearcher, "calibration_covers", lambda self, features: False)
            full_path = grow()
        for a, b in zip(rows_only.shard_searchers, full_path.shard_searchers):
            assert a.array.row_profiles().tobytes() == b.array.row_profiles().tobytes()
        for k in (1, 4, features.shape[0]):
            _assert_batch_equal(
                full_path.kneighbors_batch(queries, k=k),
                rows_only.kneighbors_batch(queries, k=k),
            )

    def test_in_range_append_quantizes_only_the_new_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(64, NUM_FEATURES))
        labels = rng.integers(0, 5, size=64)
        rows = _clipped(rng.normal(size=(4, NUM_FEATURES)), features)
        searcher = self._make("mcam-3bit", shards=4).fit(features, labels)
        quantized, calls = [], {"reprogram": 0, "calibrate": 0}
        real_quantize = UniformQuantizer.quantize

        def quantize(self, values):
            quantized.append(np.asarray(values).shape[0])
            return real_quantize(self, values)

        def count(name, real):
            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(UniformQuantizer, "quantize", quantize)
        monkeypatch.setattr(MCAMArray, "reprogram", count("reprogram", MCAMArray.reprogram))
        monkeypatch.setattr(MCAMSearcher, "calibrate", count("calibrate", MCAMSearcher.calibrate))
        searcher.append(rows, labels[:4])
        assert sorted(quantized) == [1, 1, 1, 1]
        assert calls == {"reprogram": 0, "calibrate": 0}
        assert searcher.shard_sizes == (17, 17, 17, 17)

    def test_append_inside_a_constant_columns_band_refits(self, store):
        # A constant feature v is calibrated as [v - 0.5, v + 0.5]; a new value
        # inside that band but not v moves the full-store calibration, so it
        # must not count as covered.
        features, labels, queries = store
        base = features[:30].copy()
        base[:, 0] = 2.0
        rows = _clipped(features[30:33], base)
        rows[:, 0] = 2.25
        searcher = self._make("mcam-3bit", shards=3).fit(base, labels[:30])
        assert not searcher.shard_searchers[0].calibration_covers(rows)
        epochs = list(searcher._shard_epochs)
        searcher.append(rows, labels[30:33])
        assert all(after > before for before, after in zip(epochs, searcher._shard_epochs))
        grown_rows = np.vstack([base, rows])
        refit = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7).fit(
            grown_rows, labels[:33]
        )
        for k in (1, 4, 33):
            _assert_batch_equal(
                refit.kneighbors_batch(queries, k=k), searcher.kneighbors_batch(queries, k=k)
            )

    def test_appended_shard_pickles_like_one_fitted_from_scratch(self, store):
        features, labels, queries = store
        grown_rows = np.vstack([features[:30], _clipped(features[30:], features[:30])])
        searcher = self._make("mcam-3bit", shards=3).fit(features[:30], labels[:30])
        for start in range(30, grown_rows.shape[0], 2):
            searcher.append(grown_rows[start : start + 2], labels[start : start + 2])
        shard = searcher.shard_searchers[0]
        rows = searcher._index_maps[0]
        fresh = make_searcher("mcam-3bit", num_features=NUM_FEATURES, seed=7)
        fresh.calibrate(grown_rows)
        fresh.fit(grown_rows[rows], labels[rows])
        for warm in (False, True):
            if warm:
                shard.kneighbors_batch(queries, k=1)
                fresh.kneighbors_batch(queries, k=1)
            with preserve_search_caches():
                assert len(pickle.dumps(shard)) == len(pickle.dumps(fresh))
            assert len(pickle.dumps(shard)) == len(pickle.dumps(fresh))
        assert len(pickle.dumps(searcher._store_features)) == len(pickle.dumps(grown_rows))


class TestMergeKernel:
    def test_merge_prefers_lower_global_index_on_ties(self):
        scores = np.array([[0.5, 0.1, 0.1, 0.5]])
        indices = np.array([[7, 9, 2, 4]])
        merged_indices, merged_scores = merge_shard_topk(scores, indices, k=3)
        np.testing.assert_array_equal(merged_indices, [[2, 9, 4]])
        np.testing.assert_array_equal(merged_scores, [[0.1, 0.1, 0.5]])

    def test_merge_validates_k(self):
        scores = np.zeros((1, 3))
        indices = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(SearchError):
            merge_shard_topk(scores, indices, k=4)
        with pytest.raises(SearchError):
            merge_shard_topk(scores, indices, k=0)

    def test_merge_validates_shapes(self):
        with pytest.raises(SearchError):
            merge_shard_topk(np.zeros((1, 3)), np.zeros((1, 2), dtype=np.int64), k=1)


class TestCircuitTiles:
    def test_partition_rows_fills_fixed_tiles(self):
        assert partition_rows(41, 16) == ((0, 16), (16, 32), (32, 41))
        assert partition_rows(16, 16) == ((0, 16),)
        assert partition_rows(0, 16) == ()

    def test_split_rows_evenly_balances_and_drops_empties(self):
        assert split_rows_evenly(41, 7) == (
            (0, 6),
            (6, 12),
            (12, 18),
            (18, 24),
            (24, 30),
            (30, 36),
            (36, 41),
        )
        assert split_rows_evenly(3, 5) == ((0, 1), (1, 2), (2, 3))
        assert split_rows_evenly(0, 3) == ()

    def test_partitions_reject_invalid_counts(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ConfigurationError):
                partition_rows(10, bad)
            with pytest.raises(ConfigurationError):
                split_rows_evenly(10, bad)
        for partition in (partition_rows, split_rows_evenly):
            with pytest.raises(ConfigurationError):
                partition(-1, 4)

    def test_array_geometry_still_enforced(self):
        array = MCAMArray(num_cells=3, bits=2, max_rows=2)
        array.write(np.zeros((2, 3), dtype=np.int64))
        assert array.is_full
        assert array.remaining_rows == 0
        with pytest.raises(CapacityError):
            array.write(np.zeros((1, 3), dtype=np.int64))

    def test_max_rows_validated_on_both_arrays(self):
        assert MCAMArray(num_cells=2, bits=2, max_rows=5).max_rows == 5
        assert TCAMArray(num_cells=2, max_rows=5).max_rows == 5
        assert TCAMArray(num_cells=2).max_rows is None
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ConfigurationError):
                MCAMArray(num_cells=2, bits=2, max_rows=bad)
            with pytest.raises(ConfigurationError):
                TCAMArray(num_cells=2, max_rows=bad)
