"""Batch search API: batched results must exactly match looped single-query results.

Covers all three engines (software, MCAM, TCAM+LSH), the backend registry,
and the edge cases the batch API defines: empty batches, ``k`` out of range,
and query-width mismatches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import MatchLineModel, TimeDomainSenseAmplifier
from repro.core import make_searcher
from repro.core.search import (
    MCAMSearcher,
    SoftwareSearcher,
    available_backends,
    get_backend,
    register_backend,
)
from repro.exceptions import SearchError

ENGINES = ("cosine", "euclidean", "manhattan", "linf", "mcam-3bit", "mcam-2bit", "tcam-lsh")

#: Every registered backend, the sharded wrapper, and an MCAM with noisy
#: time-domain sensing.
SINGLE_QUERY_ENGINES = available_backends() + ("sharded(mcam-3bit)", "noisy-mcam")

NUM_FEATURES = 12
NOISE_SIGMA_S = 1e-9


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    features = rng.normal(size=(120, NUM_FEATURES))
    labels = rng.integers(0, 6, size=120)
    queries = rng.normal(size=(23, NUM_FEATURES))
    return features, labels, queries


def fitted(name, data, labels=True):
    features, y, _ = data
    searcher = make_searcher(name, num_features=NUM_FEATURES, seed=11)
    return searcher.fit(features, y if labels else None)


class TestBatchMatchesLooped:
    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("k", (1, 3, 7))
    def test_kneighbors_batch_matches_loop(self, name, k, data):
        searcher = fitted(name, data)
        queries = data[2]
        batch = searcher.kneighbors_batch(queries, k=k)
        assert batch.indices.shape == (queries.shape[0], k)
        assert batch.scores.shape == (queries.shape[0], k)
        assert len(batch.labels) == queries.shape[0]
        for i, query in enumerate(queries):
            single = searcher.kneighbors(query, k=k)
            np.testing.assert_array_equal(batch.indices[i], single.indices)
            if name.startswith(("mcam", "tcam")):
                # CAM conductances/Hamming distances are bitwise identical.
                np.testing.assert_array_equal(batch.scores[i], single.scores)
            else:
                # FP software metrics go through BLAS products whose
                # blocking depends on the batch size; scores may differ by
                # 1 ulp from a batch of one while the ranking stays identical.
                np.testing.assert_allclose(
                    batch.scores[i], single.scores, rtol=1e-12, atol=1e-15
                )
            assert batch.labels[i] == single.labels

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_batch_matches_loop(self, name, data):
        searcher = fitted(name, data)
        features, labels, queries = data
        batched = searcher.predict_batch(queries)
        looped = np.asarray([labels[searcher.nearest(query)] for query in queries])
        np.testing.assert_array_equal(batched, looped)

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_delegates_to_batch(self, name, data):
        searcher = fitted(name, data)
        queries = data[2]
        np.testing.assert_array_equal(
            searcher.predict(queries), searcher.predict_batch(queries)
        )

    def test_batch_result_indexing(self, data):
        searcher = fitted("mcam-3bit", data)
        queries = data[2]
        batch = searcher.kneighbors_batch(queries, k=2)
        assert len(batch) == queries.shape[0]
        one = batch[4]
        np.testing.assert_array_equal(one.indices, batch.indices[4])
        np.testing.assert_array_equal(one.scores, batch.scores[4])
        assert one.labels == batch.labels[4]


class TestBatchEdgeCases:
    @pytest.mark.parametrize("name", ENGINES)
    def test_empty_batch(self, name, data):
        searcher = fitted(name, data)
        empty = np.empty((0, NUM_FEATURES))
        result = searcher.kneighbors_batch(empty, k=3)
        assert len(result) == 0
        assert result.indices.shape == (0, 3)
        assert result.scores.shape == (0, 3)
        assert result.labels == ()
        assert searcher.predict_batch(empty).shape == (0,)

    @pytest.mark.parametrize("name", ENGINES)
    def test_k_larger_than_stored_rejected(self, name, data):
        searcher = fitted(name, data)
        queries = data[2]
        with pytest.raises(Exception):
            searcher.kneighbors(queries[0], k=searcher.num_entries + 1)
        with pytest.raises(Exception):
            searcher.kneighbors_batch(queries, k=searcher.num_entries + 1)

    def test_k_equal_to_stored_allowed(self, data):
        searcher = fitted("euclidean", data)
        queries = data[2][:4]
        batch = searcher.kneighbors_batch(queries, k=searcher.num_entries)
        assert batch.indices.shape == (4, searcher.num_entries)
        # Every stored index appears exactly once per query.
        for row in batch.indices:
            assert sorted(row.tolist()) == list(range(searcher.num_entries))

    def test_width_mismatch_rejected(self, data):
        searcher = fitted("mcam-3bit", data)
        with pytest.raises(SearchError):
            searcher.kneighbors_batch(np.zeros((3, NUM_FEATURES + 1)))
        with pytest.raises(SearchError):
            searcher.predict_batch(np.zeros((0, NUM_FEATURES + 1)))

    def test_unfitted_rejected(self):
        searcher = SoftwareSearcher()
        with pytest.raises(SearchError):
            searcher.kneighbors_batch(np.zeros((2, 4)))

    def test_predict_batch_without_labels_rejected(self, data):
        searcher = fitted("cosine", data, labels=False)
        with pytest.raises(SearchError):
            searcher.predict_batch(data[2])

    def test_single_vector_promoted_to_batch(self, data):
        searcher = fitted("euclidean", data)
        query = data[2][0]
        batch = searcher.kneighbors_batch(query, k=2)
        assert batch.indices.shape == (1, 2)
        single = searcher.kneighbors(query, k=2)
        np.testing.assert_array_equal(batch.indices[0], single.indices)


def _noisy_mcam():
    amplifier = TimeDomainSenseAmplifier(
        MatchLineModel(num_cells=NUM_FEATURES), timing_noise_sigma_s=NOISE_SIGMA_S
    )
    return MCAMSearcher(bits=3, sense_amplifier=amplifier, seed=11)


def _fitted_any(name, data):
    """A fitted engine by backend name, plus the sharded and noisy variants."""
    if name == "noisy-mcam":
        features, labels, _ = data
        return _noisy_mcam().fit(features, labels)
    if name.startswith("sharded("):
        features, labels, _ = data
        searcher = make_searcher(name, num_features=NUM_FEATURES, seed=11, shards=4)
        return searcher.fit(features, labels)
    return fitted(name, data)


class TestSingleQueryIsABatchOfOne:
    @pytest.mark.parametrize("name", SINGLE_QUERY_ENGINES)
    def test_kneighbors_equals_batch_of_one_bitwise(self, name, data):
        searcher = _fitted_any(name, data)
        for query in data[2]:
            single = searcher.kneighbors(query, k=5, rng=3)
            batch = searcher.kneighbors_batch(query[None], k=5, rng=3)[0]
            np.testing.assert_array_equal(single.indices, batch.indices)
            assert single.scores.dtype == batch.scores.dtype
            assert single.scores.tobytes() == batch.scores.tobytes()
            assert single.labels == batch.labels

    def test_noisy_sensing_draws_from_the_rng(self, data):
        # The parity above is only meaningful if the noise moves rankings.
        searcher = _fitted_any("noisy-mcam", data)
        query = data[2][0]
        rankings = [searcher.kneighbors(query, k=5, rng=seed).indices for seed in range(8)]
        assert len({tuple(ranking) for ranking in rankings}) > 1

    @pytest.mark.parametrize("name", ("cosine", "mcam-3bit", "tcam-lsh", "sharded(mcam-3bit)"))
    @pytest.mark.parametrize("defect", ("nan", "inf", "too_wide", "too_narrow"))
    def test_invalid_query_raises_search_error(self, name, defect, data):
        searcher = _fitted_any(name, data)
        query = data[2][0].copy()
        if defect == "nan":
            query[1] = np.nan
        elif defect == "inf":
            query[1] = -np.inf
        elif defect == "too_wide":
            query = np.append(query, 0.5)
        else:
            query = query[:-1]
        with pytest.raises(SearchError):
            searcher.kneighbors(query, k=3)


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        for expected in ENGINES:
            assert expected in names

    def test_get_backend_unknown_name(self):
        with pytest.raises(SearchError):
            get_backend("faiss")

    def test_register_and_resolve_custom_backend(self, data):
        name = "test-custom-euclidean"
        try:
            @register_backend(name)
            def _factory(num_features, **config):
                return SoftwareSearcher(metric="euclidean")

            searcher = make_searcher(name, num_features=NUM_FEATURES)
            assert isinstance(searcher, SoftwareSearcher)
            assert name in available_backends()
        finally:
            from repro.core import search as search_module

            search_module._BACKENDS.pop(name, None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SearchError):
            register_backend("mcam", lambda num_features, **config: None)
