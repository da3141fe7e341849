"""Tests for the software distance metrics."""

import numpy as np
import pytest

from repro.distance import (
    BATCH_METRICS,
    cosine_distance,
    cosine_distances,
    euclidean_distance,
    euclidean_distances,
    get_batch_metric,
    hamming_distance,
    hamming_distances,
    linf_distance,
    linf_distances,
    manhattan_distance,
    manhattan_distances,
    minkowski_distance,
    squared_euclidean_distance,
)
from repro.distance import metrics
from repro.exceptions import ConfigurationError


class TestPairwiseMetrics:
    def test_euclidean_known_value(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_squared_euclidean(self):
        assert squared_euclidean_distance([0, 0], [3, 4]) == pytest.approx(25.0)

    def test_manhattan(self):
        assert manhattan_distance([1, 2], [4, -2]) == pytest.approx(7.0)

    def test_linf(self):
        assert linf_distance([1, 2, 3], [4, 2, 1]) == pytest.approx(3.0)

    def test_cosine_identical_vectors(self):
        assert cosine_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal_vectors(self):
        assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_cosine_opposite_vectors(self):
        assert cosine_distance([1, 0], [-1, 0]) == pytest.approx(2.0)

    def test_cosine_zero_vector(self):
        assert cosine_distance([0, 0], [1, 1]) == 1.0

    def test_hamming(self):
        assert hamming_distance([0, 1, 1, 0], [0, 0, 1, 1]) == 2

    def test_hamming_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            hamming_distance([0, 1], [0, 1, 1])

    def test_minkowski_orders(self):
        a, b = [0.0, 0.0], [1.0, 1.0]
        assert minkowski_distance(a, b, order=1) == pytest.approx(manhattan_distance(a, b))
        assert minkowski_distance(a, b, order=2) == pytest.approx(euclidean_distance(a, b))

    def test_minkowski_invalid_order(self):
        with pytest.raises(ConfigurationError):
            minkowski_distance([0], [1], order=0)

    def test_pair_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            euclidean_distance([1, 2], [1, 2, 3])


class TestMetricAxioms:
    @pytest.mark.parametrize(
        "metric", [euclidean_distance, manhattan_distance, linf_distance]
    )
    def test_identity_symmetry_triangle(self, metric):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 6))
            assert metric(a, a) == pytest.approx(0.0, abs=1e-12)
            assert metric(a, b) == pytest.approx(metric(b, a))
            assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-9

    def test_cosine_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=(2, 5))
            assert 0.0 <= cosine_distance(a, b) <= 2.0


class TestBatchMetrics:
    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(10, 4))
        query = rng.normal(size=4)
        pairs = [
            (euclidean_distances, euclidean_distance),
            (manhattan_distances, manhattan_distance),
            (linf_distances, linf_distance),
            (cosine_distances, cosine_distance),
        ]
        for batch, single in pairs:
            batched = batch(rows, query)
            for i, row in enumerate(rows):
                assert batched[i] == pytest.approx(single(row, query), rel=1e-6)

    def test_hamming_batch(self):
        rows = np.array([[0, 1, 0], [1, 1, 1]])
        assert list(hamming_distances(rows, np.array([0, 1, 1]))) == [1, 1]

    def test_cosine_batch_zero_rows(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        distances = cosine_distances(rows, np.array([1.0, 1.0]))
        assert distances[0] == 1.0
        assert distances[1] == pytest.approx(0.0, abs=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            euclidean_distances(np.ones((3, 4)), np.ones(5))

    def test_registry_lookup(self):
        assert get_batch_metric("cosine") is cosine_distances
        assert set(BATCH_METRICS) == {"euclidean", "manhattan", "linf", "cosine", "hamming"}

    def test_registry_unknown(self):
        with pytest.raises(ConfigurationError):
            get_batch_metric("dtw")


#: Each elementwise distance matrix and the broadcast expression it must equal
#: bitwise: the matrices reduce a scratch difference buffer in place.
BROADCAST_REFERENCES = {
    "euclidean": (metrics.euclidean_distance_matrix, lambda d: np.linalg.norm(d, axis=2)),
    "manhattan": (metrics.manhattan_distance_matrix, lambda d: np.sum(np.abs(d), axis=2)),
    "linf": (metrics.linf_distance_matrix, lambda d: np.max(np.abs(d), axis=2)),
}


def _broadcast_reference(metric, rows, queries):
    rows = np.asarray(rows, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    return BROADCAST_REFERENCES[metric][1](queries[:, np.newaxis, :] - rows[np.newaxis, :, :])


@pytest.mark.parametrize("metric", sorted(BROADCAST_REFERENCES))
class TestDistanceMatrixParity:
    """The in-place matrix reducers are bitwise their broadcast expressions."""

    @pytest.mark.parametrize("num_queries, num_rows", [(1, 1), (25, 5), (100, 100)])
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_matches_the_broadcast_expression(self, metric, num_queries, num_rows, dtype):
        # float32 is what SoftwareSearcher passes (its store is FP32).
        rng = np.random.default_rng([num_queries, num_rows])
        rows = rng.normal(size=(num_rows, 64)).astype(dtype)
        queries = rng.normal(size=(num_queries, 64)).astype(dtype)
        got = BROADCAST_REFERENCES[metric][0](rows, queries)
        assert got.shape == (num_queries, num_rows)
        assert got.tobytes() == _broadcast_reference(metric, rows, queries).tobytes()

    def test_empty_query_batch(self, metric):
        rows = np.ones((5, 64), dtype=np.float32)
        got = BROADCAST_REFERENCES[metric][0](rows, np.empty((0, 64), dtype=np.float32))
        assert got.shape == (0, 5) and got.dtype == np.float64

    def test_query_chunks_reuse_one_buffer_bitwise(self, metric, monkeypatch):
        # Chunks of 3 queries against 7 rows: 14 chunks, the last one short,
        # so later chunks overwrite what earlier reducers left in the buffer.
        monkeypatch.setattr(metrics, "_BROADCAST_CHUNK_ELEMENTS", 3 * 7 * 64)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(7, 64)).astype(np.float32)
        queries = rng.normal(size=(40, 64)).astype(np.float32)
        got = BROADCAST_REFERENCES[metric][0](rows, queries)
        assert got.tobytes() == _broadcast_reference(metric, rows, queries).tobytes()
