"""Sharded multi-array search: parity with one array, and the sharded search rate.

A store too large for one physical CAM array is partitioned across
fixed-capacity arrays and each shard is ranked on the ``"serial"`` or the
``"processes"`` executor.  This benchmark gates the acceptance property of
the sharding layer — sharded results on both executors are bitwise
identical to the unsharded backend — and times serial sharded batch search.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_searcher

pytestmark = pytest.mark.smoke

NUM_SHARDS = 8
PARITY_STORED = 4096
PARITY_FEATURES = 32
PARITY_QUERIES = 64

RNG = np.random.default_rng(1234)


def _workload(num_stored: int, num_features: int, num_queries: int):
    features = RNG.normal(size=(num_stored, num_features))
    labels = RNG.integers(0, 32, size=num_stored)
    queries = RNG.normal(size=(num_queries, num_features))
    return features, labels, queries


@pytest.mark.parametrize("name", ("mcam-3bit", "tcam-lsh"))
def test_sharded_results_bitwise_identical_to_unsharded(name, record_result):
    features, labels, queries = _workload(PARITY_STORED, PARITY_FEATURES, PARITY_QUERIES)
    base = make_searcher(name, num_features=PARITY_FEATURES, seed=9)
    base.fit(features, labels)
    reference = base.kneighbors_batch(queries, k=5)
    for executor in ("serial", "processes"):
        with make_searcher(
            name,
            num_features=PARITY_FEATURES,
            seed=9,
            shards=NUM_SHARDS,
            executor=executor,
        ) as sharded:
            sharded.fit(features, labels)
            result = sharded.kneighbors_batch(queries, k=5)
        np.testing.assert_array_equal(reference.indices, result.indices)
        np.testing.assert_array_equal(reference.scores, result.scores)
        assert reference.labels == result.labels
    record_result(
        f"shard_parity_{name.replace('-', '_')}",
        f"stored={PARITY_STORED} shards={NUM_SHARDS} queries={PARITY_QUERIES}\n"
        f"serial and processes sharding bitwise identical to unsharded: ok",
    )


def test_sharded_batch_search_rate(benchmark):
    features, labels, queries = _workload(PARITY_STORED, PARITY_FEATURES, PARITY_QUERIES)
    searcher = make_searcher(
        "mcam-3bit",
        num_features=PARITY_FEATURES,
        seed=9,
        shards=NUM_SHARDS,
        executor="serial",
    )
    searcher.fit(features, labels)
    result = benchmark(searcher.kneighbors_batch, queries, 1)
    assert result.indices.shape == (PARITY_QUERIES, 1)
