"""Serving-path appends on the worker-resident shard caches.

The ``"processes"`` shard executor publishes each programmed shard once per
program epoch and keeps it resident in its workers, so steady-state query
batches ship only queries.  This benchmark gates the live-append path on
top of those caches: ``ShardedSearcher.append`` plus delta reprogramming
must be bitwise identical to a from-scratch refit under fixed seeds at 1, 2
and 4 workers on the ``"processes"`` executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_searcher

pytestmark = pytest.mark.smoke

NUM_SHARDS = 4

RNG = np.random.default_rng(20260727)


def _workload(num_stored: int, num_features: int, num_queries: int):
    features = RNG.normal(size=(num_stored, num_features))
    labels = RNG.integers(0, 32, size=num_stored)
    queries = RNG.normal(size=(num_queries, num_features))
    return features, labels, queries


@pytest.mark.parametrize("num_workers", (1, 2, 4))
def test_append_matches_refit_on_processes_executor(num_workers, record_result):
    """append() + delta reprogram == from-scratch refit, at every worker count."""
    features, labels, queries = _workload(480, 16, 16)

    def build():
        return make_searcher(
            "mcam-3bit",
            num_features=16,
            seed=9,
            shards=NUM_SHARDS,
            executor="processes",
            num_workers=num_workers,
            appendable=True,
        )

    with build() as grown, build() as refit:
        grown.fit(features[:400], labels[:400])
        grown.kneighbors_batch(queries, k=3)  # warm the worker caches
        grown.append(features[400:], labels[400:])
        refit.fit(features, labels)
        for k in (1, 5):
            expected = refit.kneighbors_batch(queries, k=k)
            actual = grown.kneighbors_batch(queries, k=k)
            np.testing.assert_array_equal(expected.indices, actual.indices)
            np.testing.assert_array_equal(expected.scores, actual.scores)
            assert expected.labels == actual.labels
    if num_workers == 4:
        record_result(
            "serving_append_parity",
            f"stored=400+80 shards={NUM_SHARDS} executor=processes\n"
            "append() + delta reprogram bitwise identical to a from-scratch "
            "refit at 1, 2 and 4 workers: ok",
        )
