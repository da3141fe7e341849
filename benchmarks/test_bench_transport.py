"""Zero-copy transport parity: the serving path's bitwise gate.

Steady-state batches reach the workers through shared memory — queries are
written once into a segment every worker maps, and workers write their
results back in place — and shards reach them as one memory-mapped,
checksummed spool file per shard epoch.  This benchmark pins that moving
bytes this way changes nothing that is computed: the shared-memory transport must match the serial
executor bitwise at 1, 2 and 4 workers (run on every host).

Its speed gate compared shared memory against the pickle transport, which
no longer ships; ``perfbench``'s ``serve_mixed`` workload measures the
transport end to end instead.
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
    labels = RNG.integers(0, 8, size=num_stored)
    queries = RNG.normal(size=(num_queries, num_features))
    return features, labels, queries


@pytest.mark.parametrize("num_workers", (1, 2, 4))
def test_shared_memory_transport_matches_serial_bitwise(num_workers, record_result):
    """Transport parity at every worker count (runs on every host)."""
    features, labels, queries = _workload(96, 24, 32)
    serial = make_searcher("euclidean", num_features=24, shards=NUM_SHARDS)
    serial.fit(features, labels)
    with make_searcher(
        "euclidean",
        num_features=24,
        shards=NUM_SHARDS,
        executor="processes",
        num_workers=num_workers,
    ) as sharded:
        sharded.fit(features, labels)
        for k in (1, 5):
            expected = serial.kneighbors_batch(queries, k=k)
            for _ in range(2):  # cold publish, then warm steady state
                result = sharded.kneighbors_batch(queries, k=k)
                np.testing.assert_array_equal(expected.indices, result.indices)
                np.testing.assert_array_equal(expected.scores, result.scores)
                assert expected.labels == result.labels
        transport = sharded._executor.active_transport
    if num_workers == 4:
        record_result(
            "transport_parity",
            f"stored=96 shards={NUM_SHARDS} queries=32\n"
            "active transport bitwise identical to the serial executor "
            "at 1, 2 and 4 workers: ok",
            timing=f"active transport: {transport}",
        )
