"""Micro-benchmarks of the simulator's own throughput.

These do not correspond to a paper figure; they track how fast the behavioral
models run (searches per second, LUT construction time, quantization
throughput) so regressions in the simulation code itself are visible.
"""

import numpy as np
import pytest

from repro.circuits import MCAMArray, build_nominal_lut, build_varied_lut
from repro.core import MCAMSearcher, UniformQuantizer
from repro.devices import GaussianVthVariationModel

pytestmark = pytest.mark.smoke

RNG = np.random.default_rng(2021)


@pytest.fixture(scope="module")
def loaded_array():
    array = MCAMArray(num_cells=64, bits=3)
    entries = RNG.integers(0, 8, size=(1024, 64))
    array.write(entries, labels=list(range(1024)))
    queries = RNG.integers(0, 8, size=(32, 64))
    return array, queries


def test_single_query_search_latency(benchmark, loaded_array):
    array, queries = loaded_array
    result = benchmark(array.search, queries[0])
    assert result.row_conductances_s.shape == (1024,)


def test_batched_query_throughput(benchmark, loaded_array):
    array, queries = loaded_array
    results = benchmark(array.search_batch, queries)
    assert len(results) == 32


def test_nominal_lut_construction(benchmark):
    # The uncached build: build_nominal_lut itself is memoized.
    lut = benchmark(build_nominal_lut.__wrapped__, 3)
    assert lut.table_s.shape == (8, 8)


def test_varied_lut_construction(benchmark):
    variation = GaussianVthVariationModel(sigma_v=0.08)
    lut = benchmark.pedantic(
        build_varied_lut,
        kwargs={"bits": 3, "variation": variation, "rng": 0},
        iterations=1,
        rounds=3,
    )
    assert lut.table_s.shape == (8, 8)


def test_quantizer_throughput(benchmark):
    features = RNG.normal(size=(5000, 64))
    quantizer = UniformQuantizer(bits=3).fit(features)
    states = benchmark(quantizer.quantize, features)
    assert states.shape == (5000, 64)


def test_searcher_fit_cost(benchmark):
    features = RNG.normal(size=(500, 64))
    labels = RNG.integers(0, 20, size=500)

    def fit_fresh():
        return MCAMSearcher(bits=3).fit(features, labels)

    searcher = benchmark.pedantic(fit_fresh, iterations=1, rounds=3)
    assert searcher.num_entries == 500
