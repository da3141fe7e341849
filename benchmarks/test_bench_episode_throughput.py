"""Episode throughput: the parallel experiment runtime's perf gates.

Gates the optimizations this layer stacks on the Monte-Carlo sweeps and
records the measurements in
``benchmarks/results/BENCH_episode_throughput.local.json`` (machine-local,
gitignored — timings differ per host and rerun).  The file committed at the
repository root, ``BENCH_episode_throughput.json``, carries only the
schema-stable trajectory fields (workload shapes, gate thresholds,
measurement names), so benchmark reruns never dirty the working tree:

1. **Delta reprogramming** — a device-mode refit that changes a few rows
   must beat the erase-everything-and-rewrite path it replaces.
2. **Process-parallel sweeps** — the Fig. 8 variation sweep dispatched with
   ``executor="processes"`` must beat the serial sweep by >= 3x wall-clock
   (skipped below 4 cores, where the target is unreachable), bitwise
   identically.
3. **Exact matmul Hamming kernel** — beats the boolean mismatch masks by
   >= 2x, bitwise identically.

The MCAM conductance kernels are pinned bitwise (the fused gather against
the per-cell accumulation; the fused gather and the public path against
the dense kernel) and timed without a gate, alongside the serial episode
throughput, so the trajectory captures every hot path this layer touched.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.variation_study import VariationSweep
from repro.circuits.mcam_array import MCAMArray
from repro.circuits.tcam import DONT_CARE, TCAMArray
from repro.core.search import make_searcher
from repro.datasets.omniglot import SyntheticEmbeddingSpace
from repro.devices.variation import GaussianVthVariationModel
from repro.mann.fewshot import FewShotEvaluator

pytestmark = pytest.mark.smoke

#: Paper episode shape gated by the kernel speedup: 5-way 1-shot support
#: rows, 5 queries per class, 64-cell words (the MANN configuration).
EPISODE_ROWS = 5
EPISODE_QUERIES = 25
WORD_LENGTH = 64

REQUIRED_TCAM_KERNEL_SPEEDUP = 2.0
REQUIRED_DELTA_SPEEDUP = 2.0
REQUIRED_SWEEP_SPEEDUP = 3.0
SWEEP_MIN_CORES = 4

#: Schema-stable trajectory fields committed at the repository root; the
#: machine-local measurements land next to the other benchmark outputs.
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_episode_throughput.json"
LOCAL_JSON_NAME = "BENCH_episode_throughput.local.json"

#: Every measurement this module can record, independent of host (multicore
#: gates may skip on small machines; the committed schema must not vary).
MEASUREMENT_NAMES = (
    "delta_reprogram",
    "mcam_fused_kernel",
    "mcam_rule_kernel",
    "parallel_variation_sweep",
    "serial_episode_throughput",
    "tcam_matmul_kernel",
)

RNG = np.random.default_rng(20211101)


def _best_of(fn, repeats: int, rounds: int = 5) -> float:
    """Best mean-over-``repeats`` wall time of ``fn`` across ``rounds``."""
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


@pytest.fixture(scope="module")
def bench_report(results_dir):
    """Collects measurements; timings go machine-local, the schema goes to git.

    The full report (wall times, speedups, CPU count) is written under
    ``benchmarks/results/`` where it is gitignored and uploaded as the CI
    trajectory artifact.  The repo-root JSON is regenerated with only fields
    that are identical on every host and every rerun, so committing after a
    benchmark run never produces churn.
    """
    report = {
        "benchmark": "episode_throughput",
        "cpu_count": os.cpu_count(),
        "measurements": {},
    }
    yield report["measurements"]
    local_json = results_dir / LOCAL_JSON_NAME
    local_json.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    stable = {
        "benchmark": "episode_throughput",
        "gates": {
            "delta_reprogram_speedup_min": REQUIRED_DELTA_SPEEDUP,
            "parallel_sweep_min_cores": SWEEP_MIN_CORES,
            "parallel_sweep_speedup_min": REQUIRED_SWEEP_SPEEDUP,
            "tcam_matmul_kernel_speedup_min": REQUIRED_TCAM_KERNEL_SPEEDUP,
        },
        "local_results": f"benchmarks/results/{LOCAL_JSON_NAME}",
        "measurements": list(MEASUREMENT_NAMES),
        "workload": {
            "episode_queries": EPISODE_QUERIES,
            "episode_rows": EPISODE_ROWS,
            "word_length": WORD_LENGTH,
        },
    }
    BENCH_JSON.write_text(json.dumps(stable, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _per_cell_loop(array: MCAMArray, queries: np.ndarray) -> np.ndarray:
    """Reference reduction: validation plus the per-cell accumulation."""
    checked = array._check_query_batch(queries)
    by_cell = array._profiles_by_cell()
    out = np.zeros((checked.shape[0], array.num_rows))
    for cell in range(array.num_cells):
        out += by_cell[cell][checked[:, cell]]
    return out


def _kernel(array: MCAMArray, name: str, queries: np.ndarray) -> np.ndarray:
    """One MCAM conductance kernel called directly on the cached profiles."""
    return getattr(array, f"_{name}_conductances")(array._profiles_by_cell(), queries)


def test_fused_conductance_kernel_matches_per_cell_loop(bench_report, record_result):
    array = MCAMArray(num_cells=WORD_LENGTH, bits=3)
    array.write(RNG.integers(0, 8, size=(EPISODE_ROWS, WORD_LENGTH)))
    queries = RNG.integers(0, 8, size=(EPISODE_QUERIES, WORD_LENGTH))

    fused = _kernel(array, "fused", queries)
    np.testing.assert_array_equal(fused, _per_cell_loop(array, queries))

    fused_s = _best_of(lambda: _kernel(array, "fused", queries), repeats=200)
    bench_report["mcam_fused_kernel"] = {
        "shape": f"{EPISODE_QUERIES}x{EPISODE_ROWS}x{WORD_LENGTH}",
        "fused_us": 1e6 * fused_s,
    }
    record_result(
        "episode_kernel_mcam",
        f"episode shape queries={EPISODE_QUERIES} rows={EPISODE_ROWS} "
        f"cells={WORD_LENGTH}\n"
        "parity: fused gather bitwise identical to the per-cell loop (timed, no gate)",
        timing=f"fused LUT gather: {1e6 * fused_s:.0f} us/batch",
    )


def test_every_conductance_kernel_matches_dense(bench_report, record_result):
    """Pin the fused kernel, the public path and the screen bitwise to dense.

    Covers the 5-way 1-shot shape, where the static size rule picks the
    fused gather, and the 20-way 5-shot shape (100 rows x 100 queries x 64
    cells), where it picks the dense loop; the public path's time per
    shape is recorded without a gate.  Against one ``serve_mixed`` shard
    (4096 rows x 64 cells) the screened top-k must return the dense
    ranking's first ``k`` indices and score bytes for ``k`` in 1, 5 and 32,
    at 1 and 4 queries (its summed-gather estimates) and at 32 (its BLAS
    product); its time at ``k = 32`` is recorded without a gate too.
    """
    shapes = {
        "5way_1shot": (EPISODE_ROWS, EPISODE_QUERIES),
        "20way_5shot": (20 * 5, 20 * 5),
    }
    report = {}
    lines = []
    for name, (rows, num_queries) in shapes.items():
        array = MCAMArray(num_cells=WORD_LENGTH, bits=3)
        array.write(RNG.integers(0, 8, size=(rows, WORD_LENGTH)))
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))

        reference = _kernel(array, "dense", queries)
        np.testing.assert_array_equal(reference, _kernel(array, "fused", queries))
        np.testing.assert_array_equal(reference, array.row_conductances_batch(queries))

        rule_s = _best_of(lambda: array.row_conductances_batch(queries), repeats=100)
        report[name] = {
            "shape": f"{num_queries}x{rows}x{WORD_LENGTH}",
            "rule_us": 1e6 * rule_s,
        }
        lines.append(f"{name}: static rule {1e6 * rule_s:.0f} us")

    array = MCAMArray(num_cells=WORD_LENGTH, bits=3)
    array.write(RNG.integers(0, 8, size=(4096, WORD_LENGTH)))
    for num_queries in (1, 4, 32):
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        reference = _kernel(array, "dense", queries)
        ranking = np.argsort(reference, axis=1, kind="stable")
        for k in (1, 5, 32):
            assert array.in_screen_band(k)
            indices, scores = array.screened_top_k(queries, k)
            np.testing.assert_array_equal(indices, ranking[:, :k])
            expected = np.take_along_axis(reference, ranking[:, :k], axis=1)
            assert scores.tobytes() == expected.tobytes()
        screen_s = _best_of(lambda: array.screened_top_k(queries, 32), repeats=20)
        name = f"serve_shard_screen_{num_queries}q"
        report[name] = {"shape": f"{num_queries}x4096x{WORD_LENGTH}", "screen_us": 1e6 * screen_s}
        lines.append(f"{name} (k=32): {1e6 * screen_s:.0f} us")
    bench_report["mcam_rule_kernel"] = report
    record_result(
        "episode_kernel_rule",
        "MCAM conductance kernels on the 5-way and 20-way episode shapes\n"
        "parity: fused and public path bitwise identical to dense (timed, no gate)\n"
        "screened top-k at 1/4/32x4096x64, k in 1/5/32: dense ranking's indices and "
        "score bytes (timed, no gate)",
        timing="\n".join(lines),
    )


def _seed_hamming_masks(tcam: TCAMArray, queries: np.ndarray) -> np.ndarray:
    """The seed boolean-mismatch Hamming evaluation."""
    checked = tcam._check_query_batch(queries)
    stored = tcam.stored_bits
    care = stored != DONT_CARE
    mismatches = (stored[np.newaxis] != checked[:, np.newaxis]) & care[np.newaxis]
    return mismatches.sum(axis=2)


def test_matmul_hamming_kernel_speedup(bench_report, record_result):
    tcam = TCAMArray(num_cells=WORD_LENGTH)
    tcam.write(RNG.integers(0, 2, size=(2048, WORD_LENGTH)))
    queries = RNG.integers(0, 2, size=(64, WORD_LENGTH))

    np.testing.assert_array_equal(
        tcam.hamming_distances_batch(queries), _seed_hamming_masks(tcam, queries)
    )
    seed_s = _best_of(lambda: _seed_hamming_masks(tcam, queries), repeats=20)
    matmul_s = _best_of(lambda: tcam.hamming_distances_batch(queries), repeats=20)
    speedup = seed_s / matmul_s
    bench_report["tcam_matmul_kernel"] = {
        "shape": f"64x2048x{WORD_LENGTH}",
        "seed_us": 1e6 * seed_s,
        "matmul_us": 1e6 * matmul_s,
        "speedup": speedup,
    }
    record_result(
        "episode_kernel_tcam",
        f"stored=2048 queries=64 bits={WORD_LENGTH}\n"
        f"gate: exact matmul >= {REQUIRED_TCAM_KERNEL_SPEEDUP}x seed mismatch "
        "masks, bitwise identical",
        timing=f"seed mismatch masks: {1e6 * seed_s:.0f} us/batch\n"
        f"exact matmul kernel: {1e6 * matmul_s:.0f} us/batch\n"
        f"speedup:             {speedup:.2f}x",
    )
    # The matmul kernel replaces an O(queries*rows*cells) boolean temporary
    # with one BLAS product; anything below the gate would signal a regression.
    assert speedup >= REQUIRED_TCAM_KERNEL_SPEEDUP


def test_delta_reprogram_speedup(bench_report, record_result):
    variation = GaussianVthVariationModel(sigma_v=0.05)
    rows, changed_rows = 512, 8
    states = RNG.integers(0, 8, size=(rows, WORD_LENGTH))
    mutated = states.copy()
    mutated[:changed_rows] = RNG.integers(0, 8, size=(changed_rows, WORD_LENGTH))

    def full_rewrite():
        array.clear()
        array.write(mutated, rng=3)

    def delta():
        array.reprogram(mutated, rng=3)
        array.reprogram(states, rng=3)

    array = MCAMArray(num_cells=WORD_LENGTH, bits=3, variation=variation)
    array.write(states, rng=3)
    full_s = _best_of(full_rewrite, repeats=3, rounds=3)

    array = MCAMArray(num_cells=WORD_LENGTH, bits=3, variation=variation)
    array.reprogram(states, rng=3)
    delta_s = _best_of(delta, repeats=3, rounds=3) / 2.0  # two refits per call

    speedup = full_s / delta_s
    bench_report["delta_reprogram"] = {
        "rows": rows,
        "changed_rows": changed_rows,
        "full_rewrite_ms": 1e3 * full_s,
        "delta_ms": 1e3 * delta_s,
        "speedup": speedup,
    }
    record_result(
        "episode_delta_reprogram",
        f"device-mode refit, {changed_rows}/{rows} rows changed\n"
        f"gate: delta reprogram >= {REQUIRED_DELTA_SPEEDUP}x erase + rewrite",
        timing=f"erase + rewrite: {1e3 * full_s:.2f} ms\n"
        f"delta reprogram: {1e3 * delta_s:.2f} ms\n"
        f"speedup:         {speedup:.2f}x",
    )
    assert speedup >= REQUIRED_DELTA_SPEEDUP, (
        f"delta reprogramming is only {speedup:.2f}x faster than a full rewrite "
        f"with {changed_rows}/{rows} rows changed"
    )


def test_serial_episode_throughput_recorded(bench_report, record_result):
    """Record the serial episode rate (trajectory context, no gate)."""
    space = SyntheticEmbeddingSpace(seed=11)
    factory = lambda: make_searcher("mcam-3bit", space.embedding_dim, seed=4)  # noqa: E731

    with FewShotEvaluator(space, n_way=5, k_shot=1, num_episodes=20) as evaluator:
        start = time.perf_counter()
        evaluator.evaluate(factory, rng=1)
        elapsed = time.perf_counter() - start
    rate = evaluator.num_episodes / elapsed
    bench_report["serial_episode_throughput"] = {
        "task": "5-way 1-shot",
        "episodes_per_second": rate,
    }
    record_result(
        "episode_throughput_serial",
        f"5-way 1-shot, mcam-3bit, {evaluator.num_episodes} episodes\n"
        "tracked: serial episode rate (no gate)",
        timing=f"serial episode rate: {rate:,.0f} episodes/sec",
    )
    assert rate > 0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < SWEEP_MIN_CORES,
    reason=f"the {REQUIRED_SWEEP_SPEEDUP}x gate needs >= {SWEEP_MIN_CORES} cores",
)
def test_parallel_variation_sweep_speedup(bench_report, record_result):
    space = SyntheticEmbeddingSpace(seed=13)
    sweep_config = dict(
        tasks=((5, 1), (20, 1)),
        sigmas_v=(0.0, 0.08, 0.15, 0.30),
        num_episodes=16,
        luts_per_sigma=4,
    )

    with VariationSweep(space, executor="serial", **sweep_config) as serial_sweep:
        start = time.perf_counter()
        serial_points = serial_sweep.run(rng=42).points
        serial_s = time.perf_counter() - start

    with VariationSweep(space, executor="processes", **sweep_config) as parallel_sweep:
        start = time.perf_counter()
        parallel_points = parallel_sweep.run(rng=42).points
        parallel_s = time.perf_counter() - start

    assert parallel_points == serial_points, (
        "process-parallel sweep points differ from the serial reference"
    )
    speedup = serial_s / parallel_s
    bench_report["parallel_variation_sweep"] = {
        "trials": len(serial_points) * sweep_config["luts_per_sigma"],
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
    }
    record_result(
        "episode_sweep_parallel",
        f"Fig. 8 sweep, {len(serial_points)} points x "
        f"{sweep_config['luts_per_sigma']} LUTs\n"
        f"gate: processes >= {REQUIRED_SWEEP_SPEEDUP}x serial on >= "
        f"{SWEEP_MIN_CORES} cores, bitwise identical points",
        timing=f"cores={os.cpu_count()}\n"
        f"serial:    {serial_s:.2f} s\nprocesses: {parallel_s:.2f} s\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup >= REQUIRED_SWEEP_SPEEDUP, (
        f"process-parallel sweep is only {speedup:.2f}x faster than serial "
        f"(required: {REQUIRED_SWEEP_SPEEDUP}x on {os.cpu_count()} cores)"
    )
