"""Shape-adaptive kernel selection for the batched search hot paths.

The conductance/Hamming evaluations at the heart of every search have
several algebraically identical implementations whose relative speed
depends on the workload *shape*: a fused LUT gather wins on tiny episode
batches (Python dispatch dominates), a streaming per-cell accumulation wins
on huge stores (temporary memory dominates), and a blocked gather wins in
between — e.g. the 20-way 5-shot episode shapes that a single hardcoded
size threshold mis-classified.

Instead of hardcoding crossover points, the arrays consult a small
process-global **kernel table** keyed by a compact shape signature.  On the
first call with a new signature the candidates are micro-calibrated *on the
live call*: every candidate kernel is timed on the actual operands, the
fastest is recorded, and — because all candidates are bitwise identical by
construction — the winning run's output is returned directly, so
calibration costs only the extra candidates' runs, exactly once per shape
class and process.

Selection never affects results (that is a hard invariant the circuit
tests pin), so the table needs no cross-process coordination: each worker
process calibrates independently and converges to its own host's fastest
kernels.  There is no per-array or per-call override: tests and benchmarks
that need one specific kernel call the arrays' private kernel methods.
"""

from __future__ import annotations

# reprolint: disable-file=RPL002 -- the autotuner's whole job is timing
# candidate kernels on the live host; only kernel *choice* is wall-clock
# dependent, never results (all candidates are bitwise identical).

import time
from typing import Callable, Dict, Optional

#: Process-global kernel table: shape signature -> winning kernel name.
_KERNEL_TABLE: Dict[tuple, str] = {}

#: Calibration runs per candidate: one mandatory (it produces the result
#: that is returned), plus extra best-of rounds for calls cheap enough that
#: scheduling noise would otherwise dominate the measurement.
_EXTRA_CALIBRATION_ROUNDS = 2
_CALIBRATION_BUDGET_S = 2e-3


def shape_bucket(n: int) -> int:
    """Power-of-two bucket of a dimension: ``ceil(log2(n))`` (0 for n <= 1).

    Bucketing keeps the kernel table tiny and stable: workloads whose
    dimensions differ by less than 2x share a calibration, which is far
    finer than the crossover widths between the candidate kernels.
    """
    return int(n - 1).bit_length() if n > 1 else 0


def lookup_kernel(key: tuple) -> Optional[str]:
    """The calibrated winner for ``key``, or ``None`` before calibration.

    The steady-state fast path: callers check the table *before* building
    the candidate closures, so a table hit costs one dict lookup — the
    dispatch overhead must stay negligible against kernels that finish in
    microseconds.
    """
    return _KERNEL_TABLE.get(key)


def select_kernel(key: tuple, candidates: Dict[str, Callable[[], object]]):
    """The fastest candidate for ``key``, micro-calibrating on a table miss.

    Parameters
    ----------
    key:
        Hashable shape signature (family, exact small dims, bucketed large
        dims).  One calibration per key per process.
    candidates:
        Ordered mapping ``name -> zero-argument callable`` running that
        kernel on the live operands.  All candidates **must** produce
        bitwise-identical results — that invariant is what makes returning
        the calibration winner's output sound.

    Returns
    -------
    (name, result):
        The chosen kernel's name and, when this call calibrated, the
        winning candidate's output (``None`` on a table hit — the caller
        runs the chosen kernel itself).
    """
    chosen = _KERNEL_TABLE.get(key)
    if chosen is not None and chosen in candidates:
        return chosen, None
    best_name: Optional[str] = None
    best_time = float("inf")
    best_result = None
    for name, run in candidates.items():
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        if elapsed < _CALIBRATION_BUDGET_S:
            for _ in range(_EXTRA_CALIBRATION_ROUNDS):
                start = time.perf_counter()
                run()
                elapsed = min(elapsed, time.perf_counter() - start)
        if best_name is None or elapsed < best_time:
            best_name, best_time, best_result = name, elapsed, result
    _KERNEL_TABLE[key] = best_name
    return best_name, best_result


def floor_bucket_size(n: int) -> int:
    """The largest size ``<= n`` that sits exactly on a shape-bucket boundary.

    Bucket boundaries are the powers of two (:func:`shape_bucket` buckets
    cover ``(2**(b-1), 2**b]``), so flushing a serving micro-batch at
    ``floor_bucket_size`` of its pending count keeps coalesced traffic inside
    at most ``log2(max_batch)`` distinct shape classes — each one reusable
    from the kernel table after its first calibration — instead of
    calibrating a long tail of odd batch sizes.  Always at least half of
    ``n`` (and never less than 1), so a shape-biased flush can never starve
    more than half of a pending run.
    """
    if n <= 1:
        return 1
    return 1 << (int(n).bit_length() - 1)


def calibrated_query_buckets() -> frozenset:
    """Bucketed query-batch sizes that already have a calibrated winner.

    By convention every circuit autotune key ends with
    ``(..., shape_bucket(num_queries), eligibility_flag)`` — see
    ``MCAMArray.row_conductances_batch`` and
    ``TCAMArray.hamming_distances_batch`` — so the second-to-last key
    element is the query-count bucket.  The micro-batching scheduler
    consults this set when shaping a flush: dispatching a batch whose bucket
    is already calibrated can never stall on a one-shot micro-calibration,
    so such shapes are "cheap" from the scheduler's point of view.
    Aggregated over every kernel family (a serving searcher typically
    exercises one).
    """
    return frozenset(key[-2] for key in _KERNEL_TABLE if len(key) >= 2)


def bucket_calibrated(num_queries: int) -> bool:
    """Whether a query count's shape bucket already has a calibrated winner.

    The serving scheduler consults this before shaping a flush: a batch
    whose bucket is calibrated dispatches as a kernel-table hit and can
    never stall on a one-shot micro-calibration.  Cross-``k`` coalescing
    does not change the answer — the autotune keys bucket the *query count*
    (and the store geometry), not ``k``, so a mixed-``k`` batch ranked once
    at ``max(k)`` lands in the same bucket as its same-``k`` siblings and
    the ``max(k)``-sliced shapes reuse the same calibrated winners.
    """
    return shape_bucket(num_queries) in calibrated_query_buckets()


def kernel_table() -> Dict[tuple, str]:
    """Copy of the calibrated kernel table (introspection/tests)."""
    return dict(_KERNEL_TABLE)


def clear_kernel_table() -> None:
    """Forget every calibration (tests; the table repopulates lazily)."""
    _KERNEL_TABLE.clear()


__all__ = [
    "bucket_calibrated",
    "calibrated_query_buckets",
    "clear_kernel_table",
    "floor_bucket_size",
    "kernel_table",
    "lookup_kernel",
    "select_kernel",
    "shape_bucket",
]
