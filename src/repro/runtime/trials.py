"""Monte-Carlo trial dispatch: the parallel experiment runtime.

The paper's statistical results are sweeps of independent trials — the
Fig. 8 device-variation study alone runs ``tasks x sigmas x luts_per_sigma``
full program-and-search evaluations, and every one of them is embarrassingly
parallel.  This module provides the dispatcher the experiment harnesses run
on:

* :class:`SerialTrialRunner` — in-process, in-order execution (the
  reference path),
* :class:`ParallelTrialRunner` — a persistent worker-process pool for the
  interpreter-bound Monte-Carlo workloads.

**Determinism contract.**  A trial unit must be self-contained: it carries
its own :class:`numpy.random.Generator` (spawned with
:func:`~repro.utils.rng.spawn_rngs` *before* dispatch, in a fixed order) and
the trial function must touch no shared mutable state.  Under that contract
the runner only changes *where* trials execute, never *what* they compute —
results are bitwise identical to the serial path at any worker count and any
chunking, which is what lets the Fig. 8 sweep fan out across cores without
perturbing a single data point.

Trial functions dispatched to ``"processes"`` must be picklable
(module-level functions; the experiment harnesses define theirs that way).
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits.tiles import split_rows_evenly
from ..core.sharding import SerialShardExecutor
from ..exceptions import ConfigurationError
from ..utils.validation import check_int_in_range
from .process_pool import PersistentProcessPool

#: Dispatch granularity of process-parallel trials: the units are split into
#: this many chunks per worker, balancing scheduling slack against the
#: per-chunk pickling cost.
CHUNKS_PER_WORKER = 2


def chunk_units(units: Sequence[Any], num_chunks: int) -> Tuple[Sequence[Any], ...]:
    """Split ``units`` into at most ``num_chunks`` contiguous, ordered chunks.

    Chunk lengths differ by at most one and empty chunks are dropped, so the
    concatenation of the chunks is exactly ``units`` — chunking can never
    reorder (and therefore never change) trial results.
    """
    num_chunks = check_int_in_range(num_chunks, "num_chunks", minimum=1)
    return tuple(units[start:stop] for start, stop in split_rows_evenly(len(units), num_chunks))


def _run_trial_chunk(job: Tuple[Callable[[Any], Any], Sequence[Any]]) -> list:
    """Run one chunk of self-contained trial units (worker-side loop)."""
    fn, chunk = job
    return [fn(unit) for unit in chunk]


class SerialTrialRunner(SerialShardExecutor):
    """Run every trial in the calling thread, in order (the reference path).

    The executor interface (order-preserving ``map`` + ``close``) is shared
    with the shard layer, so the in-process strategy is the serial shard
    executor itself.
    """


class ParallelTrialRunner:
    """Dispatch Monte-Carlo trials to a persistent worker-process pool.

    Trials are grouped into contiguous, ordered chunks,
    :data:`CHUNKS_PER_WORKER` per worker (amortizing the pickle round-trip
    over several trials), and each chunk runs as one job in a worker
    process.  Because units are self-contained and chunking preserves
    order, results are **bitwise identical to the serial runner at any
    worker count** — parallelism changes wall-clock time, nothing else.

    Parameters
    ----------
    num_workers:
        Worker-process count; defaults to the host CPU count.
    """

    name = "processes"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        self._pool = PersistentProcessPool(num_workers=num_workers)
        self.num_workers = self._pool.num_workers

    def map(self, fn: Callable, units: Iterable) -> List:
        """Apply ``fn`` to every unit in worker processes, preserving order."""
        unit_list = list(units)
        if len(unit_list) <= 1:
            return [fn(unit) for unit in unit_list]
        chunks = chunk_units(unit_list, self._pool.effective_workers * CHUNKS_PER_WORKER)
        jobs = [(fn, chunk) for chunk in chunks]
        results: List = []
        for chunk_result in self._pool.map(_run_trial_chunk, jobs):
            results.extend(chunk_result)
        return results

    def close(self) -> None:
        """Shut down the worker processes (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ParallelTrialRunner":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


#: Registry of trial-runner strategies by name (mirrors the shard-executor
#: names, so experiment knobs read the same at both layers).
TRIAL_RUNNERS: Dict[str, Callable[..., object]] = {
    "serial": SerialTrialRunner,
    "processes": ParallelTrialRunner,
}


def resolve_trial_runner(executor: str = "serial", num_workers: Optional[int] = None) -> Any:
    """Build a trial runner from an executor name.

    ``executor`` is ``"serial"`` or ``"processes"``; ``num_workers``
    bounds the process pool.
    """
    try:
        factory = TRIAL_RUNNERS[executor.lower()]
    except (KeyError, AttributeError):
        raise ConfigurationError(
            f"unknown trial executor {executor!r}; available: "
            f"{', '.join(sorted(TRIAL_RUNNERS))}"
        ) from None
    return factory(num_workers=num_workers)


def require_picklable(obj: Any, what: str) -> None:
    """Raise a helpful error when ``obj`` cannot be shipped to a worker.

    Process-parallel dispatch pickles trial payloads; lambdas and closures
    cannot cross the process boundary.  Callers use this to fail fast with
    an actionable message instead of a bare ``PicklingError`` mid-sweep.
    """
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise ConfigurationError(
            f"{what} must be picklable for process-parallel execution "
            f"(use a module-level function or functools.partial instead of a "
            f"lambda/closure): {exc}"
        ) from exc
