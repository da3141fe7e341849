"""Shared plumbing of the benchmark workloads.

Nothing here touches the program under test beyond reading public
counters: the workloads own the calls into ``repro``.  This module holds the
host fingerprint, memory accounting, summary statistics and the
:class:`Outcome` every workload returns.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: Environment variables that size BLAS/OpenMP thread pools.  They are
#: recorded with every result and deliberately never set here, so a change
#: that pins them shows up as a measured difference.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: How many times a workload builds its stack to time set-up; the median
#: is reported as ``setup_s``.
SETUP_REPEATS = 5


class BenchmarkError(RuntimeError):
    """A workload could not run or its outputs were wrong."""


def now() -> float:
    """The benchmark's single clock (monotonic seconds)."""
    return time.perf_counter()


def usable_cores() -> int:
    """Cores this process may run on (the worker count of every pool)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        return "unknown"


def host_fingerprint(active_transport: Optional[str]) -> Dict[str, Any]:
    """What a result must carry to be comparable with another result."""
    return {
        "cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "active_transport": active_transport,
        "transport_fallback": active_transport not in (None, "shm"),
    }


def _vm_hwm_kib(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakMemory:
    """Peak resident memory of this process plus its live worker processes.

    Each :meth:`sample` adds this process's high-water mark to the
    high-water marks of every live child (the worker pools) and keeps the
    largest total seen.  Sample while a pool is alive, before closing it.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def sample(self) -> float:
        own = _vm_hwm_kib(os.getpid())
        if own is None:  # no /proc: fall back to getrusage (self only)
            import resource

            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        total = own
        for child in multiprocessing.active_children():
            total += _vm_hwm_kib(child.pid) or 0
        self.peak_mb = max(self.peak_mb, total / 1024.0)
        return self.peak_mb


def percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        raise BenchmarkError(f"no samples for percentile {q}")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean_or_zero(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    if not len(values):
        raise BenchmarkError("no samples for a median")
    return float(statistics.median(values))


def timed_setups(build: Callable[[], Any], teardown: Callable[[Any], None]) -> tuple:
    """Build the workload's stack :data:`SETUP_REPEATS` times.

    Every build but the last is torn down again; returns the last stack and
    the median build time in seconds.
    """
    times: List[float] = []
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            teardown(stack)
        # Collect the torn-down stack now, so that its garbage is not
        # collected inside the next timed build.
        gc.collect()
        start = now()
        stack = build()
        times.append(now() - start)
    return stack, median(times), times


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics (name -> value), reported with tracing off.
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (name -> value), reported by traced runs.
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Everything else worth keeping: diagnostics, phases, check details.
    report: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        """Record one output check; a failed check fails the run."""
        if not ok:
            self.correct = False
            self.problems.append(problem)


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries the results."""
    print(message, file=sys.stderr, flush=True)
