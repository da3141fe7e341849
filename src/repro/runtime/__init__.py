"""Parallel experiment runtime: persistent pools and Monte-Carlo dispatch.

The execution layer behind the statistical sweeps:

* :mod:`repro.runtime.process_pool` — a persistent worker-process pool and
  the ``"processes"`` shard-executor strategy, with a worker-resident
  shard cache so programmed arrays ship to each worker once per program
  epoch instead of once per query batch,
* :mod:`repro.runtime.transport` — the zero-copy transport layer under the
  shard executor: a shared-memory ring for query/result batches, safe for
  concurrent dispatching threads, and one memory-mapped, checksummed
  spool file per published shard epoch,
* :mod:`repro.runtime.trials` — the trial/episode dispatcher the Fig. 7/8
  harnesses fan out on, with a strict determinism contract (self-contained
  units, bitwise-identical results at any worker count),
* :mod:`repro.runtime.supervision` — the fault-tolerance policy: a pool
  supervisor that heals a dead/hung worker pool in place at a bounded
  restart rate, demoting to in-process serial execution when heals come
  too fast (the degradation ladder is ``shm → serial``),
* :mod:`repro.runtime.faults` — a deterministic, seeded fault-injection
  harness (kill-worker-mid-batch, corrupt/drop-spool, corrupt-segment,
  delay-collect, torn-journal-tail, corrupt-snapshot, drop-manifest)
  behind the chaos test suite and the fault-recovery / warm-restart
  benchmarks.
"""

from .faults import FaultInjector
from .process_pool import (
    PersistentProcessPool,
    ProcessShardExecutor,
    default_worker_count,
    worker_shard_cache_epochs,
)
from .supervision import PoolSupervisor
from .transport import (
    SharedMemoryRing,
    load_spool_payload,
    shared_memory_available,
    verify_spool_entry,
    write_spool_bundle,
)
from .trials import (
    ParallelTrialRunner,
    SerialTrialRunner,
    TRIAL_RUNNERS,
    chunk_units,
    require_picklable,
    resolve_trial_runner,
)

__all__ = [
    "FaultInjector",
    "PersistentProcessPool",
    "PoolSupervisor",
    "ProcessShardExecutor",
    "SharedMemoryRing",
    "default_worker_count",
    "load_spool_payload",
    "shared_memory_available",
    "verify_spool_entry",
    "worker_shard_cache_epochs",
    "write_spool_bundle",
    "ParallelTrialRunner",
    "SerialTrialRunner",
    "TRIAL_RUNNERS",
    "chunk_units",
    "require_picklable",
    "resolve_trial_runner",
]
