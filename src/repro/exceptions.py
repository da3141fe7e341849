"""Exception hierarchy used across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from device-model or
search-engine problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with inconsistent parameters."""


class DeviceModelError(ReproError):
    """Raised when a device model is driven outside its validity range."""


class ProgrammingError(DeviceModelError):
    """Raised when a FeFET programming operation cannot reach its target."""


class CircuitError(ReproError):
    """Raised when a CAM circuit model is used inconsistently."""


class CapacityError(CircuitError):
    """Raised when more entries are written to a CAM array than it can hold."""


class SearchError(ReproError):
    """Raised when a nearest-neighbor search cannot be performed."""


class ServingError(ReproError):
    """Raised when the serving layer is used inconsistently (e.g. after close)."""


class ServingOverloadError(ServingError):
    """Raised when admission control fast-fails a query under overload.

    The micro-batching scheduler bounds its pending queue; once the bound is
    reached new submissions are rejected immediately rather than queued into
    unbounded latency.  Clients are expected to treat this as a retryable
    load-shedding signal.
    """


class ServingTimeoutError(ServingError):
    """Raised when a request (or a dispatched batch) misses its deadline.

    Deadlines turn a hung worker or a stalled dispatch into a clean, typed
    failure instead of a future that never resolves.  The supervised
    executor restarts the worker pool after raising this, so a hung batch
    costs its own deadline — never the pool.
    """


class WorkerCrashError(ServingError):
    """Raised when a batch fails because its worker process died.

    The supervised executor retries a crashed batch once on the healed pool
    before raising this; catching it therefore means the crash persisted
    across a pool restart.  The original executor failure is chained as
    ``__cause__``.
    """


class SpoolIntegrityError(ServingError):
    """Raised when a published shard spool entry is corrupt or missing.

    Each spool entry is one file whose CRC-32 covers every byte after its
    prefix, stored states included; a worker that reads a truncated,
    scribbled or deleted entry raises this before it unpickles anything.
    The executor reacts by republishing the shard from the parent-resident
    payload.
    """


class SnapshotIntegrityError(ServingError):
    """Raised when a durable snapshot or append journal fails validation.

    The storage tier never serves partial state: a snapshot whose manifest
    is missing, whose per-shard checksums mismatch, or whose journal holds
    a corrupt (as opposed to torn-tail) record raises this instead of
    restoring a searcher that silently lost acknowledged appends.  A torn
    journal tail — the expected artifact of ``kill -9`` mid-write — is
    tolerated and truncated; corruption *behind* the tail is not.
    """


class QuantizationError(ReproError):
    """Raised when features cannot be quantized to the requested precision."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or split as requested."""


class EnergyModelError(ReproError):
    """Raised when an energy/latency model receives an invalid workload."""


class ExperimentError(ReproError):
    """Raised when an experiment driver is configured inconsistently."""
