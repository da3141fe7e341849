"""Fixed-geometry CAM arrays: row bounds and row partitioning.

Real CAM arrays are physically bounded — the row and column counts are fixed
by the circuit layout, not by the workload.  Serving a store larger than one
array therefore means partitioning the entries across N arrays of identical
geometry; a search broadcasts the query to all arrays at once (each senses
its own match lines in parallel, so the single-step search delay is
preserved).  :class:`~repro.core.sharding.ShardedSearcher` does that one
layer up, at the search-engine level.

This module provides the bookkeeping it and the array models share:

* :class:`FixedGeometryArray` — the occupancy properties of an array with
  an optional ``max_rows`` bound,
* :func:`partition_rows` / :func:`split_rows_evenly` — the two contiguous
  partitioning strategies (fill fixed-capacity arrays, or balance a
  requested shard count).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..utils.validation import check_int_in_range

#: A contiguous ``[start, stop)`` span of global row indices.
RowSpan = Tuple[int, int]


class FixedGeometryArray:
    """Row-bound bookkeeping shared by the CAM array models.

    Mixin for array classes exposing ``max_rows`` (``None`` = unbounded) and
    ``num_rows``; provides the derived occupancy properties.
    """

    max_rows: Optional[int]

    @property
    def remaining_rows(self) -> Optional[int]:
        """Unprogrammed rows left in the array (``None`` when unbounded)."""
        if self.max_rows is None:
            return None
        return self.max_rows - self.num_rows

    @property
    def is_full(self) -> bool:
        """Whether every physical row is programmed (always False unbounded)."""
        return self.max_rows is not None and self.num_rows >= self.max_rows


def partition_rows(num_entries: int, max_rows: int) -> Tuple[RowSpan, ...]:
    """Contiguous spans of at most ``max_rows`` rows covering ``num_entries``.

    Every span except possibly the last is exactly ``max_rows`` long, which is
    how fixed-capacity arrays fill up.  Zero entries yield no spans.
    """
    num_entries = check_int_in_range(num_entries, "num_entries", minimum=0)
    max_rows = check_int_in_range(max_rows, "max_rows", minimum=1)
    return tuple(
        (start, min(start + max_rows, num_entries))
        for start in range(0, num_entries, max_rows)
    )


def split_rows_evenly(num_entries: int, num_shards: int) -> Tuple[RowSpan, ...]:
    """``num_shards`` contiguous spans whose lengths differ by at most one.

    Matches ``numpy.array_split`` semantics; shards that would be empty (when
    ``num_shards > num_entries``) are dropped, so every returned span is
    non-empty and the effective shard count is ``min(num_shards, num_entries)``.
    """
    num_entries = check_int_in_range(num_entries, "num_entries", minimum=0)
    num_shards = check_int_in_range(num_shards, "num_shards", minimum=1)
    if num_entries == 0:
        return ()
    base, extra = divmod(num_entries, num_shards)
    spans: List[RowSpan] = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        if size == 0:
            break
        spans.append((start, start + size))
        start += size
    return tuple(spans)
