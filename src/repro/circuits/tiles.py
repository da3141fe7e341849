"""Fixed-geometry CAM tiles: a store larger than one physical array.

Real CAM arrays are physically bounded — the row and column counts are fixed
by the circuit layout, not by the workload.  Serving a store larger than one
array therefore means *tiling*: the entries are partitioned across N arrays
of identical geometry, every tile is programmed independently, and a search
broadcasts the query to all tiles at once (each tile senses its own match
lines in parallel, so the single-step search delay is preserved).

This module provides the geometry bookkeeping shared by the circuit layer
and the sharded search runtime:

* :class:`TileGeometry` — the fixed ``max_rows`` x ``num_cells`` shape of one
  physical array,
* :func:`partition_rows` / :func:`split_rows_evenly` — the two contiguous
  partitioning strategies (fill fixed-capacity tiles, or balance a requested
  shard count),
* :class:`CAMTile` / :class:`CAMTileSet` — N programmed arrays behaving like
  one large array with global row indices.

:class:`~repro.core.sharding.ShardedSearcher` builds on the same partition
helpers one layer up, at the search-engine level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError, ConfigurationError
from ..utils.rng import SeedLike
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


@dataclass(frozen=True)
class TileGeometry:
    """Fixed shape of one physical CAM array.

    Attributes
    ----------
    max_rows:
        Number of word rows the array provides.
    num_cells:
        Number of cells per word (the word length).
    """

    max_rows: int
    num_cells: int

    def __post_init__(self) -> None:
        check_int_in_range(self.max_rows, "max_rows", minimum=1)
        check_int_in_range(self.num_cells, "num_cells", minimum=1)

    @property
    def cells_per_tile(self) -> int:
        """Total cell count of one tile."""
        return self.max_rows * self.num_cells

    def tiles_for(self, num_entries: int) -> int:
        """Number of tiles needed to store ``num_entries`` rows."""
        num_entries = check_int_in_range(num_entries, "num_entries", minimum=0)
        return -(-num_entries // self.max_rows) if num_entries else 0


def partition_rows(num_entries: int, max_rows: int) -> Tuple[RowSpan, ...]:
    """Contiguous spans of at most ``max_rows`` rows covering ``num_entries``.

    Every span except possibly the last is exactly ``max_rows`` long, which is
    how fixed-capacity tiles fill up.  Zero entries yield no spans.
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


@dataclass(frozen=True)
class CAMTile:
    """One programmed physical array plus the global index of its first row.

    Attributes
    ----------
    array:
        The programmed CAM array (e.g. an
        :class:`~repro.circuits.mcam_array.MCAMArray` or
        :class:`~repro.circuits.tcam.TCAMArray`).
    row_offset:
        Global row index of the tile's first local row.
    """

    array: object
    row_offset: int

    @property
    def num_rows(self) -> int:
        """Rows currently programmed into this tile."""
        return int(self.array.num_rows)

    @property
    def row_span(self) -> RowSpan:
        """Global ``[start, stop)`` span of the tile's programmed rows."""
        return (self.row_offset, self.row_offset + self.num_rows)

    def global_indices(self, local_indices) -> np.ndarray:
        """Translate tile-local row indices to global store indices."""
        return np.asarray(local_indices, dtype=np.int64) + self.row_offset


class CAMTileSet:
    """N fixed-geometry CAM arrays behaving like one large array.

    Writes fill the current tile up to its ``max_rows`` capacity and then
    open a fresh array from ``array_factory``; searches evaluate every tile
    and report results in global row indices.  This is the circuit-level
    counterpart of :class:`~repro.core.sharding.ShardedSearcher`.

    Parameters
    ----------
    geometry:
        Fixed shape of every tile.
    array_factory:
        Zero-argument callable returning a fresh, empty CAM array whose
        geometry matches ``geometry`` (i.e. built with
        ``max_rows=geometry.max_rows`` and ``num_cells=geometry.num_cells``).
    """

    def __init__(self, geometry: TileGeometry, array_factory: Callable[[], object]) -> None:
        if not isinstance(geometry, TileGeometry):
            raise ConfigurationError(
                f"geometry must be a TileGeometry, got {type(geometry).__name__}"
            )
        self.geometry = geometry
        self.array_factory = array_factory
        self._tiles: List[CAMTile] = []

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Number of physical arrays currently allocated."""
        return len(self._tiles)

    @property
    def num_rows(self) -> int:
        """Total rows programmed across all tiles."""
        return sum(tile.num_rows for tile in self._tiles)

    @property
    def tiles(self) -> Tuple[CAMTile, ...]:
        """The programmed tiles, in global row order."""
        return tuple(self._tiles)

    @property
    def labels(self) -> list:
        """Labels of all stored rows, in global row order."""
        out: list = []
        for tile in self._tiles:
            out.extend(tile.array.labels)
        return out

    def clear(self) -> None:
        """Drop every tile (the arrays are released, not just erased)."""
        self._tiles = []

    def _validated_array(self):
        array = self.array_factory()
        if array.num_rows != 0:
            raise CircuitError("array_factory must return an empty array")
        if getattr(array, "num_cells", self.geometry.num_cells) != self.geometry.num_cells:
            raise ConfigurationError(
                f"array_factory produced {array.num_cells}-cell words but the tile "
                f"geometry specifies {self.geometry.num_cells}"
            )
        max_rows = getattr(array, "max_rows", None)
        if max_rows is not None and max_rows < self.geometry.max_rows:
            raise ConfigurationError(
                f"array_factory produced arrays with max_rows={max_rows}, smaller "
                f"than the tile geometry ({self.geometry.max_rows})"
            )
        return array

    def _new_tile(self) -> CAMTile:
        tile = CAMTile(array=self._validated_array(), row_offset=self.num_rows)
        self._tiles.append(tile)
        return tile

    @staticmethod
    def _coerce_entries_and_labels(entries, labels: Optional[Sequence]):
        """Shared entry/label validation of the write, reprogram and append paths."""
        entries = np.asarray(entries)
        if entries.ndim == 1:
            entries = entries.reshape(1, -1)
        if entries.ndim != 2:
            raise CircuitError(f"entries must be two-dimensional, got shape {entries.shape}")
        if labels is not None:
            labels = list(labels)
            if len(labels) != entries.shape[0]:
                raise CircuitError(f"got {len(labels)} labels for {entries.shape[0]} entries")
        return entries, labels

    def write(self, entries, labels: Optional[Sequence] = None, rng: SeedLike = None) -> None:
        """Program ``entries`` across tiles, opening new arrays as needed.

        Parameters
        ----------
        entries:
            Row matrix in whatever representation the underlying array's
            ``write`` accepts (quantized states for the MCAM, bits for the
            TCAM).
        labels:
            Optional per-entry labels, forwarded to the tiles.
        rng:
            Randomness forwarded to arrays whose ``write`` accepts it (the
            MCAM's per-cell device mode); leave ``None`` for arrays without
            an ``rng`` parameter.
        """
        entries, labels = self._coerce_entries_and_labels(entries, labels)
        written = 0
        while written < entries.shape[0]:
            if self._tiles and self._tiles[-1].num_rows < self.geometry.max_rows:
                tile = self._tiles[-1]
            else:
                tile = self._new_tile()
            room = self.geometry.max_rows - tile.num_rows
            stop = written + min(room, entries.shape[0] - written)
            chunk = entries[written:stop]
            chunk_labels = None if labels is None else labels[written:stop]
            if rng is None:
                tile.array.write(chunk, labels=chunk_labels)
            else:
                tile.array.write(chunk, labels=chunk_labels, rng=rng)
            written = stop

    def reprogram(self, entries, labels: Optional[Sequence] = None, rng: SeedLike = None):
        """Replace the whole store, re-programming only the changed rows.

        The tiled counterpart of the arrays' ``reprogram``: ``entries``
        replaces the stored contents wholesale, each existing tile
        delta-reprograms its span (unchanged rows keep their programmed
        state), surplus tiles are released and missing tiles are opened from
        ``array_factory``.  Row-keyed device-mode sampling (the MCAM's
        ``rng=seed`` path) is keyed by **global** row index, so the same
        contents produce the same physical profiles whether they were
        programmed in one delta pass or from scratch.

        Returns the global indices of the changed rows.
        """
        entries, labels = self._coerce_entries_and_labels(entries, labels)
        spans = partition_rows(entries.shape[0], self.geometry.max_rows)
        del self._tiles[len(spans):]
        while len(self._tiles) < len(spans):
            self._tiles.append(
                CAMTile(
                    array=self._validated_array(),
                    row_offset=len(self._tiles) * self.geometry.max_rows,
                )
            )
        changed_global = []
        for tile, (start, stop) in zip(self._tiles, spans):
            chunk = entries[start:stop]
            chunk_labels = None if labels is None else labels[start:stop]
            if rng is None:
                changed = tile.array.reprogram(chunk, labels=chunk_labels)
            else:
                changed = tile.array.reprogram(
                    chunk, labels=chunk_labels, rng=rng, row_offset=start
                )
            changed_global.append(np.asarray(changed, dtype=np.int64) + start)
        if changed_global:
            return np.concatenate(changed_global)
        return np.empty(0, dtype=np.int64)

    def append(self, entries, labels: Optional[Sequence] = None, rng: SeedLike = None):
        """Append rows behind the stored contents through the delta path.

        The live-ingestion counterpart of :meth:`write`: new rows fill the
        last partial tile and open fresh tiles as needed, but the affected
        tiles are updated through their arrays' ``reprogram`` — existing rows
        diff as unchanged and keep their programmed state, so an append costs
        device work only for the new rows.  With an integer ``rng`` seed the
        device-mode sampling is keyed by **global** row index, making an
        append bitwise identical to a from-scratch :meth:`reprogram` of the
        combined contents under the same seed.

        Returns the global indices of the appended rows.
        """
        entries, labels = self._coerce_entries_and_labels(entries, labels)
        start_global = self.num_rows
        written = 0
        while written < entries.shape[0]:
            if self._tiles and self._tiles[-1].num_rows < self.geometry.max_rows:
                tile = self._tiles[-1]
            else:
                tile = self._new_tile()
            room = self.geometry.max_rows - tile.num_rows
            stop = written + min(room, entries.shape[0] - written)
            chunk = entries[written:stop]
            chunk_labels = (
                [None] * (stop - written) if labels is None else labels[written:stop]
            )
            stored = getattr(tile.array, "stored_states", None)
            if stored is None:
                stored = tile.array.stored_bits
            merged = np.concatenate([stored, chunk], axis=0)
            merged_labels = list(tile.array.labels) + list(chunk_labels)
            if rng is None:
                tile.array.reprogram(merged, labels=merged_labels)
            else:
                tile.array.reprogram(
                    merged, labels=merged_labels, rng=rng, row_offset=tile.row_offset
                )
            written = stop
        return np.arange(start_global, start_global + entries.shape[0], dtype=np.int64)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def row_conductances_batch(self, queries) -> np.ndarray:
        """ML conductances of every stored row, ``(num_queries, num_rows)``.

        Tiles are evaluated left to right and concatenated in global row
        order.  For deterministic (LUT-mode) arrays the matrix is bitwise
        identical to a single unbounded array programmed with the same
        entries; with a variation model attached the per-cell draws depend
        on how the writes were chunked across tiles, so tiled and
        monolithic programming differ — as two physically distinct layouts
        would.
        """
        if not self._tiles:
            raise CircuitError("cannot search an empty tile set")
        blocks = [tile.array.row_conductances_batch(queries) for tile in self._tiles]
        return np.concatenate(blocks, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CAMTileSet(tiles={self.num_tiles}, rows={self.num_rows}, "
            f"geometry={self.geometry.max_rows}x{self.geometry.num_cells})"
        )
