"""Ternary CAM (TCAM) baseline: in-memory Hamming-distance search.

The comparison point of the paper (its reference [3], Ni et al., *Nature
Electronics* 2019) stores binary LSH signatures in a FeFET TCAM and measures
the Hamming distance between a query signature and every stored row through
the same slowest-discharging-ML mechanism the MCAM uses: every mismatching
cell adds one "on" conductance to the row's match line, so the row with the
fewest mismatches discharges slowest.

The TCAM cell here is literally the 1-bit special case of the MCAM cell
(the paper notes the cells are identical), with an additional *don't care*
state in which both FeFETs are programmed to the high threshold voltage so
the cell never conducts regardless of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import CapacityError, CircuitError
from ..utils.rng import SeedLike
from ..utils.validation import check_int_in_range
from ..devices.fefet import FeFETParameters
from .conductance_lut import build_nominal_lut
from .mcam_array import _labels_of_winners
from .tiles import FixedGeometryArray
from .mcam_cell import ML_PRECHARGE_V, MCAMVoltageScheme
from .matchline import MatchLineModel
from .sense_amplifier import IdealWinnerTakeAll, SensingResult, sense_all

#: Sentinel used for the "don't care" (wildcard) state in stored TCAM rows.
DONT_CARE = -1


def _hamming_kernel_factors(rows: np.ndarray):
    """Affine factors of the matmul Hamming kernel for a block of rows.

    A mismatch of a caring cell storing bit ``s`` under query bit ``q`` is
    ``care * (s XOR q) = care*s + q*(care - 2*care*s)``, so the distances to
    ``rows`` are ``base + queries @ weights`` with ``base[r] = sum_c care*s``
    and ``weights[c, r] = care - 2*care*s``.  The single source of the
    encoding: the full kernel build and the delta cache patch both call it.
    """
    care = (rows != DONT_CARE).astype(np.float64)
    cared_bits = np.where(rows == 1, 1.0, 0.0)
    return cared_bits.sum(axis=1), (care - 2.0 * cared_bits).T


@dataclass(frozen=True)
class TCAMSearchResult:
    """Result of a TCAM nearest-neighbor (minimum Hamming distance) search."""

    winner: int
    label: Optional[int]
    hamming_distances: np.ndarray
    row_conductances_s: np.ndarray
    sensing: SensingResult

    def top_k(self, k: int) -> np.ndarray:
        """Row indices of the ``k`` best (smallest Hamming distance) rows."""
        return self.sensing.top_k(k)


class TCAMArray(FixedGeometryArray):
    """Binary/ternary CAM performing in-memory Hamming-distance search.

    Parameters
    ----------
    num_cells:
        Word width in bits (e.g. the LSH signature length).
    max_rows:
        Explicit physical row count; ``None`` means unbounded (simulation
        only).  Larger stores tile across arrays, see
        :mod:`repro.circuits.tiles`.
    device:
        FeFET parameters; the match/mismatch conductances are taken from the
        1-bit MCAM cell built from the same device, keeping the TCAM and MCAM
        energetically comparable as the paper assumes.
    """

    def __init__(
        self,
        num_cells: int,
        device: Optional[FeFETParameters] = None,
        sense_amplifier=None,
        ml_voltage_v: float = ML_PRECHARGE_V,
        max_rows: Optional[int] = None,
    ) -> None:
        self.num_cells = check_int_in_range(num_cells, "num_cells", minimum=1)
        self.max_rows = (
            None if max_rows is None else check_int_in_range(max_rows, "max_rows", minimum=1)
        )
        self.device = device if device is not None else FeFETParameters()
        self.ml_voltage_v = ml_voltage_v
        # 1-bit MCAM cell conductances: diagonal = match, off-diagonal = mismatch.
        scheme = MCAMVoltageScheme(bits=1)
        lut = build_nominal_lut(bits=1, device=self.device, scheme=scheme)
        self.match_conductance_s = float(np.mean(np.diag(lut.table_s)))
        self.mismatch_conductance_s = float(
            np.mean(lut.table_s[~np.eye(2, dtype=bool)])
        )
        self.matchline = MatchLineModel(num_cells=self.num_cells, precharge_v=ml_voltage_v)
        if sense_amplifier is None:
            sense_amplifier = IdealWinnerTakeAll()
        self.sense_amplifier = sense_amplifier
        self._stored_bits = np.zeros((0, self.num_cells), dtype=np.int64)
        self._labels: List[Optional[int]] = []
        # Programmed-state cache, rebuilt on write and reused across every
        # query: the affine matmul form of the batched Hamming kernel (see
        # _hamming_kernel).
        self._hamming_base: Optional[np.ndarray] = None
        self._hamming_weights: Optional[np.ndarray] = None

    def __getstate__(self):
        """Pickle without the derived search kernel.

        The affine Hamming factors are pure functions of the stored bits;
        dropping them keeps cross-process shipment (the worker-resident
        shard cache) proportional to the programmed contents.  The receiver
        rebuilds them lazily and bitwise identically.
        """
        state = self.__dict__.copy()
        state["_hamming_base"] = None
        state["_hamming_weights"] = None
        return state

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of stored rows."""
        return int(self._stored_bits.shape[0])

    @property
    def stored_bits(self) -> np.ndarray:
        """Copy of the stored bit matrix (``DONT_CARE`` marks wildcards)."""
        return self._stored_bits.copy()

    @property
    def labels(self) -> List[Optional[int]]:
        """Labels associated with the stored rows."""
        return list(self._labels)

    def clear(self) -> None:
        """Erase all stored rows."""
        self._stored_bits = np.zeros((0, self.num_cells), dtype=np.int64)
        self._labels = []
        self._hamming_base = None
        self._hamming_weights = None

    def _check_rows_and_labels(self, rows, labels: Optional[Sequence[int]]):
        """Shared row/label validation of the write and reprogram paths."""
        rows = np.asarray(rows)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != self.num_cells:
            raise CircuitError(
                f"rows must have shape (n, {self.num_cells}), got {rows.shape}"
            )
        rows = rows.astype(np.int64)
        if not np.all(np.isin(rows, (0, 1, DONT_CARE))):
            raise CircuitError("TCAM rows may only contain 0, 1 or DONT_CARE (-1)")
        if labels is not None:
            labels = list(labels)
            if len(labels) != rows.shape[0]:
                raise CircuitError(f"got {len(labels)} labels for {rows.shape[0]} rows")
        else:
            labels = [None] * rows.shape[0]
        return rows, labels

    def write(self, rows, labels: Optional[Sequence[int]] = None) -> None:
        """Store binary (or ternary, with ``DONT_CARE`` entries) rows."""
        rows, labels = self._check_rows_and_labels(rows, labels)
        if self.max_rows is not None and self.num_rows + rows.shape[0] > self.max_rows:
            raise CapacityError(
                f"writing {rows.shape[0]} rows exceeds the TCAM geometry ({self.max_rows} rows)"
            )
        self._stored_bits = np.vstack([self._stored_bits, rows])
        self._labels.extend(labels)
        self._hamming_base = None
        self._hamming_weights = None

    def reprogram(
        self,
        rows,
        labels: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
        row_offset: int = 0,
    ) -> np.ndarray:
        """Replace the stored rows, re-programming only the changed ones.

        The TCAM counterpart of
        :meth:`~repro.circuits.mcam_array.MCAMArray.reprogram`: ``rows``
        replaces the stored contents wholesale, but cells of unchanged rows
        keep their programmed state and their slices of the cached search
        kernel, so an episodic refit that swaps ``m`` of ``n`` rows costs
        ``O(m)`` cache work.  Returns the indices of the changed rows.

        ``rng`` and ``row_offset`` are accepted for interface uniformity with
        the MCAM's row-keyed device-mode path (so
        :class:`~repro.circuits.tiles.CAMTileSet` can forward them to mixed
        tile types) and are ignored: TCAM programming is deterministic.
        """
        del rng, row_offset  # deterministic programming needs neither
        rows, labels = self._check_rows_and_labels(rows, labels)
        if self.max_rows is not None and rows.shape[0] > self.max_rows:
            raise CapacityError(
                f"reprogramming {rows.shape[0]} rows exceeds the TCAM geometry "
                f"({self.max_rows} rows)"
            )

        old = self._stored_bits
        common = min(old.shape[0], rows.shape[0])
        unchanged = np.zeros(rows.shape[0], dtype=bool)
        if common:
            unchanged[:common] = np.all(old[:common] == rows[:common], axis=1)
        changed = np.flatnonzero(~unchanged)

        same_geometry = rows.shape[0] == old.shape[0]
        if self._hamming_weights is not None and same_geometry:
            if changed.size:
                base, weights = _hamming_kernel_factors(rows[changed])
                self._hamming_base[changed] = base
                self._hamming_weights[:, changed] = weights
        else:
            self._hamming_base = None
            self._hamming_weights = None

        self._stored_bits = rows.copy()
        self._labels = labels
        return changed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _hamming_kernel(self):
        """Affine matmul form of the batched Hamming evaluation.

        The whole distance matrix is one affine map of the query batch,
        ``distances = base + queries @ weights`` (see
        :func:`_hamming_kernel_factors`).  Both factors are integer-valued
        and bounded by the word width, far inside the float64 exact-integer
        range, so the BLAS product is exact and the kernel is bitwise
        identical to counting caring mismatched cells — while never
        materializing the ``(num_queries, num_rows, num_cells)`` mismatch
        temporary such a count needs.
        """
        if self._hamming_weights is None:
            base, weights = _hamming_kernel_factors(self._stored_bits)
            self._hamming_base = base
            self._hamming_weights = np.ascontiguousarray(weights)
        return self._hamming_base, self._hamming_weights

    def hamming_distances(self, query) -> np.ndarray:
        """Hamming distance of ``query`` to every stored row (wildcards match)."""
        query = self._check_query(query)
        return self.hamming_distances_batch(query.reshape(1, -1))[0]

    def hamming_distances_batch(self, queries) -> np.ndarray:
        """Hamming distance matrix ``(num_queries, num_rows)`` for a query batch.

        One exact affine matmul over the programmed-state kernel (see
        :meth:`_hamming_kernel`), so results are independent of batching.
        """
        return self._matmul_hamming(self._check_query_batch(queries))

    def _matmul_hamming(self, queries: np.ndarray) -> np.ndarray:
        """The exact affine matmul form (one BLAS product, no temporaries)."""
        base, weights = self._hamming_kernel()
        mismatches = queries.astype(np.float64) @ weights
        mismatches += base[np.newaxis, :]
        return np.rint(mismatches).astype(np.int64)

    def _conductances_from_distances(self, distances) -> np.ndarray:
        matches = self.num_cells - distances
        return (
            distances * self.mismatch_conductance_s + matches * self.match_conductance_s
        ).astype(np.float64)

    def row_conductances(self, query) -> np.ndarray:
        """ML conductance of every row: mismatches conduct, matches leak."""
        return self._conductances_from_distances(self.hamming_distances(query))

    def row_conductances_batch(self, queries) -> np.ndarray:
        """ML conductance matrix ``(num_queries, num_rows)`` for a query batch."""
        return self._conductances_from_distances(self.hamming_distances_batch(queries))

    def search(self, query, rng: SeedLike = None) -> TCAMSearchResult:
        """Nearest-neighbor (minimum Hamming distance) search for one query."""
        if self.num_rows == 0:
            raise CircuitError("cannot search an empty TCAM")
        distances = self.hamming_distances(query)
        conductances = self._conductances_from_distances(distances)
        sensing = self.sense_amplifier.sense(conductances, rng=rng)
        return TCAMSearchResult(
            winner=sensing.winner,
            label=self._labels[sensing.winner],
            hamming_distances=distances,
            row_conductances_s=conductances,
            sensing=sensing,
        )

    def search_batch(self, queries, rng: SeedLike = None) -> List[TCAMSearchResult]:
        """Search with every row of ``queries``.

        Hamming distances are evaluated for the whole batch in one vectorized
        pass; sensing consumes the RNG in query order, matching a loop of
        :meth:`search` calls.
        """
        if self.num_rows == 0:
            raise CircuitError("cannot search an empty TCAM")
        distances = self.hamming_distances_batch(queries)
        conductances = self._conductances_from_distances(distances)
        sensing = sense_all(self.sense_amplifier, conductances, rng=rng)
        return [
            TCAMSearchResult(
                winner=int(sensing.winners[i]),
                label=self._labels[int(sensing.winners[i])],
                hamming_distances=distances[i],
                row_conductances_s=conductances[i],
                sensing=sensing[i],
            )
            for i in range(len(sensing))
        ]

    def predict(self, queries, rng: SeedLike = None) -> np.ndarray:
        """Labels of the minimum-Hamming-distance row for every query.

        One vectorized Hamming evaluation, one vectorized winner selection
        and a single label take — no per-query result objects are built.
        """
        if self.num_rows == 0:
            raise CircuitError("cannot search an empty TCAM")
        distances = self.hamming_distances_batch(queries)
        if type(self.sense_amplifier) is IdealWinnerTakeAll:
            # Conductance is strictly increasing in distance, so the stable
            # first-occurrence argmin reproduces ideal ML sensing.
            winners = np.argmin(distances, axis=1)
        else:
            conductances = self._conductances_from_distances(distances)
            winners = sense_all(self.sense_amplifier, conductances, rng=rng).winners
        return _labels_of_winners(self._labels, winners, "stored rows")

    def exact_match(self, query) -> np.ndarray:
        """Indices of rows matching ``query`` exactly (wildcards match anything)."""
        distances = self.hamming_distances(query)
        return np.flatnonzero(distances == 0)

    def _check_query(self, query) -> np.ndarray:
        query = np.asarray(query)
        if query.ndim != 1 or query.shape[0] != self.num_cells:
            raise CircuitError(
                f"query must be a vector of length {self.num_cells}, got shape {query.shape}"
            )
        query = query.astype(np.int64)
        if not np.all(np.isin(query, (0, 1))):
            raise CircuitError("TCAM queries must be binary (0/1)")
        return query

    def _check_query_batch(self, queries) -> np.ndarray:
        queries = np.asarray(queries)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.ndim != 2 or queries.shape[1] != self.num_cells:
            raise CircuitError(
                f"queries must have shape (n, {self.num_cells}), got {queries.shape}"
            )
        queries = queries.astype(np.int64)
        if not np.all(np.isin(queries, (0, 1))):
            raise CircuitError("TCAM queries must be binary (0/1)")
        return queries
