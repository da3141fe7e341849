"""Conductance look-up tables: the simulated form of the distance function.

Sec. IV-A of the paper explains how the application-level studies are run:
"we create a 2D conductance look-up table based on states and inputs for a
single cell and store it in a Python array.  The run-time conductance of each
cell is read from the look-up table based on the state of the stored feature
and the input feature".  This module builds exactly that table from the
behavioral cell model, with three flavours:

* a **nominal** table (no device variation) — the ideal distance function,
* a **varied** table — every (input, state) entry re-simulated with freshly
  sampled FeFET threshold voltages, modelling one physical array programmed
  without verify pulses (used for Fig. 8),
* a **measured** table — produced by the AND-array experimental model
  (Fig. 9), see :mod:`repro.circuits.and_array`.

The table is wrapped in :class:`ConductanceLUT`, which also provides the
vectorized row-conductance evaluation used by the search engines: the total
conductance of a CAM row is the sum of its cells' conductances, and the row
with the smallest total conductance is the nearest neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from ..exceptions import CircuitError, ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_int_in_range, check_state_matrix
from ..devices.fefet import FeFETParameters
from ..devices.variation import VariationModel
from .mcam_cell import ML_PRECHARGE_V, MCAMCell, MCAMVoltageScheme


def sum_cells_in_order(stack: np.ndarray) -> np.ndarray:
    """Sum a ``(cells, ...)`` stack over its leading axis strictly in cell order.

    Every conductance path of the package adds a row's cell contributions
    as ``((c0 + c1) + c2) + ...``, so that any two of them, on any batch or
    shard shape, return the same bits.  ``np.add.reduce`` over the leading
    axis of a C-contiguous stack adds whole slices in that order, except
    when a slice holds a single value: numpy then reduces the contiguous
    cell axis itself, pairwise, and the last bits differ.  That case
    accumulates instead.
    """
    stack = np.ascontiguousarray(stack)
    if stack[0].size == 1:
        return np.add.accumulate(stack, axis=0)[-1]
    return np.add.reduce(stack, axis=0)


@dataclass(frozen=True)
class ConductanceLUT:
    """A 2-D conductance table ``G[input_state, stored_state]``.

    Attributes
    ----------
    table_s:
        Square matrix of conductances in siemens; ``table_s[i, s]`` is the
        conductance of a cell storing state ``s`` searched with input ``i``.
    bits:
        Bit precision of the cell the table describes.
    """

    table_s: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        table = np.asarray(self.table_s, dtype=np.float64)
        check_int_in_range(self.bits, "bits", minimum=1)
        expected = 2**self.bits
        if table.shape != (expected, expected):
            raise ConfigurationError(
                f"table must be {expected}x{expected} for a {self.bits}-bit cell, "
                f"got shape {table.shape}"
            )
        if np.any(~np.isfinite(table)) or np.any(table < 0):
            raise ConfigurationError("conductance table must be finite and non-negative")
        object.__setattr__(self, "table_s", table)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states the cell can store (``2^bits``)."""
        return 2**self.bits

    def lookup(self, input_states, stored_states):
        """Vectorized cell-conductance lookup.

        Both arguments are broadcast against each other; entries must be
        valid state indices.
        """
        inputs = np.asarray(input_states)
        stored = np.asarray(stored_states)
        if inputs.size and (inputs.min() < 0 or inputs.max() >= self.num_states):
            raise CircuitError(
                f"input states must lie in [0, {self.num_states - 1}], "
                f"got range [{inputs.min()}, {inputs.max()}]"
            )
        if stored.size and (stored.min() < 0 or stored.max() >= self.num_states):
            raise CircuitError(
                f"stored states must lie in [0, {self.num_states - 1}], "
                f"got range [{stored.min()}, {stored.max()}]"
            )
        return self.table_s[inputs, stored]

    def row_conductance(self, stored_rows, query) -> np.ndarray:
        """Total conductance of each stored row for a single query.

        Parameters
        ----------
        stored_rows:
            Integer matrix of shape ``(num_rows, num_cells)`` with the states
            programmed into the array.
        query:
            Integer vector of length ``num_cells`` with the query states.

        Returns
        -------
        numpy.ndarray
            Vector of length ``num_rows``: the ML conductance of every row.
            The row with the smallest value is the nearest neighbor
            (Sec. III-B).  Cells are summed in cell order
            (:func:`sum_cells_in_order`), so the values are bitwise those
            of an :class:`~repro.circuits.mcam_array.MCAMArray` programmed
            with the same table.
        """
        rows = check_state_matrix(stored_rows, self.num_states, name="stored_rows")
        query = np.asarray(query)
        if query.ndim != 1:
            raise CircuitError(f"query must be one-dimensional, got shape {query.shape}")
        query = check_state_matrix(query.reshape(1, -1), self.num_states, name="query")[0]
        if rows.shape[1] != query.shape[0]:
            raise CircuitError(
                f"query length {query.shape[0]} does not match row width {rows.shape[1]}"
            )
        per_cell = self.table_s[query[:, np.newaxis], rows.T]
        return sum_cells_in_order(per_cell)

    def row_profiles(self, stored_rows) -> np.ndarray:
        """Per-cell conductance profiles of programmed rows, for caching.

        Parameters
        ----------
        stored_rows:
            Integer matrix of shape ``(num_rows, num_cells)``.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(num_rows, num_cells, num_states)``:
            ``profiles[r, c, i]`` is the conductance of row ``r``'s cell ``c``
            when searched with input state ``i``.  Arrays cache this once per
            programming so searches reduce to a gather + sum.
        """
        rows = check_state_matrix(stored_rows, self.num_states, name="stored_rows")
        return np.moveaxis(self.table_s[:, rows], 0, -1)

    def distance_by_separation(self) -> np.ndarray:
        """Mean conductance as a function of state distance ``|I - S|``.

        This is the "complete distance function" of Fig. 4(b) collapsed to
        its mean trend; index ``d`` of the returned vector is the mean
        conductance over all (input, state) pairs with ``|I - S| = d``.
        """
        n = self.num_states
        means = np.zeros(n)
        for distance in range(n):
            values = [
                self.table_s[i, s]
                for i in range(n)
                for s in range(n)
                if abs(i - s) == distance
            ]
            means[distance] = float(np.mean(values))
        return means

    def derivative_by_separation(self) -> np.ndarray:
        """Finite-difference derivative of :meth:`distance_by_separation`.

        Reproduces the bell-shaped curve of Fig. 4(d): the derivative is
        small for nearby points, peaks for intermediate distances, and drops
        again for points that are already far apart.
        """
        return np.diff(self.distance_by_separation())

    def dynamic_range(self) -> float:
        """Ratio between the largest mismatch and the match conductance."""
        match = float(np.mean(np.diag(self.table_s)))
        worst = float(self.table_s.max())
        if match <= 0:
            raise CircuitError("match conductance must be positive to define a dynamic range")
        return worst / match

    def normalized(self) -> "ConductanceLUT":
        """Return a copy normalized so the mean match conductance equals 1."""
        match = float(np.mean(np.diag(self.table_s)))
        if match <= 0:
            raise CircuitError("cannot normalize a table with non-positive match conductance")
        return ConductanceLUT(table_s=self.table_s / match, bits=self.bits)

    def with_noise(self, relative_sigma: float, rng: SeedLike = None) -> "ConductanceLUT":
        """Return a copy with multiplicative log-normal noise on every entry.

        Used to model read noise and measurement uncertainty on top of an
        existing table.
        """
        if relative_sigma < 0:
            raise ConfigurationError(f"relative_sigma must be non-negative, got {relative_sigma}")
        if relative_sigma == 0:
            return ConductanceLUT(table_s=self.table_s.copy(), bits=self.bits)
        generator = ensure_rng(rng)
        noise = generator.lognormal(mean=0.0, sigma=relative_sigma, size=self.table_s.shape)
        return ConductanceLUT(table_s=self.table_s * noise, bits=self.bits)


@lru_cache(maxsize=64)
def build_nominal_lut(
    bits: int = 3,
    device: Optional[FeFETParameters] = None,
    scheme: Optional[MCAMVoltageScheme] = None,
    ml_voltage_v: float = ML_PRECHARGE_V,
) -> ConductanceLUT:
    """Build the ideal (variation-free) conductance table for a ``bits``-bit cell.

    The table is a pure function of its (hashable) arguments, so it is
    memoized on them and every MCAM/TCAM array built with the same
    configuration shares one instance; its ``table_s`` is read-only.
    ``build_nominal_lut.__wrapped__`` builds an uncached table.
    """
    if scheme is None:
        scheme = MCAMVoltageScheme(bits=bits)
    elif scheme.bits != bits:
        raise ConfigurationError(
            f"scheme bit precision ({scheme.bits}) does not match requested bits ({bits})"
        )
    cell = MCAMCell(scheme=scheme, device=device, variation=None, ml_voltage_v=ml_voltage_v)
    n = scheme.num_states
    table = np.zeros((n, n))
    for stored in range(n):
        cell.program(stored)
        table[:, stored] = cell.conductance_profile()
    table.flags.writeable = False
    return ConductanceLUT(table_s=table, bits=bits)


def build_varied_lut(
    bits: int = 3,
    variation: Optional[VariationModel] = None,
    device: Optional[FeFETParameters] = None,
    scheme: Optional[MCAMVoltageScheme] = None,
    ml_voltage_v: float = ML_PRECHARGE_V,
    rng: SeedLike = None,
) -> ConductanceLUT:
    """Build a conductance table with freshly sampled device variation.

    Each stored state's two FeFET threshold voltages are sampled once (as for
    one physically programmed cell) and the whole input column is evaluated
    with those devices, mirroring how the paper injects Gaussian V_th
    variation into the look-up table for Fig. 8.
    """
    if variation is None:
        return build_nominal_lut(bits=bits, device=device, scheme=scheme, ml_voltage_v=ml_voltage_v)
    if scheme is None:
        scheme = MCAMVoltageScheme(bits=bits)
    elif scheme.bits != bits:
        raise ConfigurationError(
            f"scheme bit precision ({scheme.bits}) does not match requested bits ({bits})"
        )
    generator = ensure_rng(rng)
    cell = MCAMCell(scheme=scheme, device=device, variation=variation, ml_voltage_v=ml_voltage_v)
    n = scheme.num_states
    table = np.zeros((n, n))
    for stored in range(n):
        cell.program(stored, rng=generator)
        table[:, stored] = cell.conductance_profile()
    return ConductanceLUT(table_s=table, bits=bits)


def build_lut_population(
    count: int,
    bits: int = 3,
    variation: Optional[VariationModel] = None,
    device: Optional[FeFETParameters] = None,
    ml_voltage_v: float = ML_PRECHARGE_V,
    rng: SeedLike = None,
) -> list:
    """Build ``count`` independently varied tables (Monte-Carlo trials)."""
    count = check_int_in_range(count, "count", minimum=1)
    generator = ensure_rng(rng)
    return [
        build_varied_lut(
            bits=bits,
            variation=variation,
            device=device,
            ml_voltage_v=ml_voltage_v,
            rng=generator,
        )
        for _ in range(count)
    ]
