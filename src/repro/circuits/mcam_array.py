"""MCAM array model: rows of multi-bit cells sharing match lines.

An MCAM array stores one quantized data point per row (one feature per
cell).  Searching applies the quantized query to all data lines at once;
every row's match-line conductance is the sum of its cells' conductances
(Fig. 4(c)), and the row with the smallest total conductance — the slowest
discharging ML — is reported as the nearest neighbor (Sec. III-B).

Two fidelity levels are supported:

* **Look-up-table mode** (default): all cells share one
  :class:`~repro.circuits.conductance_lut.ConductanceLUT`; this is exactly
  how the paper runs its application-level studies.
* **Per-cell device mode**: when a variation model is attached, programming
  an entry samples fresh FeFET threshold voltages for every cell and stores
  that cell's individual conductance profile, modelling one physical array
  programmed without verify pulses.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CapacityError, CircuitError, ConfigurationError
from ..utils.growth import append_rows
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_bits, check_int_in_range, check_state_matrix
from ..devices.fefet import FeFETParameters, _drain_current_from_overdrive, clip_vth
from ..devices.variation import VariationModel
from .conductance_lut import ConductanceLUT, build_nominal_lut, sum_cells_in_order
from .matchline import MatchLineModel
from .tiles import FixedGeometryArray
from .mcam_cell import ML_PRECHARGE_V, MCAMVoltageScheme
from .sense_amplifier import IdealWinnerTakeAll, SensingResult, sense_all


#: Salt mixed into the row-keyed reprogramming seeds so the per-row streams
#: cannot collide with other consumers of the same base seed.
_REPROGRAM_KEY_SALT = 0x52455052  # "REPR"

#: Per-thread flag for :func:`preserve_search_caches`, consulted by
#: :meth:`MCAMArray.__getstate__`.
_PICKLE_SEARCH_CACHES = threading.local()


@contextmanager
def preserve_search_caches() -> Iterator[None]:
    """Pickle MCAM arrays **with** their derived search caches.

    By default :meth:`MCAMArray.__getstate__` drops the lazily built
    query-path caches so transport spools stay lean (workers rebuild them
    on first search).  The storage tier inverts that trade-off: a snapshot
    of a *serving* process should restore warm, first query included, so
    :func:`repro.storage.snapshot.write_snapshot` pickles shard engines
    inside this context and pays the larger snapshot for a restore that
    skips the cache rebuild entirely.  Thread-local and reentrant.
    """
    prior = getattr(_PICKLE_SEARCH_CACHES, "active", False)
    _PICKLE_SEARCH_CACHES.active = True
    try:
        yield
    finally:
        _PICKLE_SEARCH_CACHES.active = prior


def _labels_of_winners(labels: List[Optional[int]], winners: np.ndarray, what: str) -> np.ndarray:
    """Winning-row labels for a batch of queries, vectorized when possible.

    Raises only when a *winning* row is unlabeled (mixed stores stay
    predictable as long as every winner carries a label, matching the
    semantics of a per-query search loop).
    """
    if any(label is None for label in labels):
        winner_labels = [labels[int(winner)] for winner in winners]
        if any(label is None for label in winner_labels):
            raise CircuitError(f"cannot predict labels: {what} are unlabeled")
        return np.asarray(winner_labels)
    return np.asarray(labels)[winners]


def _reprogram_base_seed(rng: SeedLike) -> int:
    """Concretize a ``reprogram`` seed to one integer base for row keying.

    Integers pass through unchanged (the reproducible path: a fixed seed
    makes delta and full reprogramming bitwise identical).  Generators and
    ``None`` yield a fresh base per call — still row-keyed, but not
    repeatable.
    """
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return int(rng)
    if isinstance(rng, np.random.SeedSequence):
        return int(rng.generate_state(1, dtype=np.uint64)[0])
    return int(ensure_rng(rng).integers(2**63 - 1))


class _RowKeyedOffsets:
    """Every row's V_th offsets under one base seed, each drawn once.

    Row ``r``'s (DL, DL-bar) offsets are ``table[r]`` once ``drawn[r]``;
    a row is drawn on first use from its own ``(salt, base seed, row)``
    stream, so a row's offsets do not depend on which rows are drawn
    alongside it or before it.  The table grows with about one eighth of
    its rows spare, like :func:`~repro.utils.growth.append_rows`.
    """

    def __init__(self, base_seed: int, num_cells: int) -> None:
        self.base_seed = base_seed
        self.table = np.empty((0, 2, num_cells))
        self.drawn = np.zeros(0, dtype=bool)

    def of_rows(self, rows: np.ndarray, vth_offsets) -> np.ndarray:
        """Offsets of ``rows``, shape ``(len(rows), 2, num_cells)``.

        ``vth_offsets(shape, generator)`` draws a missing row: the model's
        :meth:`~repro.devices.variation.GaussianVthVariationModel.vth_offsets`,
        DL's cells first, then DL-bar's.
        """
        needed = int(rows.max()) + 1 if rows.size else 0
        if needed > self.drawn.size:
            table = np.empty((needed + needed // 8,) + self.table.shape[1:])
            table[: self.drawn.size] = self.table
            drawn = np.zeros(table.shape[0], dtype=bool)
            drawn[: self.drawn.size] = self.drawn
            self.table, self.drawn = table, drawn
        for row in rows[~self.drawn[rows]].tolist():
            generator = np.random.default_rng([_REPROGRAM_KEY_SALT, self.base_seed, row])
            self.table[row] = vth_offsets(self.table.shape[1:], generator)
            self.drawn[row] = True
        return self.table[rows]


def program_cell_profiles(
    stored_states: np.ndarray,
    scheme: MCAMVoltageScheme,
    device: FeFETParameters,
    variation: Optional[VariationModel],
    ml_voltage_v: float = ML_PRECHARGE_V,
    rng: SeedLike = None,
) -> np.ndarray:
    """Conductance profiles of physically programmed cells (vectorized).

    Samples every cell's DL-side, then every cell's DL-bar-side threshold
    voltage from one stream, then evaluates :func:`profiles_from_vth` once.

    Parameters
    ----------
    stored_states:
        Integer array of any shape holding the state programmed into each
        cell.
    scheme, device, variation:
        Voltage scheme, FeFET parameters and (optional) variation model.
    ml_voltage_v:
        Drain bias during search.
    rng:
        Randomness source for the variation sampling; a nominal pass
        (``variation=None``) builds no generator.

    Returns
    -------
    numpy.ndarray
        Array of shape ``stored_states.shape + (num_states,)``:
        ``profiles[..., i]`` is the conductance of the corresponding cell
        when searched with input state ``i``.
    """
    states = np.asarray(stored_states, dtype=np.int64)
    vth_dl, vth_dlbar = _nominal_vth(states.reshape(-1), scheme)
    if variation is not None:
        generator = ensure_rng(rng)
        vth_dl = variation.sample_vth(vth_dl, generator)
        vth_dlbar = variation.sample_vth(vth_dlbar, generator)
    profiles = profiles_from_vth(vth_dl, vth_dlbar, scheme, device, ml_voltage_v)
    return profiles.reshape(states.shape + (scheme.num_states,))


def _nominal_vth(states: np.ndarray, scheme: MCAMVoltageScheme) -> Tuple[np.ndarray, np.ndarray]:
    """Target (DL-side, DL-bar-side) threshold voltages of stored ``states``.

    The DL-side FeFET sits at the upper bound of the stored range, the
    DL-bar-side one at the analog inverse of the lower bound (Fig. 3(b)).
    """
    n = scheme.num_states
    if states.size and (states.min() < 0 or states.max() >= n):
        raise CircuitError(f"stored states must lie in [0, {n - 1}]")
    grid = scheme.level_grid_v
    return grid[states + 1], 2.0 * scheme.center_v - grid[states]


def profiles_from_vth(
    vth_dl,
    vth_dlbar,
    scheme: MCAMVoltageScheme,
    device: FeFETParameters,
    ml_voltage_v: float = ML_PRECHARGE_V,
) -> np.ndarray:
    """Conductance profiles of cells whose FeFETs hold the given V_th pairs.

    The device physics of programming, separated from the V_th sampling so
    that a whole write evaluates it once: both threshold voltages are
    clipped to the plausible window (sampled tails saturate; nominal
    targets already lie inside it, since a FeFET refuses to hold anything
    else) and each cell's two channel conductances are summed under every
    search input.  Elementwise, so the result for a cell does not depend on
    how many cells are evaluated alongside it.

    Parameters
    ----------
    vth_dl, vth_dlbar:
        Arrays of equal, arbitrary shape with the DL-side and DL-bar-side
        threshold voltages of each cell.
    scheme, device:
        Voltage scheme and FeFET parameters.
    ml_voltage_v:
        Drain bias during search.

    Returns
    -------
    numpy.ndarray
        Array of shape ``vth_dl.shape + (num_states,)``: ``[..., i]`` is
        the cell's conductance when searched with input state ``i``.
    """
    vth_dl = np.asarray(clip_vth(vth_dl, device))
    vth_dlbar = np.asarray(clip_vth(vth_dlbar, device))
    inputs = scheme.input_voltages_v()
    inputs_bar = 2.0 * scheme.center_v - inputs
    overdrive_dl = inputs - vth_dl[..., np.newaxis]
    overdrive_dlbar = inputs_bar - vth_dlbar[..., np.newaxis]
    current = _drain_current_from_overdrive(
        overdrive_dl, ml_voltage_v, device
    ) + _drain_current_from_overdrive(overdrive_dlbar, ml_voltage_v, device)
    return np.asarray(current) / ml_voltage_v


@dataclass(frozen=True)
class ArraySearchResult:
    """Result of searching an MCAM array with one query.

    Attributes
    ----------
    winner:
        Row index of the nearest neighbor.
    label:
        Label of the winning row (``None`` when entries were unlabeled).
    row_conductances_s:
        Total ML conductance of every row (smaller = closer).
    sensing:
        Raw sensing result (ranking, scores).
    """

    winner: int
    label: Optional[int]
    row_conductances_s: np.ndarray
    sensing: SensingResult

    def top_k(self, k: int) -> np.ndarray:
        """Row indices of the ``k`` nearest entries."""
        return self.sensing.top_k(k)


class MCAMArray(FixedGeometryArray):
    """A multi-bit CAM array performing single-step in-memory NN search.

    Parameters
    ----------
    num_cells:
        Number of cells per word (one cell per feature; the paper uses 64 for
        the MANN experiments and the feature count for the UCI datasets).
    bits:
        Bit precision of every cell (2 or 3 in the paper).
    max_rows:
        Explicit physical row count of the array; ``None`` means unbounded
        (simulation only).  A real array has fixed geometry — stores larger
        than ``max_rows`` are split across several arrays by
        :class:`~repro.core.sharding.ShardedSearcher`.
    lut:
        Conductance look-up table shared by all cells (look-up-table mode).
        Defaults to the nominal table for ``bits``.
    variation:
        Optional variation model.  When provided the array runs in per-cell
        device mode and ``lut`` is ignored for programmed rows.
    device, scheme:
        FeFET parameters and voltage scheme used in per-cell device mode.
    sense_amplifier:
        Sensing model; defaults to :class:`IdealWinnerTakeAll`.
    """

    def __init__(
        self,
        num_cells: int,
        bits: int = 3,
        lut: Optional[ConductanceLUT] = None,
        variation: Optional[VariationModel] = None,
        device: Optional[FeFETParameters] = None,
        scheme: Optional[MCAMVoltageScheme] = None,
        sense_amplifier=None,
        ml_voltage_v: float = ML_PRECHARGE_V,
        max_rows: Optional[int] = None,
    ) -> None:
        self.num_cells = check_int_in_range(num_cells, "num_cells", minimum=1)
        self.bits = check_bits(bits)
        self.max_rows = (
            None if max_rows is None else check_int_in_range(max_rows, "max_rows", minimum=1)
        )
        self.scheme = scheme if scheme is not None else MCAMVoltageScheme(bits=self.bits)
        if self.scheme.bits != self.bits:
            raise ConfigurationError(
                f"scheme bit precision ({self.scheme.bits}) does not match bits ({self.bits})"
            )
        self.device = device if device is not None else FeFETParameters()
        self.variation = variation
        if lut is None:
            lut = build_nominal_lut(bits=self.bits, device=self.device, scheme=self.scheme)
        if lut.bits != self.bits:
            raise ConfigurationError(
                f"LUT bit precision ({lut.bits}) does not match array bits ({self.bits})"
            )
        self.lut = lut
        self.ml_voltage_v = ml_voltage_v
        self.matchline = MatchLineModel(num_cells=self.num_cells, precharge_v=ml_voltage_v)
        if sense_amplifier is None:
            sense_amplifier = IdealWinnerTakeAll()
        self.sense_amplifier = sense_amplifier

        self._stored_states = np.zeros((0, self.num_cells), dtype=np.int64)
        self._labels: List[Optional[int]] = []
        self._profiles: Optional[np.ndarray] = None  # per-cell device mode only
        # Programmed-array caches (_BY_CELL_TABLES): per-cell conductance
        # profiles in (num_cells, num_states, num_rows) layout, in float64
        # for the full-matrix kernels and in float32 for the screen's
        # estimates, each built lazily after a write and reused across
        # queries.
        self._by_cell_profiles: Optional[np.ndarray] = None
        self._by_cell_estimates: Optional[np.ndarray] = None
        # (cell * num_states) offsets into the flattened profile table used by
        # the fused gather kernel; geometry-fixed, built on first use.
        self._gather_offsets: Optional[np.ndarray] = None
        # Growth buffers of append(), keyed "states", "profiles" and the
        # by-cell tables' attribute names: each holds the matching array
        # above as its leading slice plus spare rows.  Never pickled.
        self._spare: Dict[str, np.ndarray] = {}
        # Row-keyed V_th offsets of the last base seed (device mode with a
        # state-independent variation model).  Never pickled; clear()
        # releases it.
        self._row_offsets: Optional[_RowKeyedOffsets] = None

    #: The by-cell search tables, ``(attribute, dtype)``: the full-matrix
    #: kernels read the float64 one, :meth:`screened_top_k` estimates from
    #: the float32 one.  Each is built on first use only, and every write
    #: path maintains each built table with the same code.
    _BY_CELL_TABLES = (("_by_cell_profiles", np.float64), ("_by_cell_estimates", np.float32))

    def __getstate__(self):
        """Pickle without the derived search caches.

        The by-cell tables and ``_gather_offsets`` are pure functions of
        the programmed state and dominate the pickle payload (a by-cell
        table is ``num_states`` times the stored-state matrix); dropping them
        makes shipping a programmed array across a process boundary — the
        worker-resident shard cache of :mod:`repro.runtime` — cost the stored
        states, not the query cache.  The receiver rebuilds them lazily and
        bitwise identically on first search.  Inside a
        :func:`preserve_search_caches` block every built by-cell table is
        kept when it is *expensive* to rebuild — look-up-table mode, where
        it takes a full gather over the stored states — so snapshots taken
        from a serving process restore warm instead of lean.  In per-cell
        device mode the tables are a relayout of the already-persisted
        programmed profiles; they are always dropped rather than doubling
        the payload to save a memcpy-speed transpose.

        The spare capacity of :meth:`append` is never pickled: the stored
        arrays are leading-slice views of their growth buffers and pickle
        only their own rows, and a grown search cache is laid out
        contiguously, exactly like a freshly built one.  Nor are the
        memoized row-keyed V_th offsets of :meth:`reprogram`: the receiver
        draws a row again, bitwise identically, when it first programs it.
        """
        state = self.__dict__.copy()
        del state["_spare"]
        del state["_row_offsets"]
        preserve = getattr(_PICKLE_SEARCH_CACHES, "active", False)
        for name, _ in self._BY_CELL_TABLES:
            if not preserve or self._profiles is not None:
                state[name] = None
            elif state[name] is not None:
                state[name] = np.ascontiguousarray(state[name])
        if not preserve:
            state["_gather_offsets"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_by_cell_estimates", None)  # older snapshots
        self._spare = {}
        self._row_offsets = None

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states each cell can store."""
        return self.scheme.num_states

    @property
    def num_rows(self) -> int:
        """Number of entries currently stored."""
        return int(self._stored_states.shape[0])

    @property
    def stored_states(self) -> np.ndarray:
        """Copy of the stored state matrix (rows x cells)."""
        return self._stored_states.copy()

    @property
    def labels(self) -> List[Optional[int]]:
        """Labels associated with the stored rows."""
        return list(self._labels)

    def clear(self) -> None:
        """Erase all stored entries."""
        self._stored_states = np.zeros((0, self.num_cells), dtype=np.int64)
        self._labels = []
        self._profiles = None
        self._drop_search_tables()
        self._row_offsets = None

    def _check_entries_and_labels(self, entries, labels: Optional[Sequence[int]]):
        """Shared entry/label validation of the write and reprogram paths."""
        entries = check_state_matrix(entries, self.num_states, name="entries")
        if entries.shape[1] != self.num_cells:
            raise CircuitError(
                f"entries have {entries.shape[1]} cells but the array has {self.num_cells}"
            )
        if labels is not None:
            labels = list(labels)
            if len(labels) != entries.shape[0]:
                raise CircuitError(f"got {len(labels)} labels for {entries.shape[0]} entries")
        else:
            labels = [None] * entries.shape[0]
        return entries, labels

    def write(
        self,
        entries,
        labels: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
    ) -> None:
        """Program quantized entries into the array.

        Parameters
        ----------
        entries:
            Integer matrix ``(num_entries, num_cells)`` of quantized states.
        labels:
            Optional per-entry class labels returned by searches.
        rng:
            Randomness for per-cell variation sampling (per-cell device mode).
        """
        entries, labels = self._check_entries_and_labels(entries, labels)
        new_total = self.num_rows + entries.shape[0]
        if self.max_rows is not None and new_total > self.max_rows:
            raise CapacityError(
                f"writing {entries.shape[0]} entries exceeds the array geometry "
                f"({self.max_rows} rows, {self.num_rows} already used)"
            )

        if self.variation is not None:
            new_profiles = program_cell_profiles(
                entries,
                scheme=self.scheme,
                device=self.device,
                variation=self.variation,
                ml_voltage_v=self.ml_voltage_v,
                rng=rng,
            )
            self._profiles = np.concatenate([self._device_profiles(), new_profiles], axis=0)

        self._stored_states = np.vstack([self._stored_states, entries])
        self._labels.extend(labels)
        self._drop_search_tables()

    def append(
        self,
        entries,
        labels: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
    ) -> None:
        """Program new rows after the stored ones, leaving every stored row untouched.

        Bitwise equal to ``reprogram(vstack([stored_states, entries]),
        stored labels + labels, rng)`` — where every stored row would diff
        as unchanged — without diffing the stored rows:

        * **look-up-table mode** extends every built by-cell search table
          with the new rows' profiles;
        * **per-cell device mode** draws each new row from its row-keyed
          stream ``(rng, row)``, exactly like
          :meth:`reprogram` (and extends the built search tables too); under
          a state-independent variation model, rows already drawn under
          the same integer seed — before a shrinking reprogram, say — reuse
          their memoized V_th offsets.

        The stored-state matrix, the device profiles and the search tables
        grow into spare capacity of about one eighth of the rows, so a run
        of small appends costs O(appended rows) each.  :meth:`write`,
        :meth:`reprogram` and :meth:`clear` release that capacity, and it is
        never pickled.
        """
        entries, labels = self._check_entries_and_labels(entries, labels)
        total = self.num_rows + entries.shape[0]
        if self.max_rows is not None and total > self.max_rows:
            raise CapacityError(
                f"appending {entries.shape[0]} entries exceeds the array geometry "
                f"({self.max_rows} rows, {self.num_rows} already used)"
            )
        spare = self._spare
        fresh: Optional[np.ndarray] = None
        if self.variation is not None:
            rows = np.arange(self.num_rows, total)
            fresh = self._row_keyed_profiles(entries, rows, _reprogram_base_seed(rng))
            self._profiles, spare["profiles"] = append_rows(
                self._device_profiles(), spare.get("profiles"), fresh
            )
        for name, dtype in self._BY_CELL_TABLES:
            table = getattr(self, name)
            if table is None:
                continue
            if fresh is None:
                fresh = self.lut.row_profiles(entries)
            grown, spare[name] = append_rows(
                table, spare.get(name), np.moveaxis(fresh, 0, -1).astype(dtype), axis=-1
            )
            setattr(self, name, grown)
        self._stored_states, spare["states"] = append_rows(
            self._stored_states, spare.get("states"), entries
        )
        self._labels.extend(labels)

    def reprogram(
        self,
        entries,
        labels: Optional[Sequence[int]] = None,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Replace the array contents, re-programming only the changed rows.

        A physical refit (the episodic workload, a streaming update, a sweep
        re-running on a mutated store) rewrites an array that is already
        programmed.  Erasing and re-writing every row — what
        :meth:`clear` + :meth:`write` models — re-programs cells whose stored
        state did not change.  ``reprogram`` diffs ``entries`` against the
        currently stored states and touches only the rows that differ:

        * **look-up-table mode**: unchanged rows keep their slice of every
          built search table, so a refit that changes ``m`` of ``n`` rows
          costs ``O(m)`` profile work instead of ``O(n)``;
        * **per-cell device mode**: unchanged rows keep their physically
          programmed conductance profiles, and only changed rows sample fresh
          device variation.

        Device-mode sampling is **row-keyed**: the variation draw for row
        ``r`` depends only on ``(rng, r)`` and the row's new
        states — not on how many rows are re-programmed alongside it.  With a
        fixed integer ``rng`` seed a delta reprogram is therefore bitwise
        identical to a full reprogram of the same contents, which is what
        makes incremental refits safe to use in reproducible sweeps.  Under
        a state-independent variation model (one with ``vth_offsets``, such
        as :class:`~repro.devices.variation.GaussianVthVariationModel`) a
        row's V_th offsets are drawn once per base seed and memoized, so a
        refit under a fixed seed constructs no generator for rows it has
        programmed before and pays only one vectorized add and one
        :func:`profiles_from_vth` pass; a different base seed replaces the
        memo, :meth:`clear` releases it and pickles never carry it.

        Parameters
        ----------
        entries:
            Integer matrix ``(num_entries, num_cells)`` of quantized states;
            replaces the stored contents wholesale (the row count may grow or
            shrink).
        labels:
            Optional per-entry labels (replaced wholesale as well).
        rng:
            Base seed for the row-keyed device-variation sampling.  Pass an
            integer for reproducible row-keyed programming; a Generator or
            ``None`` concretizes to a fresh base seed (still row-keyed, not
            reproducible across calls).  Ignored in look-up-table mode.

        Returns
        -------
        numpy.ndarray
            Indices of the rows whose stored states changed (including rows
            that did not previously exist).
        """
        entries, labels = self._check_entries_and_labels(entries, labels)
        if self.max_rows is not None and entries.shape[0] > self.max_rows:
            raise CapacityError(
                f"reprogramming {entries.shape[0]} entries exceeds the array geometry "
                f"({self.max_rows} rows)"
            )

        old = self._stored_states
        new_rows = entries.shape[0]
        common = min(old.shape[0], new_rows)
        unchanged = np.zeros(new_rows, dtype=bool)
        if common:
            unchanged[:common] = np.all(old[:common] == entries[:common], axis=1)
        changed = np.flatnonzero(~unchanged)

        if self.variation is not None:
            self._reprogram_device_profiles(entries, unchanged, changed, rng)
            self._drop_search_tables()
        else:
            self._update_search_tables(entries, unchanged, changed)
            self._spare = {}
        self._stored_states = entries.copy()
        self._labels = labels
        return changed

    def _drop_search_tables(self) -> None:
        """Forget every by-cell search table and all spare capacity."""
        for name, _ in self._BY_CELL_TABLES:
            setattr(self, name, None)
        self._spare = {}

    def _device_profiles(self) -> np.ndarray:
        """The programmed device profiles (per-cell device mode).

        Rows written before the variation model was attached carry nominal
        profiles.
        """
        if self._profiles is None:
            self._profiles = program_cell_profiles(
                self._stored_states,
                scheme=self.scheme,
                device=self.device,
                variation=None,
                ml_voltage_v=self.ml_voltage_v,
            )
        return self._profiles

    def _row_keyed_profiles(
        self, entries: np.ndarray, rows: np.ndarray, base_seed: int
    ) -> np.ndarray:
        """Device profiles of ``entries`` programmed into ``rows``.

        Each row draws its DL then DL-bar threshold voltages from its own
        ``(salt, base seed, row)`` stream — the row-keyed contract — and the
        device physics then runs once over all of them.  A model with
        ``vth_offsets`` draws no state-dependent term, so each row's offsets
        are drawn once per base seed (:class:`_RowKeyedOffsets`) and added
        to the nominal voltages in one pass; any other model is sampled row
        by row.
        """
        vth_dl, vth_dlbar = _nominal_vth(entries, self.scheme)
        vth_offsets = getattr(self.variation, "vth_offsets", None)
        if vth_offsets is None:
            for i, row in enumerate(rows.tolist()):
                generator = np.random.default_rng([_REPROGRAM_KEY_SALT, base_seed, row])
                vth_dl[i] = self.variation.sample_vth(vth_dl[i], generator)
                vth_dlbar[i] = self.variation.sample_vth(vth_dlbar[i], generator)
        else:
            if self._row_offsets is None or self._row_offsets.base_seed != base_seed:
                self._row_offsets = _RowKeyedOffsets(base_seed, self.num_cells)
            offsets = self._row_offsets.of_rows(rows, vth_offsets)
            vth_dl += offsets[:, 0]
            vth_dlbar += offsets[:, 1]
        return profiles_from_vth(vth_dl, vth_dlbar, self.scheme, self.device, self.ml_voltage_v)

    def _reprogram_device_profiles(
        self,
        entries: np.ndarray,
        unchanged: np.ndarray,
        changed: np.ndarray,
        rng: SeedLike,
    ) -> None:
        """Row-keyed device-mode profile update for :meth:`reprogram`.

        Unchanged rows keep their programmed profiles; each changed row is
        drawn by :meth:`_row_keyed_profiles`.
        """
        old = self._device_profiles()
        base_seed = _reprogram_base_seed(rng)
        new_profiles = np.empty((entries.shape[0], self.num_cells, self.num_states))
        keep = np.flatnonzero(unchanged)
        if keep.size:
            new_profiles[keep] = old[keep]
        if changed.size:
            new_profiles[changed] = self._row_keyed_profiles(entries[changed], changed, base_seed)
        self._profiles = new_profiles

    def _update_search_tables(
        self, entries: np.ndarray, unchanged: np.ndarray, changed: np.ndarray
    ) -> None:
        """Delta-update every built by-cell search table (LUT mode)."""
        new_rows = entries.shape[0]
        keep = np.flatnonzero(unchanged)
        fresh: Optional[np.ndarray] = None
        for name, _ in self._BY_CELL_TABLES:
            table = getattr(self, name)
            if table is None:
                continue
            if new_rows != table.shape[-1] or not table.flags.c_contiguous:
                # A resized table, or one grown by append() into its spare
                # capacity, is rebuilt compact from the rows it keeps.
                resized = np.empty(table.shape[:-1] + (new_rows,), dtype=table.dtype)
                resized[..., keep] = table[..., keep]
                table = resized
                setattr(self, name, table)
            if changed.size:
                if fresh is None:
                    fresh = np.moveaxis(self.lut.row_profiles(entries[changed]), 0, -1)
                table[..., changed] = fresh

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def row_profiles(self) -> np.ndarray:
        """Per-cell conductance profiles of the programmed rows.

        Shape ``(num_rows, num_cells, num_states)``; ``[r, c, i]`` is the
        conductance of row ``r``'s cell ``c`` under input state ``i``.  In
        per-cell device mode these are the physically programmed profiles; in
        look-up-table mode they are derived from the cached search profiles.
        Returns a copy, like :attr:`stored_states`.
        """
        if self.num_rows == 0:
            raise CircuitError("cannot search an empty array")
        if self._profiles is not None:
            return self._profiles.copy()
        return np.moveaxis(self._profiles_by_cell(), -1, 0).copy()

    def _profiles_by_cell(self) -> np.ndarray:
        """Programmed profiles as ``(num_cells, num_states, num_rows)``, float64.

        This layout makes a batched search one fused gather over the cached
        table (small workloads) or ``num_cells`` cheap
        ``(num_queries, num_rows)`` gathers (large ones).  Built once per
        programming and reused across every subsequent query.
        """
        return self._by_cell_table("_by_cell_profiles")

    def _by_cell_table(self, name: str) -> np.ndarray:
        """The by-cell search table ``name`` of :attr:`_BY_CELL_TABLES`, built on first use.

        Device mode converts the physical profiles; look-up-table mode
        gathers the LUT, cast to the table's dtype, by the stored states.
        Either way every value is the float64 profile rounded once to the
        dtype, which is what the write paths store too.
        """
        table = getattr(self, name)
        if table is None:
            dtype = dict(self._BY_CELL_TABLES)[name]
            if self._profiles is not None:
                source = np.moveaxis(self._profiles, 0, -1)
            else:
                lut = self.lut.table_s.astype(dtype)
                source = lut[:, self._stored_states.T].transpose(1, 0, 2)
            table = np.ascontiguousarray(source, dtype=dtype)
            setattr(self, name, table)
        return table

    def row_conductances(self, query) -> np.ndarray:
        """Total ML conductance of every stored row for ``query``."""
        if self.num_rows == 0:
            raise CircuitError("cannot search an empty array")
        query = np.asarray(query)
        if query.ndim != 1 or query.shape[0] != self.num_cells:
            raise CircuitError(
                f"query must be a vector of length {self.num_cells}, got shape {query.shape}"
            )
        return self.row_conductances_batch(query.reshape(1, -1))[0]

    #: Largest ``queries * rows * cells`` gather the fused kernel takes.
    #: Measured with 64 cells on a 2-core Xeon: up to this size the fused
    #: gather led the per-cell loop on every shape but one near-tie
    #: (4096 rows x 1 query); from ``2**19`` elements up the loop led.
    _FUSED_MAX_ELEMENTS = 1 << 18

    def row_conductances_batch(self, queries) -> np.ndarray:
        """ML conductance matrix ``(num_queries, num_rows)`` for a query batch.

        Cell conductances are accumulated in a fixed cell order over the
        cached programmed profiles by one of two kernels, picked by one
        static size rule: the fused LUT gather while its
        ``(cells, queries, rows)`` stack holds at most
        :attr:`_FUSED_MAX_ELEMENTS` elements, the streaming per-cell
        accumulation above that.  Both kernels reduce in the same
        sequential cell order, so the result is independent of the kernel
        choice and of the batch size: batched results are bitwise identical
        to single-query :meth:`row_conductances` calls, and sharded
        (row-sliced) evaluations are bitwise identical to unsharded ones.

        The rule's third band serves ideal-sensing top-``k`` only, which
        needs the smallest sums rather than this matrix: inside
        :meth:`in_screen_band`, :meth:`screened_top_k` ranks through float32
        estimates and re-sums only the surviving rows, in this same order.
        """
        queries = self._check_query_batch(queries)
        by_cell = self._profiles_by_cell()
        if queries.shape[0] * self.num_rows * self.num_cells <= self._FUSED_MAX_ELEMENTS:
            return self._fused_conductances(by_cell, queries)
        return self._dense_conductances(by_cell, queries)

    def _ensure_gather_offsets(self) -> np.ndarray:
        """``(cell * num_states)`` row offsets into the flattened LUT table."""
        if self._gather_offsets is None:
            self._gather_offsets = (
                np.arange(self.num_cells, dtype=np.int64) * self.num_states
            )[:, np.newaxis]
        return self._gather_offsets

    def _fused_conductances(self, by_cell: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """One fused LUT gather + ordered sum for a (small) query batch.

        ``by_cell`` flattens to a ``(num_cells * num_states, num_rows)``
        table; row ``cell * num_states + state`` holds the conductances the
        ``cell``-th cell contributes to every stored row under input
        ``state``.  A single ``take`` gathers the
        ``(num_cells, num_queries, num_rows)`` contribution stack and
        :func:`~repro.circuits.conductance_lut.sum_cells_in_order`
        accumulates it over the leading axis — the exact floating-point
        reduction the per-cell loop performs, for every shape.
        """
        flat = by_cell.reshape(self.num_cells * self.num_states, self.num_rows)
        gathered = np.take(flat, queries.T + self._ensure_gather_offsets(), axis=0)
        return sum_cells_in_order(gathered)

    def _dense_conductances(self, by_cell: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Streaming per-cell accumulation (batches past the fused bound).

        Never materializes more than one ``(num_queries, num_rows)``
        temporary, which is what wins once the fused gather's stack would
        exceed :attr:`_FUSED_MAX_ELEMENTS` and the workload is memory-bound.
        """
        conductances = np.zeros((queries.shape[0], self.num_rows))
        for cell in range(self.num_cells):
            conductances += by_cell[cell][queries[:, cell]]
        return conductances

    #: Screened top-k band, ideal sensing only (see :meth:`in_screen_band`).
    #: Measured with 64 cells, 3 bits, on a 2-core Xeon with one BLAS thread.
    _SCREEN_MIN_ROWS = 1024
    _SCREEN_ROWS_PER_K = 64
    #: Batch size from which the screen's estimates take one float32 BLAS
    #: product instead of a summed gather.  Against 1024, 4096 and 16384
    #: rows the gather led below 8 queries; from 8 up the product led at
    #: 4096 and 16384 rows, and at 1024 rows from 12 up, the gather's lead
    #: at 8 and 10 being under 0.05 ms (README, kernel section).
    _SCREEN_PRODUCT_MIN_QUERIES = 8

    def in_screen_band(self, k: int) -> bool:
        """Whether an ideal-sensing top-``k`` against this array takes the screen.

        The third band of the static kernel rule: :meth:`screened_top_k`
        against at least :attr:`_SCREEN_MIN_ROWS` rows with ``k`` at most
        one :attr:`_SCREEN_ROWS_PER_K`-th of the rows, for any batch size.
        A larger ``k`` lets too many rows survive the screen, and the row
        floor keeps small stores (the Fig. 7 episodes among them) on the
        full-matrix kernels.  The README's kernel section holds the
        measurements.
        """
        return (
            self.num_rows >= self._SCREEN_MIN_ROWS
            and k * self._SCREEN_ROWS_PER_K <= self.num_rows
        )

    def screened_top_k(self, queries, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` rows by conductance, screened by float32 estimates.

        Every row's conductance is estimated in float32 from the float32
        by-cell table: a summed gather for fewer than
        :attr:`_SCREEN_PRODUCT_MIN_QUERIES` queries, one
        ``onehot(queries) @ table`` BLAS product from there up.  Rounding
        ``num_cells`` non-negative terms to float32 and summing them in any
        order stays within ``gamma_cells`` (unit roundoff ``eps32 / 2``) of
        the exact sum, relatively; underflow, or a BLAS that flushes
        subnormals to zero, adds at most ``(2 * num_cells - 1) * tiny32``,
        absolutely.  So every row among the ``k`` smallest cell-order sums
        has an estimate of at most ``(E_k + mu) * (1 + 4 * num_cells *
        eps32) + mu``, with ``mu = 2 * num_cells * tiny32`` and ``E_k`` the
        query's ``k``-th smallest estimate; the bound is computed in
        float64.  Only the rows under it are re-summed in float64, in cell
        order, and ranked by ``(conductance, row)``, so the result is
        bitwise the first ``k`` columns of a stable argsort of
        :meth:`row_conductances_batch`, ties and near-ties included.

        Returns
        -------
        (indices, scores):
            ``(num_queries, k)`` arrays, closest row first.
        """
        queries = self._check_query_batch(queries)
        k = check_int_in_range(k, "k", minimum=1, maximum=self.num_rows)
        cells = self.num_cells
        table = self._by_cell_table("_by_cell_estimates")
        table = table.reshape(cells * self.num_states, self.num_rows)
        lines = queries + self._ensure_gather_offsets().T
        if queries.shape[0] < self._SCREEN_PRODUCT_MIN_QUERIES:
            estimates = np.add.reduce(np.take(table, lines, axis=0), axis=1)
        else:
            onehot = np.zeros((queries.shape[0], table.shape[0]), dtype=np.float32)
            np.put_along_axis(onehot, lines, 1.0, axis=1)
            estimates = onehot @ table
        single = np.finfo(np.float32)
        mu = 2 * cells * float(single.tiny)
        kth = np.partition(estimates, k - 1, axis=1)[:, k - 1].astype(np.float64)
        bound = (kth + mu) * (1.0 + 4 * cells * float(single.eps)) + mu
        hits = np.flatnonzero(estimates <= bound[:, np.newaxis])
        hit_q, hit_r = np.divmod(hits, self.num_rows)
        exact = sum_cells_in_order(self._cell_conductances(queries[hit_q], hit_r))
        # Hits come by query, then row, and lexsort is stable, so equal
        # conductances stay in row order.
        order = np.lexsort((exact, hit_q))
        counts = np.bincount(hit_q, minlength=queries.shape[0])
        first = np.cumsum(counts) - counts
        top = order[first[:, np.newaxis] + np.arange(k)]
        return hit_r[top], exact[top]

    def _cell_conductances(self, queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``(num_cells, n)`` contributions of stored ``rows[j]`` to ``queries[j]``.

        Read from what the search cache is built from — the device profiles,
        or the LUT and the stored states — so every value is bitwise the
        cached one, and only ``n`` rows are touched.
        """
        inputs = queries.T
        if self._profiles is not None:
            cells = np.arange(self.num_cells)[:, np.newaxis]
            return self._profiles[rows, cells, inputs]
        table = self.lut.table_s.reshape(-1)
        return table[inputs * self.num_states + self._stored_states[rows].T]

    def search(self, query, rng: SeedLike = None) -> ArraySearchResult:
        """Single-step in-memory nearest-neighbor search for one query."""
        conductances = self.row_conductances(query)
        sensing = self.sense_amplifier.sense(conductances, rng=rng)
        label = self._labels[sensing.winner]
        return ArraySearchResult(
            winner=sensing.winner,
            label=label,
            row_conductances_s=conductances,
            sensing=sensing,
        )

    def search_batch(self, queries, rng: SeedLike = None) -> List[ArraySearchResult]:
        """Search the array with every row of ``queries``.

        The conductance matrix is evaluated in one vectorized pass; sensing
        consumes the RNG in query order, matching a loop of :meth:`search`
        calls.
        """
        conductances = self.row_conductances_batch(queries)
        sensing = sense_all(self.sense_amplifier, conductances, rng=rng)
        return [
            ArraySearchResult(
                winner=int(sensing.winners[i]),
                label=self._labels[int(sensing.winners[i])],
                row_conductances_s=conductances[i],
                sensing=sensing[i],
            )
            for i in range(len(sensing))
        ]

    def _check_query_batch(self, queries) -> np.ndarray:
        queries = np.asarray(queries)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.ndim != 2 or queries.shape[1] != self.num_cells:
            raise CircuitError(
                f"queries must have shape (n, {self.num_cells}), got {queries.shape}"
            )
        if self.num_rows == 0:
            raise CircuitError("cannot search an empty array")
        if queries.shape[0] == 0:
            return queries.astype(np.int64)
        return check_state_matrix(queries, self.num_states, name="queries")

    def nearest(self, query, rng: SeedLike = None) -> int:
        """Row index of the nearest neighbor of ``query``."""
        return self.search(query, rng=rng).winner

    def predict(self, queries, rng: SeedLike = None) -> np.ndarray:
        """Labels of the nearest neighbor for every query row.

        The batch rides one vectorized conductance evaluation and one
        vectorized winner selection plus a single label take — nothing loops
        per query, and no per-query result objects are built.

        Raises
        ------
        CircuitError
            If any stored entry was written without a label.
        """
        conductances = self.row_conductances_batch(queries)
        if type(self.sense_amplifier) is IdealWinnerTakeAll:
            # First-occurrence argmin matches the stable ranking's winner.
            winners = np.argmin(conductances, axis=1)
        else:
            winners = sense_all(self.sense_amplifier, conductances, rng=rng).winners
        return _labels_of_winners(self._labels, winners, "stored entries")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MCAMArray(bits={self.bits}, cells={self.num_cells}, rows={self.num_rows}, "
            f"mode={'device' if self._profiles is not None else 'lut'})"
        )
