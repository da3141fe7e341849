"""Multi-bit CAM (MCAM) cell model.

The MCAM cell (Fig. 3(a) of the paper) is the two-FeFET CAM cell of Ni et
al. / Yin et al. reused in a multi-bit fashion: the two FeFETs are connected
between the match line (ML) and ground, one gated by the data line (DL) and
the other by its analog inverse (DL-bar).  The stored state is encoded by
programming the DL-side FeFET to the *upper* boundary of the stored voltage
range and the DL-bar-side FeFET to the analog inverse of the *lower*
boundary.  A search input applied to DL (and its inverse to DL-bar) leaves
both FeFETs below threshold when the input falls inside the stored range
(match: the cell barely conducts) and drives exactly one FeFET above
threshold otherwise, with a gate overdrive proportional to how far the input
is from the stored range — this is the origin of the paper's distance
function ``F(I, S) = G``.

The voltage scheme follows Fig. 3(b): for a 3-bit cell, nine 120 mV-spaced
threshold levels from 360 mV to 1320 mV bound the eight states, and the
eight search-input voltages sit at the centers of the states
(420 mV ... 1260 mV).  For other precisions the same 960 mV window is divided
into ``2^bits`` equal states.  The analog-inversion *center* is the middle of
the window (840 mV), so the set of input voltages is closed under inversion
and no on-the-fly analog inverter is needed (Sec. III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..exceptions import CircuitError, ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_bits, check_int_in_range, check_positive
from ..devices.fefet import FeFET, FeFETParameters, clip_vth
from ..devices.variation import VariationModel

#: Lower edge of the threshold-voltage window used by the level grid (V).
WINDOW_LOW_V = 0.36

#: Upper edge of the threshold-voltage window used by the level grid (V).
WINDOW_HIGH_V = 1.32

#: Analog-inversion center: the midpoint of the window (Fig. 3(b)).
INVERSION_CENTER_V = 0.5 * (WINDOW_LOW_V + WINDOW_HIGH_V)

#: Match-line pre-charge voltage used for search operations (Sec. III-B).
ML_PRECHARGE_V = 0.8


def analog_inverse(voltage_v, center_v: float = INVERSION_CENTER_V):
    """Analog inverse of ``voltage_v`` with respect to ``center_v``.

    The inverse has the same distance from the center as the original value
    but on the opposite side (Sec. II-C / Fig. 3(b)).
    """
    return 2.0 * center_v - np.asarray(voltage_v, dtype=np.float64) if np.ndim(
        voltage_v
    ) else 2.0 * center_v - float(voltage_v)


@dataclass(frozen=True)
class MCAMVoltageScheme:
    """Voltage levels defining the states and inputs of a ``bits``-bit cell.

    Attributes
    ----------
    bits:
        Number of bits stored per cell (2 and 3 in the paper).
    window_low_v / window_high_v:
        Extremes of the threshold-voltage level grid.
    """

    bits: int = 3
    window_low_v: float = WINDOW_LOW_V
    window_high_v: float = WINDOW_HIGH_V

    def __post_init__(self) -> None:
        check_bits(self.bits)
        if self.window_high_v <= self.window_low_v:
            raise ConfigurationError(
                f"window_high_v ({self.window_high_v}) must exceed "
                f"window_low_v ({self.window_low_v})"
            )

    @property
    def num_states(self) -> int:
        """Number of distinct states (``2^bits``)."""
        return 2**self.bits

    @property
    def state_width_v(self) -> float:
        """Width of each stored state range in volts."""
        return (self.window_high_v - self.window_low_v) / self.num_states

    @property
    def center_v(self) -> float:
        """Analog-inversion center."""
        return 0.5 * (self.window_low_v + self.window_high_v)

    @property
    def level_grid_v(self) -> np.ndarray:
        """The ``2^bits + 1`` threshold-voltage levels bounding the states.

        Built once per scheme value and returned read-only.
        """
        return _scheme_voltages(self)[0]

    def state_bounds_v(self, state: int) -> Tuple[float, float]:
        """Lower/upper threshold-voltage bounds of ``state`` (zero-based)."""
        state = self._check_state(state)
        grid = self.level_grid_v
        return float(grid[state]), float(grid[state + 1])

    def input_voltage_v(self, state: int) -> float:
        """Search-input (DL) voltage corresponding to ``state``."""
        low, high = self.state_bounds_v(state)
        return 0.5 * (low + high)

    def input_voltages_v(self) -> np.ndarray:
        """All ``2^bits`` search-input voltages, ordered by state index.

        Built once per scheme value and returned read-only.
        """
        return _scheme_voltages(self)[1]

    def stored_vth_pair_v(self, state: int) -> Tuple[float, float]:
        """Threshold voltages of the (DL-side, DLbar-side) FeFETs for ``state``.

        The DL-side FeFET is programmed to the upper bound of the stored
        range; the DL-bar-side FeFET is programmed to the analog inverse of
        the lower bound (so it turns on only when the input falls *below*
        the stored range).
        """
        low, high = self.state_bounds_v(state)
        return high, float(analog_inverse(low, self.center_v))

    def dl_voltages_v(self, input_state: int) -> Tuple[float, float]:
        """(DL, DL-bar) voltages applied when searching for ``input_state``."""
        dl = self.input_voltage_v(input_state)
        return dl, float(analog_inverse(dl, self.center_v))

    def _check_state(self, state: int) -> int:
        return check_int_in_range(state, "state", minimum=0, maximum=self.num_states - 1)


@lru_cache(maxsize=64)
def _scheme_voltages(scheme: MCAMVoltageScheme) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(level grid, input voltages)`` of a (frozen, hashable) scheme.

    Every device-mode write evaluates both, so they are computed once per
    scheme value instead of once per call.  Each input voltage is the
    midpoint of its state's bounds: the same two IEEE operations
    :meth:`MCAMVoltageScheme.input_voltage_v` performs on Python floats.
    """
    grid = np.linspace(scheme.window_low_v, scheme.window_high_v, scheme.num_states + 1)
    inputs = 0.5 * (grid[:-1] + grid[1:])
    grid.flags.writeable = False
    inputs.flags.writeable = False
    return grid, inputs


class MCAMCell:
    """One two-FeFET multi-bit CAM cell.

    Parameters
    ----------
    scheme:
        Voltage scheme (bit precision and level grid).
    device:
        FeFET parameters shared by both transistors of the cell.
    variation:
        Optional device-to-device variation model; when given, programming a
        state samples perturbed threshold voltages for both FeFETs.
    ml_voltage_v:
        Drain bias seen by the cell during search (ML pre-charge).
    """

    def __init__(
        self,
        scheme: Optional[MCAMVoltageScheme] = None,
        device: Optional[FeFETParameters] = None,
        variation: Optional[VariationModel] = None,
        ml_voltage_v: float = ML_PRECHARGE_V,
    ) -> None:
        self.scheme = scheme if scheme is not None else MCAMVoltageScheme()
        self.device = device if device is not None else FeFETParameters()
        self.variation = variation
        self.ml_voltage_v = check_positive(ml_voltage_v, "ml_voltage_v")
        self._dl_fet = FeFET(self.device, vth_v=self.device.vth_high_v)
        self._dlbar_fet = FeFET(self.device, vth_v=self.device.vth_high_v)
        self._stored_state: Optional[int] = None

    @property
    def bits(self) -> int:
        """Bit precision of the cell."""
        return self.scheme.bits

    @property
    def num_states(self) -> int:
        """Number of storable states."""
        return self.scheme.num_states

    @property
    def stored_state(self) -> Optional[int]:
        """Currently programmed state, or ``None`` if never programmed."""
        return self._stored_state

    @property
    def stored_vth_pair_v(self) -> Tuple[float, float]:
        """Actual (DL-side, DLbar-side) threshold voltages after programming."""
        return self._dl_fet.vth_v, self._dlbar_fet.vth_v

    def program(self, state: int, rng: SeedLike = None) -> None:
        """Program the cell to store ``state`` (zero-based).

        With a variation model attached, the achieved threshold voltages are
        sampled around their nominal targets, modelling the single-pulse
        (no-verify) programming used in the paper.
        """
        state = self.scheme._check_state(state)
        vth_dl, vth_dlbar = self.scheme.stored_vth_pair_v(state)
        if self.variation is not None:
            generator = ensure_rng(rng)
            vth_dl = clip_vth(self.variation.sample_vth(vth_dl, generator), self.device)
            vth_dlbar = clip_vth(self.variation.sample_vth(vth_dlbar, generator), self.device)
        self._dl_fet.vth_v = vth_dl
        self._dlbar_fet.vth_v = vth_dlbar
        self._stored_state = state

    def conductance(self, input_state: int) -> float:
        """Cell conductance (siemens) when searched with ``input_state``.

        This is the paper's distance function ``F(I, S) = G`` evaluated at
        circuit level: the sum of the two FeFET channel conductances under
        the DL / DL-bar drive for ``input_state``.
        """
        if self._stored_state is None:
            raise CircuitError("cell must be programmed before it can be searched")
        input_state = check_int_in_range(
            input_state, "input_state", minimum=0, maximum=self.num_states - 1
        )
        dl_v, dlbar_v = self.scheme.dl_voltages_v(input_state)
        g_dl = self._dl_fet.conductance(dl_v, vds_v=self.ml_voltage_v)
        g_dlbar = self._dlbar_fet.conductance(dlbar_v, vds_v=self.ml_voltage_v)
        return float(g_dl + g_dlbar)

    def conductance_profile(self) -> np.ndarray:
        """Conductance for every possible input state (ordered by state)."""
        return np.array([self.conductance(i) for i in range(self.num_states)])

    def matches(self, input_state: int, threshold_s: Optional[float] = None) -> bool:
        """Exact-match decision: does the input fall in the stored range?

        ``threshold_s`` defaults to the geometric mean of the match and the
        distance-1 mismatch conductances of a nominal cell, which cleanly
        separates the two cases.
        """
        conductance = self.conductance(input_state)
        if threshold_s is None:
            threshold_s = self._default_match_threshold()
        return conductance < threshold_s

    def _default_match_threshold(self) -> float:
        nominal = MCAMCell(self.scheme, self.device, variation=None, ml_voltage_v=self.ml_voltage_v)
        nominal.program(0)
        match_g = nominal.conductance(0)
        mismatch_g = nominal.conductance(1)
        return float(np.sqrt(match_g * mismatch_g))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "unprogrammed" if self._stored_state is None else f"S{self._stored_state + 1}"
        return f"MCAMCell(bits={self.bits}, stored={state})"
