"""CAM circuit models: MCAM/TCAM/ACAM cells and arrays, sensing, AND array.

The circuit layer translates the FeFET device models into the structures the
paper evaluates:

* :mod:`~repro.circuits.mcam_cell` — the two-FeFET multi-bit cell and its
  voltage scheme (Fig. 3),
* :mod:`~repro.circuits.conductance_lut` — the 2-D conductance look-up table
  ``F(I, S) = G`` used by the application studies (Sec. IV-A),
* :mod:`~repro.circuits.mcam_array` — rows of cells sharing match lines,
  performing single-step in-memory NN search; the batched conductance sum
  runs the fused LUT gather for small batches and the per-cell
  accumulation for large ones, chosen by one static size rule, and large
  ideal-sensing top-k batches rank through an exact BLAS screen (all three
  are bitwise identical),
* :mod:`~repro.circuits.matchline` / :mod:`~repro.circuits.sense_amplifier`
  — the RC discharge model of Fig. 4(c) and the winner-take-all sensing,
* :mod:`~repro.circuits.tcam` — the TCAM Hamming-distance baseline,
* :mod:`~repro.circuits.tiles` — the row bounds of fixed-geometry arrays
  and the row partitions that split a store across several of them,
* :mod:`~repro.circuits.acam` — the analog-CAM concept of Fig. 1(a),
* :mod:`~repro.circuits.and_array` — the GLOBALFOUNDRIES AND-array 2-bit
  demonstration of Sec. IV-D.
"""

from .acam import ACAMArray, AnalogRange, mcam_input_levels, mcam_ranges
from .and_array import (
    ANDArrayExperiment,
    ANDArrayMeasurementConfig,
    DL_SWEEP_HIGH_V,
    DL_SWEEP_LOW_V,
    MEASUREMENT_ML_BIAS_V,
)
from .conductance_lut import (
    ConductanceLUT,
    build_lut_population,
    build_nominal_lut,
    build_varied_lut,
)
from .matchline import DEFAULT_CAPACITANCE_PER_CELL_F, MatchLineModel
from .mcam_array import ArraySearchResult, MCAMArray, program_cell_profiles
from .mcam_cell import (
    INVERSION_CENTER_V,
    ML_PRECHARGE_V,
    MCAMCell,
    MCAMVoltageScheme,
    analog_inverse,
)
from .sense_amplifier import (
    BatchSensingResult,
    IdealWinnerTakeAll,
    SensingResult,
    TimeDomainSenseAmplifier,
    sense_all,
    sensing_error_rate,
)
from .tcam import DONT_CARE, TCAMArray, TCAMSearchResult
from .tiles import FixedGeometryArray, partition_rows, split_rows_evenly

__all__ = [
    "ACAMArray",
    "AnalogRange",
    "mcam_input_levels",
    "mcam_ranges",
    "ANDArrayExperiment",
    "ANDArrayMeasurementConfig",
    "DL_SWEEP_HIGH_V",
    "DL_SWEEP_LOW_V",
    "MEASUREMENT_ML_BIAS_V",
    "ConductanceLUT",
    "build_lut_population",
    "build_nominal_lut",
    "build_varied_lut",
    "DEFAULT_CAPACITANCE_PER_CELL_F",
    "MatchLineModel",
    "ArraySearchResult",
    "MCAMArray",
    "program_cell_profiles",
    "INVERSION_CENTER_V",
    "ML_PRECHARGE_V",
    "MCAMCell",
    "MCAMVoltageScheme",
    "analog_inverse",
    "BatchSensingResult",
    "IdealWinnerTakeAll",
    "SensingResult",
    "TimeDomainSenseAmplifier",
    "sense_all",
    "sensing_error_rate",
    "DONT_CARE",
    "TCAMArray",
    "TCAMSearchResult",
    "FixedGeometryArray",
    "partition_rows",
    "split_rows_evenly",
]
