"""Feature quantization for MCAM storage and search.

To perform NN search with the FeFET MCAM, "the real-valued features of the
query and memory entries are quantized to the same bit precision as the
MCAM" (Sec. IV-A).  Quantized feature values map one-to-one to MCAM cell
states (for memory entries) and input states (for queries).

The quantizer here is a uniform mid-rise quantizer over a calibration range:
:meth:`UniformQuantizer.fit` learns per-feature (or global) ranges from the
data that will be stored, and :meth:`UniformQuantizer.quantize` maps values
into ``{0, ..., 2^bits - 1}``, clipping out-of-range queries to the nearest
state — exactly what applying an out-of-range voltage to a data line would
do physically.  :meth:`UniformQuantizer.covers` tells whether new stored
rows leave that calibration exactly as it is, which lets a growing store
program only its new rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from ..exceptions import QuantizationError
from ..utils.validation import as_2d_array, check_bits, check_feature_matrix


@dataclass
class UniformQuantizer:
    """Uniform quantizer mapping real features to ``2^bits`` integer states.

    Parameters
    ----------
    bits:
        Bit precision (2 or 3 for the paper's MCAMs).
    per_feature:
        When true (default) each feature dimension gets its own calibration
        range; otherwise a single global range is used.
    epsilon:
        Guard value used when a feature is constant in the calibration data
        (its range would otherwise be zero).

    Besides the (possibly widened) ranges, :meth:`fit` keeps the raw data
    minimum and maximum of every feature, which :meth:`covers` checks new
    rows against.
    """

    bits: int = 3
    per_feature: bool = True
    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        check_bits(self.bits)
        if self.epsilon <= 0:
            raise QuantizationError(f"epsilon must be positive, got {self.epsilon}")
        self._low: Optional[np.ndarray] = None
        self._high: Optional[np.ndarray] = None
        self._raw_low: Optional[np.ndarray] = None
        self._raw_high: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of quantization levels (``2^bits``)."""
        return 2**self.bits

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._low is not None

    def fit(self, features: Any) -> "UniformQuantizer":
        """Learn the quantization range(s) from calibration ``features``.

        Returns ``self`` so calls can be chained
        (``UniformQuantizer(bits=3).fit(train)``).
        """
        return self._fit_checked(check_feature_matrix(features, "features"))

    def _fit_checked(self, features: np.ndarray) -> "UniformQuantizer":
        """:meth:`fit` on a matrix :func:`check_feature_matrix` already accepted."""
        if self.per_feature:
            low = features.min(axis=0)
            high = features.max(axis=0)
        else:
            low = np.full(features.shape[1], features.min())
            high = np.full(features.shape[1], features.max())
        self._raw_low = low.astype(np.float64)
        self._raw_high = high.astype(np.float64)
        width = high - low
        degenerate = width < self.epsilon
        if np.any(degenerate):
            # Give constant features a symmetric unit range so they quantize
            # to a stable middle state instead of dividing by zero.
            low = np.where(degenerate, low - 0.5, low)
            high = np.where(degenerate, high + 0.5, high)
        self._low = low.astype(np.float64)
        self._high = high.astype(np.float64)
        return self

    def covers(self, features: Any) -> bool:
        """Whether refitting on the calibration data plus ``features`` keeps the ranges.

        True only when every value of ``features`` lies inside the raw data
        range :meth:`fit` saw.  Minimum and maximum are exact, so a refit on
        the union then yields the same ranges bit for bit.  The widened band
        of a constant feature does not count: ``[v - 0.5, v + 0.5]`` holds
        values other than ``v`` whose refit would move the range.  An
        unfitted quantizer answers False.  ``features`` is not scanned for
        non-finite values: a NaN or an infinity fails the range test, so a
        row holding one is simply not covered.
        """
        raw_low, raw_high = self._raw_low, self._raw_high
        if raw_low is None or raw_high is None:
            return False
        features = as_2d_array(features, "features")
        if features.shape[1] != raw_low.shape[0]:
            return False
        return bool(np.all(features >= raw_low) and np.all(features <= raw_high))

    def _require_fitted(self) -> Tuple[np.ndarray, np.ndarray]:
        """The fitted ``(low, high)`` arrays, or a typed error when unfitted."""
        if self._low is None or self._high is None:
            raise QuantizationError("quantizer must be fitted before use")
        return self._low, self._high

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def quantize(self, features: Any) -> np.ndarray:
        """Map real-valued ``features`` to integer states in ``[0, 2^bits)``.

        Values outside the calibration range are clipped to the extreme
        states.
        """
        self._require_fitted()
        return self._quantize_checked(check_feature_matrix(features, "features"))

    def _quantize_checked(self, features: np.ndarray) -> np.ndarray:
        """:meth:`quantize` of a matrix :func:`check_feature_matrix` already accepted."""
        low, high = self._require_fitted()
        if features.shape[1] != low.shape[0]:
            raise QuantizationError(
                f"features have {features.shape[1]} dimensions but the quantizer "
                f"was fitted with {low.shape[0]}"
            )
        span = high - low
        normalized = (features - low) / span
        states = np.floor(normalized * self.num_states).astype(np.int64)
        clipped: np.ndarray = np.clip(states, 0, self.num_states - 1)
        return clipped

    def fit_quantize(self, features: Any) -> np.ndarray:
        """Fit on ``features`` and immediately quantize them."""
        return self.fit(features).quantize(features)

    def dequantize(self, states: Any) -> np.ndarray:
        """Map integer states back to the centers of their real-valued bins.

        This is the reconstruction used when comparing quantized data with
        software distance functions at matched precision.
        """
        low, high = self._require_fitted()
        states = np.asarray(states)
        if states.ndim == 1:
            states = states.reshape(1, -1)
        if states.ndim != 2 or states.shape[1] != low.shape[0]:
            raise QuantizationError(
                f"states must have shape (n, {low.shape[0]}), got {states.shape}"
            )
        if states.min() < 0 or states.max() >= self.num_states:
            raise QuantizationError(
                f"states must lie in [0, {self.num_states - 1}], "
                f"got range [{states.min()}, {states.max()}]"
            )
        span = high - low
        centers = (states.astype(np.float64) + 0.5) / self.num_states
        values: np.ndarray = low + centers * span
        return values

    def quantization_error(self, features: Any) -> float:
        """RMS reconstruction error of quantizing then dequantizing ``features``."""
        features = check_feature_matrix(features, "features")
        reconstructed = self.dequantize(self.quantize(features))
        return float(np.sqrt(np.mean((features - reconstructed) ** 2)))

    @property
    def ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The fitted ``(low, high)`` calibration vectors."""
        low, high = self._require_fitted()
        return low.copy(), high.copy()
