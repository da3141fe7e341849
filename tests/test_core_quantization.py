"""Tests for the uniform feature quantizer."""

import numpy as np
import pytest

from repro.core import UniformQuantizer
from repro.exceptions import QuantizationError


class TestFitAndQuantize:
    def test_states_cover_full_range(self):
        quantizer = UniformQuantizer(bits=3)
        features = np.linspace(0, 1, 100).reshape(-1, 1)
        states = quantizer.fit_quantize(features)
        assert states.min() == 0
        assert states.max() == 7

    def test_monotonic_mapping(self):
        quantizer = UniformQuantizer(bits=3)
        features = np.linspace(-5, 5, 50).reshape(-1, 1)
        states = quantizer.fit_quantize(features)
        assert np.all(np.diff(states[:, 0]) >= 0)

    def test_out_of_range_queries_clip(self):
        quantizer = UniformQuantizer(bits=2)
        quantizer.fit(np.array([[0.0], [1.0]]))
        states = quantizer.quantize(np.array([[-10.0], [10.0]]))
        assert states[0, 0] == 0
        assert states[1, 0] == 3

    def test_per_feature_ranges(self):
        quantizer = UniformQuantizer(bits=2, per_feature=True)
        features = np.array([[0.0, 100.0], [1.0, 200.0]])
        states = quantizer.fit_quantize(features)
        assert states[0, 0] == 0 and states[1, 0] == 3
        assert states[0, 1] == 0 and states[1, 1] == 3

    def test_global_range(self):
        quantizer = UniformQuantizer(bits=2, per_feature=False)
        features = np.array([[0.0, 100.0], [1.0, 200.0]])
        states = quantizer.fit_quantize(features)
        # With a single global range [0, 200] the first feature is squashed
        # into the lowest state.
        assert states[0, 0] == 0 and states[1, 0] == 0

    def test_constant_feature_is_stable(self):
        quantizer = UniformQuantizer(bits=3)
        features = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        states = quantizer.fit_quantize(features)
        assert len(np.unique(states[:, 0])) == 1

    def test_unfitted_rejected(self):
        with pytest.raises(QuantizationError):
            UniformQuantizer(bits=2).quantize(np.array([[1.0]]))

    def test_dimension_mismatch_rejected(self):
        quantizer = UniformQuantizer(bits=2)
        quantizer.fit(np.ones((3, 2)))
        with pytest.raises(QuantizationError):
            quantizer.quantize(np.ones((3, 4)))

    def test_num_states(self):
        assert UniformQuantizer(bits=4).num_states == 16

    def test_invalid_bits_rejected(self):
        with pytest.raises(Exception):
            UniformQuantizer(bits=0)


class TestDequantize:
    def test_roundtrip_error_bounded_by_half_step(self):
        quantizer = UniformQuantizer(bits=3)
        rng = np.random.default_rng(0)
        features = rng.uniform(0, 10, size=(200, 4))
        quantizer.fit(features)
        reconstructed = quantizer.dequantize(quantizer.quantize(features))
        step = 10.0 / 8
        assert np.max(np.abs(features - reconstructed)) <= step / 2 + 1e-9

    def test_higher_precision_reduces_error(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(0, 1, size=(300, 5))
        error2 = UniformQuantizer(bits=2).fit(features).quantization_error(features)
        error3 = UniformQuantizer(bits=3).fit(features).quantization_error(features)
        error4 = UniformQuantizer(bits=4).fit(features).quantization_error(features)
        assert error4 < error3 < error2

    def test_dequantize_rejects_out_of_range_states(self):
        quantizer = UniformQuantizer(bits=2)
        quantizer.fit(np.array([[0.0], [1.0]]))
        with pytest.raises(QuantizationError):
            quantizer.dequantize(np.array([[4]]))

    def test_dequantize_unfitted_rejected(self):
        with pytest.raises(QuantizationError):
            UniformQuantizer(bits=2).dequantize(np.array([[0]]))

    def test_ranges_property(self):
        quantizer = UniformQuantizer(bits=2)
        quantizer.fit(np.array([[0.0, -1.0], [2.0, 1.0]]))
        low, high = quantizer.ranges
        assert np.allclose(low, [0.0, -1.0])
        assert np.allclose(high, [2.0, 1.0])

    def test_fit_returns_self_for_chaining(self):
        quantizer = UniformQuantizer(bits=2)
        assert quantizer.fit(np.ones((2, 2))) is quantizer


class TestCovers:
    """``covers``: new stored rows that leave the calibration exactly as it is."""

    @pytest.mark.parametrize("per_feature", (True, False))
    def test_covers_appends_inside_the_raw_range_only(self, per_feature):
        rng = np.random.default_rng(4)
        stored = rng.normal(size=(50, 3))
        quantizer = UniformQuantizer(bits=3, per_feature=per_feature).fit(stored)
        low, high = stored.min(axis=0), stored.max(axis=0)
        if not per_feature:
            low, high = np.full(3, stored.min()), np.full(3, stored.max())
        inside = np.clip(rng.normal(size=(20, 3)), low, high)
        assert quantizer.covers(inside)
        assert quantizer.covers(np.vstack([low, high]))
        refit = UniformQuantizer(bits=3, per_feature=per_feature)
        refit.fit(np.vstack([stored, inside]))
        for mine, theirs in zip(quantizer.ranges, refit.ranges):
            assert mine.tobytes() == theirs.tobytes()
        for column in range(3):
            below = inside[:1].copy()
            below[0, column] = np.nextafter(low[column], -np.inf)
            assert not quantizer.covers(below)

    def test_constant_feature_band_does_not_cover_appends(self):
        quantizer = UniformQuantizer(bits=2).fit(np.array([[1.0, 0.0], [1.0, 2.0]]))
        assert quantizer.covers(np.array([[1.0, 1.5]]))
        assert not quantizer.covers(np.array([[1.25, 1.5]]))  # inside [0.5, 1.5]

    def test_unfitted_quantizer_covers_no_append(self):
        quantizer = UniformQuantizer(bits=3)
        assert not quantizer.covers(np.zeros((1, 2)))
        quantizer.fit(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert not quantizer.covers(np.zeros((1, 3)))  # other width

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_not_covered(self, value):
        # covers() does not scan for non-finite values: each fails the range
        # test, so the append that holds one is simply not covered.
        quantizer = UniformQuantizer(bits=3).fit(np.array([[0.0, 0.0], [1.0, 1.0]]))
        rows = np.full((2, 2), 0.5)
        assert quantizer.covers(rows)
        rows[1, 0] = value
        assert not quantizer.covers(rows)
