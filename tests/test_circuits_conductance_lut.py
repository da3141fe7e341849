"""Tests for the conductance look-up table (the paper's simulation vehicle)."""

import numpy as np
import pytest

from repro.circuits import (
    ConductanceLUT,
    MCAMArray,
    MCAMVoltageScheme,
    build_lut_population,
    build_nominal_lut,
    build_varied_lut,
)
from repro.devices import FeFETParameters, GaussianVthVariationModel
from repro.exceptions import CircuitError, ConfigurationError


class TestConstruction:
    def test_nominal_shape(self, lut3):
        assert lut3.table_s.shape == (8, 8)
        assert lut3.num_states == 8

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            ConductanceLUT(table_s=np.ones((4, 4)), bits=3)

    def test_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            ConductanceLUT(table_s=-np.ones((8, 8)), bits=3)

    def test_rejects_nan_entries(self):
        table = np.ones((4, 4))
        table[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            ConductanceLUT(table_s=table, bits=2)

    def test_build_rejects_mismatched_scheme(self):
        with pytest.raises(ConfigurationError):
            build_nominal_lut(bits=3, scheme=MCAMVoltageScheme(bits=2))


class TestNominalLutMemo:
    """``build_nominal_lut`` is memoized on its arguments and read-only."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bits=1),
            dict(bits=2),
            dict(bits=3),
            dict(bits=3, device=FeFETParameters(width_nm=450.0, length_nm=450.0)),
            dict(bits=3, scheme=MCAMVoltageScheme(bits=3), ml_voltage_v=0.6),
        ],
        ids=repr,
    )
    def test_memoized_table_is_bitwise_an_uncached_build(self, kwargs):
        cached = build_nominal_lut(**kwargs)
        uncached = build_nominal_lut.__wrapped__(**kwargs)
        assert cached is not uncached
        assert cached.table_s.tobytes() == uncached.table_s.tobytes()
        assert build_nominal_lut(**kwargs) is cached

    def test_memoized_table_rejects_writes(self, lut3):
        assert lut3 is build_nominal_lut(bits=3)
        with pytest.raises(ValueError):
            lut3.table_s[0, 0] = 0.0

    def test_arrays_with_equal_configuration_share_one_table(self):
        first, second = MCAMArray(num_cells=4, bits=3), MCAMArray(num_cells=9, bits=3)
        assert first.lut is second.lut


class TestDistanceFunctionShape:
    def test_diagonal_is_minimum_of_each_column(self, lut3):
        table = lut3.table_s
        for stored in range(8):
            assert np.argmin(table[:, stored]) == stored

    def test_nearly_symmetric(self, lut3):
        table = lut3.table_s
        assert np.allclose(table, table.T, rtol=0.2)

    def test_mean_increases_with_distance(self, lut3):
        means = lut3.distance_by_separation()
        assert np.all(np.diff(means) > 0)

    def test_derivative_is_bell_shaped(self, lut3):
        derivative = lut3.derivative_by_separation()
        peak = int(np.argmax(derivative))
        # Fig. 4(d): the peak sits at intermediate distances (3-5), and the
        # derivative drops again for the largest distances.
        assert 2 <= peak + 1 <= 5
        assert derivative[-1] < derivative[peak]
        assert derivative[0] < derivative[peak]

    def test_dynamic_range_large(self, lut3):
        assert lut3.dynamic_range() > 20.0

    def test_2bit_table_is_submatrix_like(self, lut2):
        assert lut2.table_s.shape == (4, 4)
        assert np.all(np.diff(lut2.distance_by_separation()) > 0)

    def test_normalized_match_conductance_is_one(self, lut3):
        normalized = lut3.normalized()
        assert np.mean(np.diag(normalized.table_s)) == pytest.approx(1.0)


class TestLookupAndRows:
    def test_lookup_scalar(self, lut3):
        assert lut3.lookup(2, 5) == lut3.table_s[2, 5]

    def test_lookup_broadcast(self, lut3):
        values = lut3.lookup(np.array([0, 1, 2]), 4)
        assert values.shape == (3,)

    def test_lookup_rejects_out_of_range(self, lut3):
        with pytest.raises(CircuitError):
            lut3.lookup(8, 0)
        with pytest.raises(CircuitError):
            lut3.lookup(0, -1)

    def test_row_conductance_matching_row_is_smallest(self, lut3):
        stored = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [0, 0, 0, 0]])
        query = np.array([0, 1, 2, 3])
        conductances = lut3.row_conductance(stored, query)
        assert np.argmin(conductances) == 0

    def test_row_conductance_equals_sum_of_cells(self, lut3):
        stored = np.array([[1, 3, 5]])
        query = np.array([2, 2, 2])
        expected = lut3.table_s[2, 1] + lut3.table_s[2, 3] + lut3.table_s[2, 5]
        assert lut3.row_conductance(stored, query)[0] == pytest.approx(expected)

    @pytest.mark.parametrize("rows", (1, 2, 40))
    def test_row_conductance_sums_cells_in_array_order(self, lut3, rows):
        # 64 cells: numpy's pairwise sum over a contiguous cell axis would
        # differ from the array's cell-order sum in the last bits.
        rng = np.random.default_rng(rows)
        for _ in range(20):
            stored = rng.integers(0, 8, size=(rows, 64))
            query = rng.integers(0, 8, size=64)
            array = MCAMArray(num_cells=64, bits=3, lut=lut3)
            array.write(stored)
            expected = array.row_conductances(query)
            assert lut3.row_conductance(stored, query).tobytes() == expected.tobytes()

    def test_row_conductance_rejects_width_mismatch(self, lut3):
        with pytest.raises(CircuitError):
            lut3.row_conductance(np.zeros((2, 4), dtype=int), np.zeros(3, dtype=int))

    def test_row_conductance_rejects_2d_query(self, lut3):
        with pytest.raises(CircuitError):
            lut3.row_conductance(np.zeros((2, 4), dtype=int), np.zeros((2, 4), dtype=int))


class TestVariedLuts:
    def test_varied_differs_from_nominal(self, lut3):
        varied = build_varied_lut(
            bits=3, variation=GaussianVthVariationModel(sigma_v=0.08), rng=1
        )
        assert not np.allclose(varied.table_s, lut3.table_s)

    def test_varied_with_none_variation_equals_nominal(self, lut3):
        assert np.allclose(build_varied_lut(bits=3, variation=None).table_s, lut3.table_s)

    def test_small_variation_preserves_monotonic_trend(self):
        varied = build_varied_lut(
            bits=3, variation=GaussianVthVariationModel(sigma_v=0.04), rng=2
        )
        assert np.all(np.diff(varied.distance_by_separation()) > 0)

    def test_population_is_reproducible(self):
        first = build_lut_population(
            3, bits=2, variation=GaussianVthVariationModel(0.05), rng=7
        )
        second = build_lut_population(
            3, bits=2, variation=GaussianVthVariationModel(0.05), rng=7
        )
        for a, b in zip(first, second):
            assert np.allclose(a.table_s, b.table_s)

    def test_with_noise_zero_is_copy(self, lut3):
        noisy = lut3.with_noise(0.0)
        assert np.allclose(noisy.table_s, lut3.table_s)
        assert noisy is not lut3

    def test_with_noise_changes_entries(self, lut3):
        noisy = lut3.with_noise(0.3, rng=5)
        assert not np.allclose(noisy.table_s, lut3.table_s)

    def test_with_noise_rejects_negative_sigma(self, lut3):
        with pytest.raises(ConfigurationError):
            lut3.with_noise(-0.1)
