"""Tests for the MCAM array (single-step in-memory NN search)."""

import numpy as np
import pytest

from repro.circuits import (
    MCAMArray,
    MCAMVoltageScheme,
    TimeDomainSenseAmplifier,
    program_cell_profiles,
)
from repro.devices import FeFETParameters, GaussianVthVariationModel
from repro.exceptions import CapacityError, CircuitError, ConfigurationError


class TestWrite:
    def test_write_and_row_count(self):
        array = MCAMArray(num_cells=4, bits=3)
        array.write([[0, 1, 2, 3], [4, 5, 6, 7]], labels=[0, 1])
        assert array.num_rows == 2
        assert array.labels == [0, 1]

    def test_write_without_labels(self):
        array = MCAMArray(num_cells=3, bits=2)
        array.write([[0, 1, 2]])
        assert array.labels == [None]

    def test_capacity_enforced(self):
        array = MCAMArray(num_cells=2, bits=2, max_rows=2)
        array.write([[0, 1], [1, 2]])
        with pytest.raises(CapacityError):
            array.write([[2, 3]])

    def test_wrong_width_rejected(self):
        array = MCAMArray(num_cells=4, bits=3)
        with pytest.raises(CircuitError):
            array.write([[0, 1, 2]])

    def test_out_of_range_state_rejected(self):
        array = MCAMArray(num_cells=2, bits=2)
        with pytest.raises(ConfigurationError):
            array.write([[0, 4]])

    def test_label_count_mismatch_rejected(self):
        array = MCAMArray(num_cells=2, bits=2)
        with pytest.raises(CircuitError):
            array.write([[0, 1]], labels=[1, 2])

    def test_clear(self):
        array = MCAMArray(num_cells=2, bits=2)
        array.write([[0, 1]])
        array.clear()
        assert array.num_rows == 0

    def test_lut_bits_mismatch_rejected(self, lut2):
        with pytest.raises(ConfigurationError):
            MCAMArray(num_cells=4, bits=3, lut=lut2)

    def test_scheme_bits_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MCAMArray(num_cells=4, bits=3, scheme=MCAMVoltageScheme(bits=2))


class TestSearch:
    @pytest.fixture(scope="class")
    def array(self):
        array = MCAMArray(num_cells=8, bits=3)
        rng = np.random.default_rng(0)
        entries = rng.integers(0, 8, size=(20, 8))
        array.write(entries, labels=list(range(20)))
        return array, entries

    def test_exact_match_wins(self, array):
        mcam, entries = array
        for row in (0, 7, 19):
            result = mcam.search(entries[row])
            assert result.winner == row
            assert result.label == row

    def test_search_returns_all_conductances(self, array):
        mcam, entries = array
        result = mcam.search(entries[0])
        assert result.row_conductances_s.shape == (20,)
        assert np.all(result.row_conductances_s > 0)

    def test_winner_minimizes_conductance(self, array):
        mcam, entries = array
        query = np.clip(entries[3] + 1, 0, 7)
        result = mcam.search(query)
        assert result.winner == int(np.argmin(result.row_conductances_s))

    def test_nearest_matches_brute_force_lut(self, array):
        mcam, entries = array
        lut = mcam.lut
        rng = np.random.default_rng(1)
        for _ in range(10):
            query = rng.integers(0, 8, size=8)
            expected = int(np.argmin(lut.row_conductance(entries, query)))
            assert mcam.nearest(query) == expected

    def test_search_batch(self, array):
        mcam, entries = array
        results = mcam.search_batch(entries[:5])
        assert [r.winner for r in results] == [0, 1, 2, 3, 4]

    def test_predict_returns_labels(self, array):
        mcam, entries = array
        predictions = mcam.predict(entries[:4])
        assert list(predictions) == [0, 1, 2, 3]

    def test_top_k(self, array):
        mcam, entries = array
        result = mcam.search(entries[2])
        top = result.top_k(3)
        assert top[0] == 2
        assert len(top) == 3

    def test_empty_array_rejected(self):
        with pytest.raises(CircuitError):
            MCAMArray(num_cells=4, bits=3).search([0, 1, 2, 3])

    def test_wrong_query_width_rejected(self, array):
        mcam, _ = array
        with pytest.raises(CircuitError):
            mcam.search([0, 1, 2])

    def test_predict_without_labels_rejected(self):
        array = MCAMArray(num_cells=2, bits=2)
        array.write([[0, 1]])
        with pytest.raises(CircuitError):
            array.predict([[0, 1]])


class TestPerCellDeviceMode:
    def test_variation_mode_stores_profiles(self):
        array = MCAMArray(
            num_cells=6, bits=3, variation=GaussianVthVariationModel(sigma_v=0.05)
        )
        entries = np.random.default_rng(2).integers(0, 8, size=(10, 6))
        array.write(entries, labels=list(range(10)), rng=2)
        assert array._profiles is not None
        assert array._profiles.shape == (10, 6, 8)

    def test_small_variation_still_finds_exact_matches(self):
        array = MCAMArray(
            num_cells=8, bits=3, variation=GaussianVthVariationModel(sigma_v=0.02)
        )
        rng = np.random.default_rng(3)
        entries = rng.integers(0, 8, size=(15, 8))
        array.write(entries, labels=list(range(15)), rng=3)
        hits = sum(array.search(entries[row]).winner == row for row in range(15))
        assert hits >= 13

    def test_program_cell_profiles_shape_and_minimum(self):
        scheme = MCAMVoltageScheme(bits=3)
        states = np.array([[0, 3], [7, 5]])
        profiles = program_cell_profiles(states, scheme, FeFETParameters(), variation=None)
        assert profiles.shape == (2, 2, 8)
        assert np.argmin(profiles[0, 1]) == 3
        assert np.argmin(profiles[1, 0]) == 7

    def test_profiles_match_lut_without_variation(self, lut3):
        scheme = MCAMVoltageScheme(bits=3)
        states = np.arange(8).reshape(1, 8)
        profiles = program_cell_profiles(states, scheme, FeFETParameters(), variation=None)
        for cell in range(8):
            assert np.allclose(profiles[0, cell], lut3.table_s[:, cell], rtol=1e-9)


class TestNonIdealSensing:
    def test_time_domain_sensing_agrees_with_ideal_when_noiseless(self):
        ideal = MCAMArray(num_cells=8, bits=3)
        rng = np.random.default_rng(4)
        entries = rng.integers(0, 8, size=(12, 8))
        ideal.write(entries, labels=list(range(12)))

        noisy = MCAMArray(
            num_cells=8,
            bits=3,
            sense_amplifier=TimeDomainSenseAmplifier(ideal.matchline),
        )
        noisy.write(entries, labels=list(range(12)))
        for query in entries[:6]:
            assert ideal.search(query).winner == noisy.search(query).winner
