"""Tests for the MCAM cell model and its voltage scheme (paper Fig. 3)."""

import numpy as np
import pytest

from repro.circuits import (
    INVERSION_CENTER_V,
    MCAMCell,
    MCAMVoltageScheme,
    analog_inverse,
)
from repro.devices import GaussianVthVariationModel
from repro.exceptions import CircuitError, ConfigurationError


class TestAnalogInverse:
    def test_center_maps_to_itself(self):
        assert analog_inverse(INVERSION_CENTER_V) == pytest.approx(INVERSION_CENTER_V)

    def test_involution(self):
        assert analog_inverse(analog_inverse(0.42)) == pytest.approx(0.42)

    def test_paper_example(self):
        # Fig. 3(b): the inverse of the 600 mV level is 1080 mV.
        assert analog_inverse(0.60) == pytest.approx(1.08)

    def test_array_input(self):
        values = analog_inverse(np.array([0.36, 1.32]))
        assert np.allclose(values, [1.32, 0.36])


class TestVoltageScheme:
    def test_3bit_has_8_states(self):
        scheme = MCAMVoltageScheme(bits=3)
        assert scheme.num_states == 8
        assert scheme.state_width_v == pytest.approx(0.12)

    def test_level_grid_matches_paper(self):
        grid = MCAMVoltageScheme(bits=3).level_grid_v
        assert grid[0] == pytest.approx(0.36)
        assert grid[-1] == pytest.approx(1.32)
        assert np.allclose(np.diff(grid), 0.12)

    def test_input_voltages_match_paper(self):
        inputs = MCAMVoltageScheme(bits=3).input_voltages_v()
        assert np.allclose(inputs, 0.42 + 0.12 * np.arange(8))

    def test_input_set_closed_under_inversion(self):
        scheme = MCAMVoltageScheme(bits=3)
        inputs = scheme.input_voltages_v()
        inverses = analog_inverse(inputs, scheme.center_v)
        assert np.allclose(np.sort(inputs), np.sort(inverses))

    def test_stored_vth_pair_paper_example(self):
        # Storing state 3 (S3, zero-based index 2): DL-side FeFET at 720 mV,
        # DL-bar-side FeFET at the inverse of 600 mV = 1080 mV.
        scheme = MCAMVoltageScheme(bits=3)
        vth_dl, vth_dlbar = scheme.stored_vth_pair_v(2)
        assert vth_dl == pytest.approx(0.72)
        assert vth_dlbar == pytest.approx(1.08)

    def test_2bit_merges_neighboring_states(self):
        scheme = MCAMVoltageScheme(bits=2)
        assert scheme.num_states == 4
        assert scheme.state_width_v == pytest.approx(0.24)

    def test_bounds_and_inputs_consistent(self):
        scheme = MCAMVoltageScheme(bits=3)
        for state in range(scheme.num_states):
            low, high = scheme.state_bounds_v(state)
            assert low < scheme.input_voltage_v(state) < high

    def test_dl_voltages_are_inverses(self):
        scheme = MCAMVoltageScheme(bits=3)
        dl, dlbar = scheme.dl_voltages_v(5)
        assert dl + dlbar == pytest.approx(2 * scheme.center_v)

    def test_invalid_state_rejected(self):
        scheme = MCAMVoltageScheme(bits=2)
        with pytest.raises(ConfigurationError):
            scheme.state_bounds_v(4)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            MCAMVoltageScheme(bits=3, window_low_v=1.0, window_high_v=0.5)


SCHEMES = (
    MCAMVoltageScheme(bits=1),
    MCAMVoltageScheme(bits=2),
    MCAMVoltageScheme(bits=3),
    MCAMVoltageScheme(bits=3, window_low_v=0.3, window_high_v=1.5),
)


@pytest.mark.parametrize("scheme", SCHEMES, ids=repr)
class TestCachedSchemeVoltages:
    """The grid and input voltages are built once per scheme, read-only."""

    def test_level_grid_is_bitwise_an_uncached_linspace(self, scheme):
        uncached = np.linspace(scheme.window_low_v, scheme.window_high_v, scheme.num_states + 1)
        assert scheme.level_grid_v.tobytes() == uncached.tobytes()

    def test_input_voltages_are_bitwise_the_per_state_midpoints(self, scheme):
        grid = np.linspace(scheme.window_low_v, scheme.window_high_v, scheme.num_states + 1)
        uncached = np.array(
            [0.5 * (float(grid[s]) + float(grid[s + 1])) for s in range(scheme.num_states)]
        )
        assert scheme.input_voltages_v().tobytes() == uncached.tobytes()
        per_state = [scheme.input_voltage_v(s) for s in range(scheme.num_states)]
        assert scheme.input_voltages_v().tolist() == per_state

    def test_cached_arrays_reject_writes(self, scheme):
        for cached in (scheme.level_grid_v, scheme.input_voltages_v()):
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_equal_schemes_share_one_build(self, scheme):
        twin = MCAMVoltageScheme(
            bits=scheme.bits,
            window_low_v=scheme.window_low_v,
            window_high_v=scheme.window_high_v,
        )
        assert twin.level_grid_v is scheme.level_grid_v
        assert twin.input_voltages_v() is scheme.input_voltages_v()


class TestMCAMCell:
    @pytest.fixture(scope="class")
    def cell(self):
        cell = MCAMCell()
        cell.program(0)
        return cell

    def test_unprogrammed_cell_cannot_search(self):
        with pytest.raises(CircuitError):
            MCAMCell().conductance(0)

    def test_match_has_lowest_conductance(self):
        cell = MCAMCell()
        for stored in range(cell.num_states):
            cell.program(stored)
            profile = cell.conductance_profile()
            assert np.argmin(profile) == stored

    def test_conductance_increases_with_distance(self, cell):
        profile = cell.conductance_profile()
        assert np.all(np.diff(profile) > 0)  # stored state 0: distance = input index

    def test_conductance_positive(self, cell):
        assert np.all(cell.conductance_profile() > 0)

    def test_matches_method(self):
        cell = MCAMCell()
        cell.program(4)
        assert cell.matches(4)
        assert not cell.matches(5)
        assert not cell.matches(0)

    def test_program_sets_stored_state_and_vth(self):
        cell = MCAMCell()
        cell.program(2)
        assert cell.stored_state == 2
        vth_dl, vth_dlbar = cell.stored_vth_pair_v
        assert vth_dl == pytest.approx(0.72)
        assert vth_dlbar == pytest.approx(1.08)

    def test_invalid_input_state_rejected(self, cell):
        with pytest.raises(ConfigurationError):
            cell.conductance(8)

    def test_variation_changes_conductance(self):
        nominal = MCAMCell()
        nominal.program(3)
        varied = MCAMCell(variation=GaussianVthVariationModel(sigma_v=0.08))
        varied.program(3, rng=3)
        assert not np.allclose(nominal.conductance_profile(), varied.conductance_profile())

    def test_reprogramming_overwrites(self):
        cell = MCAMCell()
        cell.program(1)
        first = cell.conductance_profile()
        cell.program(6)
        second = cell.conductance_profile()
        assert np.argmin(first) == 1
        assert np.argmin(second) == 6

    def test_2bit_cell(self):
        cell = MCAMCell(scheme=MCAMVoltageScheme(bits=2))
        cell.program(3)
        assert cell.bits == 2
        assert cell.num_states == 4
        assert np.argmin(cell.conductance_profile()) == 3
