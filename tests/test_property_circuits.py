"""Property-based tests (hypothesis) for the device and circuit substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.circuits import MatchLineModel, MCAMArray, MCAMVoltageScheme, build_nominal_lut
from repro.circuits.sense_amplifier import IdealWinnerTakeAll
from repro.core import MCAMDistance
from repro.devices import FeFET, GaussianVthVariationModel, PreisachModel

#: Shared nominal 3-bit table (module-level so hypothesis examples reuse it).
LUT3 = build_nominal_lut(bits=3)
DISTANCE3 = MCAMDistance(lut=LUT3)


class TestFeFETProperties:
    @given(
        vth=st.floats(0.48, 1.32),
        vgs_a=st.floats(0.0, 1.4),
        vgs_b=st.floats(0.0, 1.4),
    )
    @settings(max_examples=80, deadline=None)
    def test_current_monotone_in_vgs(self, vth, vgs_a, vgs_b):
        fefet = FeFET(vth_v=vth)
        low, high = sorted((vgs_a, vgs_b))
        assert fefet.drain_current(low) <= fefet.drain_current(high) + 1e-18

    @given(vgs=st.floats(0.0, 1.4), vth_a=st.floats(0.48, 1.32), vth_b=st.floats(0.48, 1.32))
    @settings(max_examples=80, deadline=None)
    def test_current_monotone_decreasing_in_vth(self, vgs, vth_a, vth_b):
        fefet = FeFET()
        low, high = sorted((vth_a, vth_b))
        assert fefet.drain_current(vgs, vth_v=low) >= fefet.drain_current(vgs, vth_v=high) - 1e-18

    @given(target=st.floats(0.481, 1.319))
    @settings(max_examples=60, deadline=None)
    def test_preisach_inversion_roundtrip(self, target):
        model = PreisachModel()
        pulse = model.pulse_for_vth(target)
        assert model.vth_after_pulse(pulse) == pytest.approx(target, abs=1e-3)


class TestVoltageSchemeProperties:
    @given(bits=st.integers(1, 5), state=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inputs_inside_their_state_and_closed_under_inversion(self, bits, state):
        scheme = MCAMVoltageScheme(bits=bits)
        index = state.draw(st.integers(0, scheme.num_states - 1))
        low, high = scheme.state_bounds_v(index)
        assert low < scheme.input_voltage_v(index) < high
        inputs = scheme.input_voltages_v()
        inverses = 2.0 * scheme.center_v - inputs
        assert np.allclose(np.sort(inputs), np.sort(inverses))


class TestLUTProperties:
    @given(
        stored=arrays(
            np.int64, st.tuples(st.integers(1, 8), st.just(6)), elements=st.integers(0, 7)
        ),
        query=arrays(np.int64, 6, elements=st.integers(0, 7)),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_conductance_bounds(self, stored, query):
        conductances = LUT3.row_conductance(stored, query)
        per_cell_min = LUT3.table_s.min()
        per_cell_max = LUT3.table_s.max()
        assert np.all(conductances >= 6 * per_cell_min - 1e-18)
        assert np.all(conductances <= 6 * per_cell_max + 1e-18)

    @given(query=arrays(np.int64, 6, elements=st.integers(0, 7)))
    @settings(max_examples=60, deadline=None)
    def test_exact_match_row_is_global_minimum(self, query):
        rng = np.random.default_rng(int(query.sum()))
        others = rng.integers(0, 8, size=(10, 6))
        # Ensure at least one cell differs in every distractor row.
        for row in others:
            if np.array_equal(row, query):
                row[0] = (row[0] + 1) % 8
        stored = np.vstack([query, others])
        conductances = LUT3.row_conductance(stored, query)
        assert np.argmin(conductances) == 0

    @given(
        query=arrays(np.int64, 5, elements=st.integers(0, 7)),
        stored=arrays(np.int64, 5, elements=st.integers(0, 7)),
        cell=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_moving_one_cell_closer_never_increases_distance(self, query, stored, cell):
        if stored[cell] == query[cell]:
            return
        closer = stored.copy()
        closer[cell] += 1 if query[cell] > stored[cell] else -1
        original = DISTANCE3.pairwise(query, stored)
        improved = DISTANCE3.pairwise(query, closer)
        assert improved <= original + 1e-18


class TestMatchLineProperties:
    @given(
        conductance=st.floats(1e-9, 1e-4),
        num_cells=st.integers(1, 256),
        time_factor=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_voltage_bounded_and_decreasing(self, conductance, num_cells, time_factor):
        ml = MatchLineModel(num_cells=num_cells)
        tau = ml.capacitance_f / conductance
        earlier = ml.voltage_at(conductance, 0.5 * time_factor * tau)
        later = ml.voltage_at(conductance, time_factor * tau)
        assert 0.0 < later <= earlier <= ml.precharge_v

    @given(conductances=arrays(np.float64, st.integers(2, 20), elements=st.floats(1e-9, 1e-4)))
    @settings(max_examples=60, deadline=None)
    def test_winner_is_argmin(self, conductances):
        result = IdealWinnerTakeAll().sense(conductances)
        assert result.winner == int(np.argmin(conductances))
        ranked = conductances[result.ranking]
        assert np.all(np.diff(ranked) >= 0)


class TestScreenedTopKProperties:
    @given(
        bits=st.sampled_from((2, 3)),
        sigma_v=st.sampled_from((None, 0.0, 0.03)),
        cells=st.integers(1, 72),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_screen_equals_stable_argsort_bitwise(self, bits, sigma_v, cells, data):
        """The BLAS screen returns the stable ranking of the exact sums.

        Stores repeat a few base rows (exact ties) and permute the cells of
        some copies.  Against a constant query a permuted copy sums the same
        cell conductances in another order: a near-tie of a few ulps, which
        the BLAS estimate may order either way — what the screen's margin
        exists for.  ``sigma_v`` picks LUT mode (``None``) or device mode,
        nominal (``0.0``, the same ties) or varied.
        """
        states = 2**bits
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        base = rng.integers(0, states, size=(data.draw(st.integers(1, 6), label="base"), cells))
        stored = base[rng.integers(0, len(base), size=data.draw(st.integers(1, 48), label="rows"))]
        for row in np.flatnonzero(rng.random(len(stored)) < 0.5):
            stored[row] = stored[row][rng.permutation(cells)]
        variation = None if sigma_v is None else GaussianVthVariationModel(sigma_v=sigma_v)
        array = MCAMArray(num_cells=cells, bits=bits, variation=variation)
        array.write(stored, rng=seed)
        queries = np.vstack(
            [
                np.repeat(np.arange(states)[:, np.newaxis], cells, axis=1),
                rng.integers(0, states, size=(data.draw(st.integers(0, 4)), cells)),
            ]
        )
        k = data.draw(st.integers(1, len(stored)), label="k")

        conductances = array.row_conductances_batch(queries)
        expected = np.argsort(conductances, axis=1, kind="stable")[:, :k]
        indices, scores = array.screened_top_k(queries, k)
        np.testing.assert_array_equal(indices, expected)
        assert scores.tobytes() == np.take_along_axis(conductances, expected, axis=1).tobytes()
