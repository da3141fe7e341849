"""Tests for the TCAM baseline and the ACAM concept model."""

import numpy as np
import pytest

from repro.circuits import (
    ACAMArray,
    AnalogRange,
    DONT_CARE,
    TCAMArray,
    mcam_input_levels,
    mcam_ranges,
)
from repro.exceptions import CapacityError, CircuitError, ConfigurationError


class TestTCAMStorage:
    def test_write_binary_rows(self):
        tcam = TCAMArray(num_cells=4)
        tcam.write([[0, 1, 0, 1], [1, 1, 1, 1]], labels=[0, 1])
        assert tcam.num_rows == 2

    def test_write_with_dont_cares(self):
        tcam = TCAMArray(num_cells=3)
        tcam.write([[0, DONT_CARE, 1]])
        assert tcam.num_rows == 1

    def test_rejects_invalid_symbols(self):
        tcam = TCAMArray(num_cells=2)
        with pytest.raises(CircuitError):
            tcam.write([[0, 2]])

    def test_rejects_wrong_width(self):
        tcam = TCAMArray(num_cells=3)
        with pytest.raises(CircuitError):
            tcam.write([[0, 1]])

    def test_capacity(self):
        tcam = TCAMArray(num_cells=2, max_rows=1)
        tcam.write([[0, 1]])
        with pytest.raises(CapacityError):
            tcam.write([[1, 0]])

    def test_clear(self):
        tcam = TCAMArray(num_cells=2)
        tcam.write([[0, 1]])
        tcam.clear()
        assert tcam.num_rows == 0

    def test_label_count_mismatch(self):
        tcam = TCAMArray(num_cells=2)
        with pytest.raises(CircuitError):
            tcam.write([[0, 1]], labels=[1, 2])


class TestTCAMSearch:
    @pytest.fixture(scope="class")
    def tcam(self):
        tcam = TCAMArray(num_cells=6)
        rows = np.array(
            [
                [0, 0, 0, 0, 0, 0],
                [1, 1, 1, 1, 1, 1],
                [0, 1, 0, 1, 0, 1],
                [1, 0, DONT_CARE, DONT_CARE, 1, 0],
            ]
        )
        tcam.write(rows, labels=[10, 11, 12, 13])
        return tcam

    def test_hamming_distances(self, tcam):
        distances = tcam.hamming_distances(np.array([0, 0, 0, 0, 0, 0]))
        assert list(distances) == [0, 6, 3, 2]

    def test_dont_care_matches_both(self, tcam):
        distances = tcam.hamming_distances(np.array([1, 0, 1, 1, 1, 0]))
        assert distances[3] == 0

    def test_search_minimizes_hamming(self, tcam):
        result = tcam.search(np.array([1, 1, 1, 1, 1, 0]))
        assert result.winner == 1
        assert result.label == 11

    def test_mismatch_conductance_exceeds_match(self, tcam):
        assert tcam.mismatch_conductance_s > 10 * tcam.match_conductance_s

    def test_row_conductance_monotone_in_hamming(self, tcam):
        query = np.array([0, 0, 0, 0, 0, 0])
        distances = tcam.hamming_distances(query)
        conductances = tcam.row_conductances(query)
        assert np.all(np.argsort(distances) == np.argsort(conductances))

    def test_exact_match_indices(self, tcam):
        matches = tcam.exact_match(np.array([0, 0, 0, 0, 0, 0]))
        assert list(matches) == [0]

    def test_predict(self, tcam):
        predictions = tcam.predict(np.array([[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1]]))
        assert list(predictions) == [10, 11]

    def test_search_batch_length(self, tcam):
        results = tcam.search_batch(np.zeros((3, 6), dtype=int))
        assert len(results) == 3

    def test_top_k(self, tcam):
        result = tcam.search(np.array([0, 0, 0, 0, 0, 0]))
        assert list(result.top_k(2))[0] == 0

    def test_non_binary_query_rejected(self, tcam):
        with pytest.raises(CircuitError):
            tcam.search(np.array([0, 1, 2, 0, 1, 0]))

    def test_empty_tcam_rejected(self):
        with pytest.raises(CircuitError):
            TCAMArray(num_cells=2).search(np.array([0, 1]))

    def test_predict_unlabeled_rejected(self):
        tcam = TCAMArray(num_cells=2)
        tcam.write([[0, 1]])
        with pytest.raises(CircuitError):
            tcam.predict([[0, 1]])


class TestAnalogRange:
    def test_contains(self):
        r = AnalogRange(0.2, 0.5)
        assert r.contains(0.3)
        assert not r.contains(0.6)

    def test_mismatch_margin(self):
        r = AnalogRange(0.2, 0.5)
        assert r.mismatch_margin(0.3) == 0.0
        assert r.mismatch_margin(0.7) == pytest.approx(0.2)
        assert r.mismatch_margin(0.1) == pytest.approx(0.1)

    def test_overlaps(self):
        assert AnalogRange(0.0, 0.5).overlaps(AnalogRange(0.4, 0.8))
        assert not AnalogRange(0.0, 0.3).overlaps(AnalogRange(0.4, 0.8))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalogRange(0.5, 0.2)


class TestACAMArray:
    @pytest.fixture()
    def acam(self):
        acam = ACAMArray(num_cells=3)
        # The example rows of Fig. 1(a).
        acam.write([AnalogRange(0.0, 1.0), AnalogRange(0.0, 0.15), AnalogRange(0.5, 0.8)], label=0)
        acam.write(
            [AnalogRange(0.2, 0.55), AnalogRange(0.85, 1.0), AnalogRange(0.45, 0.85)], label=1
        )
        acam.write([AnalogRange(0.6, 0.8), AnalogRange(0.45, 0.55), AnalogRange(0.0, 0.5)], label=2)
        return acam

    def test_fig1_example_match(self, acam):
        # Input (0.3, 0.1, 0.75) matches only the first row, as in Fig. 1(a).
        matches = acam.matching_rows([0.3, 0.1, 0.75])
        assert list(matches) == [0]

    def test_no_match(self, acam):
        assert acam.matching_rows([0.9, 0.3, 0.95]).size == 0

    def test_best_match_uses_margin(self, acam):
        best = acam.best_match([0.3, 0.12, 0.75])
        assert best == 0

    def test_label_of(self, acam):
        assert acam.label_of(1) == 1

    def test_label_of_out_of_range(self, acam):
        with pytest.raises(CircuitError):
            acam.label_of(5)

    def test_wrong_row_width_rejected(self):
        acam = ACAMArray(num_cells=2)
        with pytest.raises(CircuitError):
            acam.write([AnalogRange(0, 1)])

    def test_query_width_rejected(self, acam):
        with pytest.raises(CircuitError):
            acam.match([0.1, 0.2])

    def test_empty_best_match_rejected(self):
        with pytest.raises(CircuitError):
            ACAMArray(num_cells=1).best_match([0.5])


class TestMCAMAsSpecialCaseOfACAM:
    def test_ranges_tile_the_interval(self):
        ranges = mcam_ranges(bits=3)
        assert len(ranges) == 8
        assert ranges[0].low == 0.0
        assert ranges[-1].high == 1.0
        for left, right in zip(ranges[:-1], ranges[1:]):
            assert left.high == pytest.approx(right.low)

    def test_ranges_do_not_overlap_interiors(self):
        ranges = mcam_ranges(bits=2)
        for i, a in enumerate(ranges):
            for b in ranges[i + 2 :]:
                assert not a.overlaps(b)

    def test_input_levels_fall_in_their_own_range(self):
        ranges = mcam_ranges(bits=3)
        levels = mcam_input_levels(bits=3)
        for level, cell_range in zip(levels, ranges):
            assert cell_range.contains(level)

    def test_one_to_one_input_to_range_mapping(self):
        # Each input level matches exactly one stored range: the MCAM is a
        # digital special case of the ACAM (Sec. II-A).
        acam = ACAMArray(num_cells=1)
        for cell_range in mcam_ranges(bits=2):
            acam.write([cell_range])
        for level in mcam_input_levels(bits=2):
            assert acam.matching_rows([level]).size == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            mcam_ranges(bits=2, value_low=1.0, value_high=0.0)
