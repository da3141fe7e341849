"""Shape-adaptive kernel autotuning: parity, selection and explicit kernels.

The autotuner's contract mirrors the executors': kernel selection changes
*where the time goes*, never *what is computed*.  These tests pin the three
MCAM conductance kernels (fused / blocked / dense), each called directly,
bitwise against each other and against the autotuned public path at the
gated workload shapes — the 5-way 1-shot episode, the 20-way 5-shot
episode the old hardcoded threshold mis-classified, and a >64k-element
store — and pin that a directly called kernel bypasses whatever the tuned
table says, while the public path follows the table and never dispatches a
name that is not a candidate.  The TCAM has a single Hamming kernel and
never touches the table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import MCAMArray, TCAMArray, clear_kernel_table, kernel_table
from repro.circuits.autotune import select_kernel, shape_bucket

#: The gated workload shapes: (stored rows, queries), 64-cell words.
#: 5-way 1-shot (5 support rows, 25 queries), 20-way 5-shot (100 rows,
#: 100 queries — the shape the old 1<<16 threshold lost on), and a store
#: past the fused kernel's candidate bound (4096 * 64 * 64 > 1<<22).
SHAPES = {
    "5way_1shot": (5, 25),
    "20way_5shot": (100, 100),
    "past_64k": (4096, 64),
}
WORD_LENGTH = 64

RNG = np.random.default_rng(20260727)


def _programmed_mcam(rows: int) -> MCAMArray:
    array = MCAMArray(num_cells=WORD_LENGTH, bits=3)
    array.write(RNG.integers(0, 8, size=(rows, WORD_LENGTH)))
    return array


def _mcam_kernel(array: MCAMArray, kernel: str, queries: np.ndarray) -> np.ndarray:
    """One conductance kernel called directly; ``"auto"`` is the public path."""
    if kernel == "auto":
        return array.row_conductances_batch(queries)
    implementation = getattr(array, f"_{kernel}_conductances")
    return implementation(array._profiles_by_cell(), queries)


class TestMCAMKernelParity:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kernel", ("fused", "blocked", "auto"))
    def test_every_kernel_bitwise_identical_to_dense(self, shape, kernel):
        rows, num_queries = SHAPES[shape]
        array = _programmed_mcam(rows)
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        reference = _mcam_kernel(array, "dense", queries)
        result = _mcam_kernel(array, kernel, queries)
        np.testing.assert_array_equal(reference, result)

    def test_blocked_kernel_handles_partial_trailing_block(self):
        # 20 cells with a 16-cell block: the second take gathers 4 cells.
        array = MCAMArray(num_cells=20, bits=2)
        array.write(RNG.integers(0, 4, size=(37, 20)))
        queries = RNG.integers(0, 4, size=(11, 20))
        np.testing.assert_array_equal(
            _mcam_kernel(array, "dense", queries),
            _mcam_kernel(array, "blocked", queries),
        )

    def test_single_query_row_conductances_match_batch(self):
        array = _programmed_mcam(SHAPES["20way_5shot"][0])
        query = RNG.integers(0, 8, size=WORD_LENGTH)
        np.testing.assert_array_equal(
            array.row_conductances(query),
            _mcam_kernel(array, "blocked", query.reshape(1, -1))[0],
        )


class TestAutotunedSelection:
    def setup_method(self):
        clear_kernel_table()

    def teardown_method(self):
        clear_kernel_table()

    def _mcam_key(self, rows: int, num_queries: int) -> tuple:
        fused_eligible = (
            rows * num_queries * WORD_LENGTH <= MCAMArray._FUSED_CANDIDATE_MAX_ELEMENTS
        )
        return (
            "mcam",
            8,
            WORD_LENGTH,
            shape_bucket(rows),
            shape_bucket(num_queries),
            fused_eligible,
        )

    def test_tiny_episode_shape_selects_the_fused_kernel(self):
        # At 5 support rows the fused gather beats the 64-iteration dense
        # loop by several times; the margin is far wider than scheduling
        # noise, so the calibrated winner is stable.
        rows, num_queries = SHAPES["5way_1shot"]
        array = _programmed_mcam(rows)
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        array.row_conductances_batch(queries)
        assert kernel_table()[self._mcam_key(rows, num_queries)] == "fused"

    def test_huge_shapes_never_calibrate_the_fused_kernel(self):
        # Past _FUSED_CANDIDATE_MAX_ELEMENTS the fused gather is not even a
        # candidate: calibration must not allocate the full contribution
        # stack just to prove it loses.
        rows, num_queries = SHAPES["past_64k"]
        assert rows * num_queries * WORD_LENGTH > MCAMArray._FUSED_CANDIDATE_MAX_ELEMENTS
        array = _programmed_mcam(rows)
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        array.row_conductances_batch(queries)
        assert kernel_table()[self._mcam_key(rows, num_queries)] in ("blocked", "dense")

    def test_mid_size_shape_calibrates_all_three_kernels(self):
        rows, num_queries = SHAPES["20way_5shot"]
        array = _programmed_mcam(rows)
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        expected = _mcam_kernel(array, "dense", queries)
        np.testing.assert_array_equal(expected, array.row_conductances_batch(queries))
        # The winner is host-dependent (that is the point of measuring) but
        # it must be recorded, valid, and served from the table afterwards.
        key = self._mcam_key(rows, num_queries)
        winner = kernel_table()[key]
        assert winner in ("fused", "blocked", "dense")
        np.testing.assert_array_equal(expected, array.row_conductances_batch(queries))
        assert kernel_table()[key] == winner

    def test_straddling_bucket_keeps_separate_entries_per_eligibility(self):
        # rows 300 and 500 share bucket 9, queries 200 and 250 share bucket
        # 8, but only the smaller shape sits under the fused size guard: the
        # restricted calibration must not overwrite the full-candidate
        # winner (or vice versa) — eligibility is part of the key.
        eligible = (300, 200)
        ineligible = (500, 250)
        assert shape_bucket(eligible[0]) == shape_bucket(ineligible[0])
        assert shape_bucket(eligible[1]) == shape_bucket(ineligible[1])
        assert eligible[0] * eligible[1] * WORD_LENGTH <= MCAMArray._FUSED_CANDIDATE_MAX_ELEMENTS
        assert ineligible[0] * ineligible[1] * WORD_LENGTH > MCAMArray._FUSED_CANDIDATE_MAX_ELEMENTS

        for rows, num_queries in (eligible, ineligible):
            array = _programmed_mcam(rows)
            queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
            np.testing.assert_array_equal(
                _mcam_kernel(array, "dense", queries), array.row_conductances_batch(queries)
            )
        table = kernel_table()
        assert self._mcam_key(*eligible) in table
        assert self._mcam_key(*ineligible) in table
        assert self._mcam_key(*eligible) != self._mcam_key(*ineligible)
        assert table[self._mcam_key(*ineligible)] in ("blocked", "dense")

    def test_tcam_hamming_never_calibrates(self):
        rows, num_queries = SHAPES["5way_1shot"]
        tcam = TCAMArray(num_cells=WORD_LENGTH)
        tcam.write(RNG.integers(0, 2, size=(rows, WORD_LENGTH)))
        queries = RNG.integers(0, 2, size=(num_queries, WORD_LENGTH))
        np.testing.assert_array_equal(
            tcam._matmul_hamming(queries), tcam.hamming_distances_batch(queries)
        )
        assert kernel_table() == {}

    def test_empty_batch_does_not_pollute_the_table(self):
        array = _programmed_mcam(8)
        empty = array.row_conductances_batch(np.empty((0, WORD_LENGTH), dtype=np.int64))
        assert empty.shape == (0, 8)
        assert kernel_table() == {}

    def test_calibration_returns_the_winning_result(self):
        calls = []
        key = ("test-family", 1)
        name, result = select_kernel(
            key, {"a": lambda: calls.append("a") or "ra", "b": lambda: calls.append("b") or "rb"}
        )
        assert name in ("a", "b")
        assert result == {"a": "ra", "b": "rb"}[name]
        assert "a" in calls and "b" in calls
        # Table hit: nothing re-runs, the caller dispatches itself.
        name_again, cached = select_kernel(key, {"a": lambda: "ra", "b": lambda: "rb"})
        assert name_again == name and cached is None


class TestKernelOverrides:
    def setup_method(self):
        clear_kernel_table()

    def teardown_method(self):
        clear_kernel_table()

    @pytest.mark.parametrize("kernel", ("fused", "blocked", "dense"))
    def test_explicit_kernel_wins_over_the_tuned_table(self, kernel, monkeypatch):
        """Regression: a directly called kernel must bypass the table entirely.

        The parity asserts above call the private kernels; one that consulted
        the table would compare the table's winner with itself.
        """
        from repro.circuits import autotune

        rows, num_queries = SHAPES["20way_5shot"]
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))

        # Poison the table with a contradictory winner; an explicit call that
        # consulted it would dispatch there instead.
        contradictory = {"fused": "dense", "blocked": "dense", "dense": "fused"}[kernel]
        key = ("mcam", 8, WORD_LENGTH, shape_bucket(rows), shape_bucket(num_queries), True)
        monkeypatch.setitem(autotune._KERNEL_TABLE, key, contradictory)

        array = _programmed_mcam(rows)
        ran = []
        for name in ("fused", "blocked", "dense"):
            implementation = getattr(MCAMArray, f"_{name}_conductances")

            def spy(self, by_cell, q, _name=name, _impl=implementation):
                ran.append(_name)
                return _impl(self, by_cell, q)

            monkeypatch.setattr(MCAMArray, implementation.__name__, spy)
        explicit = _mcam_kernel(array, kernel, queries)
        assert ran == [kernel]
        ran.clear()
        # The public path follows the table, its only kernel selector.
        np.testing.assert_array_equal(explicit, array.row_conductances_batch(queries))
        assert ran == [contradictory]

    def test_invalid_kernel_rejected_everywhere(self, monkeypatch):
        """A table entry naming no candidate is recalibrated, never dispatched."""
        from repro.circuits import autotune

        rows, num_queries = SHAPES["5way_1shot"]
        array = _programmed_mcam(rows)
        mcam_queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        mcam_key = ("mcam", 8, WORD_LENGTH, shape_bucket(rows), shape_bucket(num_queries), True)

        # The table slot names a kernel that is not an MCAM candidate.
        monkeypatch.setitem(autotune._KERNEL_TABLE, mcam_key, "matmul")
        np.testing.assert_array_equal(
            _mcam_kernel(array, "dense", mcam_queries),
            array.row_conductances_batch(mcam_queries),
        )
        assert kernel_table()[mcam_key] in ("fused", "blocked", "dense")


class TestShapeBucket:
    def test_buckets_are_ceil_log2(self):
        assert [shape_bucket(n) for n in (0, 1, 2, 3, 4, 5, 64, 65)] == [
            0,
            0,
            1,
            2,
            2,
            3,
            6,
            7,
        ]
