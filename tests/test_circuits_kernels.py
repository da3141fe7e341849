"""MCAM conductance kernels: bitwise parity and the static size rule.

Kernel choice changes *where the time goes*, never *what is computed*.
These tests pin the fused LUT gather and the public path bitwise against
the dense per-cell accumulation — at the 5-way 1-shot episode, the 20-way
5-shot episode and a store past the fused bound, on a 2-bit array, on a
20-cell word and on a device-mode array programmed under Vth variation —
and pin that a directly called kernel runs only itself, while the public path
runs exactly one kernel, chosen by the size of this call alone: at the
bound, one row past it and at the shapes the README's rule table lists.
The TCAM has a single Hamming kernel, the exact affine matmul.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import MCAMArray, TCAMArray
from repro.circuits.autotune import clear_kernel_table
from repro.devices.variation import GaussianVthVariationModel

#: Parity inputs: (stored rows, queries, bits, Vth sigma in volts), 64-cell
#: words.  5-way 1-shot (5 support rows, 25 queries), 20-way 5-shot (100
#: rows, 100 queries), a store far past the fused bound, a 2-bit array at
#: the 20-way 1-shot shape, and a device-mode array programmed under
#: sigma = 50 mV at the 5-way 5-shot shape.
CASES = {
    "5way_1shot": (5, 25, 3, 0.0),
    "20way_5shot": (100, 100, 3, 0.0),
    "past_fused_bound": (4096, 64, 3, 0.0),
    "2bit_20way_1shot": (20, 100, 2, 0.0),
    "vth50mV_5way_5shot": (25, 25, 3, 0.05),
}
WORD_LENGTH = 64

RNG = np.random.default_rng(20260727)


def _programmed_mcam(rows: int, bits: int = 3, sigma_v: float = 0.0) -> MCAMArray:
    variation = GaussianVthVariationModel(sigma_v=sigma_v) if sigma_v else None
    array = MCAMArray(num_cells=WORD_LENGTH, bits=bits, variation=variation)
    array.write(RNG.integers(0, 2**bits, size=(rows, WORD_LENGTH)), rng=7)
    return array


def _mcam_kernel(array: MCAMArray, kernel: str, queries: np.ndarray) -> np.ndarray:
    """One conductance kernel called directly; ``"auto"`` is the public path."""
    if kernel == "auto":
        return array.row_conductances_batch(queries)
    implementation = getattr(array, f"_{kernel}_conductances")
    return implementation(array._profiles_by_cell(), queries)


def _spy_on_kernels(monkeypatch) -> list:
    """Record the name of every MCAM kernel that runs, in call order."""
    ran = []
    for name in ("fused", "dense"):
        implementation = getattr(MCAMArray, f"_{name}_conductances")

        def spy(self, by_cell, queries, _name=name, _impl=implementation):
            ran.append(_name)
            return _impl(self, by_cell, queries)

        monkeypatch.setattr(MCAMArray, implementation.__name__, spy)
    return ran


class TestMCAMKernelParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kernel", ("fused", "auto"))
    def test_every_kernel_bitwise_identical_to_dense(self, case, kernel):
        rows, num_queries, bits, sigma_v = CASES[case]
        array = _programmed_mcam(rows, bits, sigma_v)
        queries = RNG.integers(0, 2**bits, size=(num_queries, WORD_LENGTH))
        reference = _mcam_kernel(array, "dense", queries)
        result = _mcam_kernel(array, kernel, queries)
        np.testing.assert_array_equal(reference, result)

    @pytest.mark.parametrize("kernel", ("fused", "auto"))
    def test_odd_word_length_matches_dense(self, kernel):
        # 20 cells, 2-bit: no kernel may assume a 64-cell word.
        array = MCAMArray(num_cells=20, bits=2)
        array.write(RNG.integers(0, 4, size=(37, 20)))
        queries = RNG.integers(0, 4, size=(11, 20))
        np.testing.assert_array_equal(
            _mcam_kernel(array, "dense", queries),
            _mcam_kernel(array, kernel, queries),
        )

    @pytest.mark.parametrize(
        ("kernel", "case"), (("fused", "past_fused_bound"), ("dense", "5way_1shot"))
    )
    def test_direct_kernel_call_runs_only_itself(self, kernel, case, monkeypatch):
        """Regression: a directly called kernel must never re-dispatch.

        The parity asserts above call the private kernels at shapes where
        the rule picks the other one; a kernel that consulted the rule
        would compare the rule's pick with itself.
        """
        rows, num_queries, bits, sigma_v = CASES[case]
        array = _programmed_mcam(rows, bits, sigma_v)
        queries = RNG.integers(0, 2**bits, size=(num_queries, WORD_LENGTH))
        ran = _spy_on_kernels(monkeypatch)
        _mcam_kernel(array, kernel, queries)
        assert ran == [kernel]

    def test_single_query_row_conductances_match_batch(self):
        array = _programmed_mcam(CASES["20way_5shot"][0])
        query = RNG.integers(0, 8, size=WORD_LENGTH)
        np.testing.assert_array_equal(
            array.row_conductances(query),
            _mcam_kernel(array, "dense", query.reshape(1, -1))[0],
        )

    def test_tcam_hamming_matches_the_matmul_kernel(self):
        rows, num_queries = CASES["5way_1shot"][:2]
        tcam = TCAMArray(num_cells=WORD_LENGTH)
        tcam.write(RNG.integers(0, 2, size=(rows, WORD_LENGTH)))
        queries = RNG.integers(0, 2, size=(num_queries, WORD_LENGTH))
        np.testing.assert_array_equal(
            tcam._matmul_hamming(queries), tcam.hamming_distances_batch(queries)
        )


class TestStaticKernelRule:
    @pytest.mark.parametrize(("rows", "kernel"), ((4096, "fused"), (4097, "dense")))
    def test_public_path_runs_exactly_one_kernel(self, rows, kernel, monkeypatch):
        # One 64-cell query against 4096 rows sits exactly on the fused
        # bound; one more row crosses it.
        assert WORD_LENGTH * 4096 == MCAMArray._FUSED_MAX_ELEMENTS
        array = _programmed_mcam(rows)
        query = RNG.integers(0, 8, size=(1, WORD_LENGTH))
        reference = _mcam_kernel(array, "dense", query)
        ran = _spy_on_kernels(monkeypatch)
        result = array.row_conductances_batch(query)
        assert ran == [kernel]
        np.testing.assert_array_equal(reference, result)

    #: The README's rule table, (rows, queries) -> kernel, 64-cell 3-bit
    #: words; its 4096 x 1 row is the bound case above.
    @pytest.mark.parametrize(
        ("rows", "num_queries", "kernel"),
        (
            (5, 25, "fused"),
            (20, 100, "fused"),
            (64, 64, "fused"),
            (100, 100, "dense"),
            (4096, 32, "dense"),
        ),
    )
    def test_rule_picks_the_documented_kernel(self, rows, num_queries, kernel, monkeypatch):
        array = _programmed_mcam(rows)
        queries = RNG.integers(0, 8, size=(num_queries, WORD_LENGTH))
        reference = _mcam_kernel(array, "dense", queries)
        ran = _spy_on_kernels(monkeypatch)
        result = array.row_conductances_batch(queries)
        assert ran == [kernel]
        np.testing.assert_array_equal(reference, result)

    def test_choice_depends_on_this_call_alone(self, monkeypatch):
        # 64 and 65 queries against 64 rows straddle the bound: alternating
        # them must alternate the kernel, so no earlier call steers a later
        # one and no process-global state is left behind.
        array = _programmed_mcam(64)
        batches = [RNG.integers(0, 8, size=(n, WORD_LENGTH)) for n in (64, 65, 64, 65)]
        references = [_mcam_kernel(array, "dense", batch) for batch in batches]
        ran = _spy_on_kernels(monkeypatch)
        for batch, reference in zip(batches, references):
            np.testing.assert_array_equal(reference, array.row_conductances_batch(batch))
        assert ran == ["fused", "dense", "fused", "dense"]

    def test_clear_kernel_table_is_a_no_op(self, monkeypatch):
        # Kept only for callers of the retired autotuner; clearing must not
        # change which kernel runs or what it returns.
        array = _programmed_mcam(5)
        queries = RNG.integers(0, 8, size=(25, WORD_LENGTH))
        before = array.row_conductances_batch(queries)
        ran = _spy_on_kernels(monkeypatch)
        assert clear_kernel_table() is None
        np.testing.assert_array_equal(before, array.row_conductances_batch(queries))
        assert ran == ["fused"]

    def test_empty_batch_returns_no_rows(self):
        array = _programmed_mcam(8)
        empty = array.row_conductances_batch(np.empty((0, WORD_LENGTH), dtype=np.int64))
        assert empty.shape == (0, 8)
