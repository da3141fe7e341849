"""MCAM conductance kernels: bitwise parity and the static size rule.

Kernel choice changes *where the time goes*, never *what is computed*.
These tests pin the fused LUT gather and the public path bitwise against
the dense per-cell accumulation — at the 5-way 1-shot episode, the 20-way
5-shot episode and a store past the fused bound, on a 2-bit array, on a
20-cell word, on one-row arrays and on a device-mode array programmed under
Vth variation — and pin that a directly called kernel runs only itself,
while the public path runs exactly one kernel, chosen by the size of this
call alone: at the bound, one row past it and at the shapes the README's
rule table lists.  The rule's third band, the screened top-k, is pinned
at the README's shapes, and never runs behind a non-ideal sense amplifier;
its float32 estimates keep the true top-k through underflow, and it builds
no float64 table.  The TCAM has a single Hamming kernel, the exact affine
matmul.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import ConductanceLUT, MatchLineModel, MCAMArray, TCAMArray
from repro.circuits.autotune import clear_kernel_table
from repro.circuits.sense_amplifier import TimeDomainSenseAmplifier
from repro.core import MCAMSearcher
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


def _spy_on_ranking(monkeypatch) -> list:
    """Record every conductance kernel and every screened top-k that runs."""
    ran = _spy_on_kernels(monkeypatch)
    screen = MCAMArray.screened_top_k

    def spy(self, queries, k):
        ran.append("screen")
        return screen(self, queries, k)

    monkeypatch.setattr(MCAMArray, "screened_top_k", spy)
    return ran


def _fitted_searcher(rows: int, **config) -> MCAMSearcher:
    features = RNG.normal(size=(rows, WORD_LENGTH))
    return MCAMSearcher(bits=3, seed=3, **config).fit(features, np.arange(rows))


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

    def test_one_row_array_matches_dense(self):
        """Regression: one query against one row summed its cells pairwise.

        With a single ``(query, row)`` pair, ``np.add.reduce`` over the cell
        axis of the fused stack reduced that contiguous axis pairwise, and
        the fused kernel's last bits differed from the cell-order loop.
        """
        rng = np.random.default_rng(114)
        for _ in range(100):
            cells = int(rng.integers(9, 80))
            bits = int(rng.choice((2, 3)))
            array = MCAMArray(num_cells=cells, bits=bits)
            array.write(rng.integers(0, 2**bits, size=(1, cells)))
            queries = rng.integers(0, 2**bits, size=(int(rng.integers(1, 4)), cells))
            reference = _mcam_kernel(array, "dense", queries)
            assert reference.tobytes() == _mcam_kernel(array, "fused", queries).tobytes()
            assert reference.tobytes() == _mcam_kernel(array, "auto", queries).tobytes()

    def test_single_survivor_is_summed_in_cell_order(self):
        # One query whose nearest row is unique leaves one survivor to
        # re-sum: the one-value-per-cell shape that numpy sums pairwise.
        rng = np.random.default_rng(40)
        for _ in range(50):
            array = _programmed_mcam(int(rng.integers(1, 40)))
            query = rng.integers(0, 8, size=(1, WORD_LENGTH))
            conductances = _mcam_kernel(array, "dense", query)
            if np.count_nonzero(conductances == conductances.min()) > 1:
                continue
            indices, scores = array.screened_top_k(query, 1)
            assert indices[0, 0] == np.argmin(conductances)
            assert scores.tobytes() == conductances.min(axis=1).tobytes()

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

    #: The README's screen table, plus the 5-way episode and the k bound at
    #: 1024 rows: (rows, queries, k) -> what ranks an ideal top-k, the
    #: screen or the full-matrix kernel of the size rule.  The screen takes
    #: any batch size, on both sides of its estimate kernels' crossover.
    @pytest.mark.parametrize(
        ("rows", "num_queries", "k", "ranking"),
        (
            (5, 25, 1, "fused"),
            (100, 100, 1, "dense"),
            (100, 100, 32, "dense"),
            (512, 32, 1, "dense"),
            (1024, 1, 1, "screen"),
            (1024, 24, 1, "screen"),
            (1024, 32, 16, "screen"),
            (1024, 32, 32, "dense"),
            (2048, 32, 32, "screen"),
            (4096, 1, 32, "screen"),
            (4096, 4, 5, "screen"),
            (4096, 7, 32, "screen"),
            (4096, 8, 32, "screen"),
            (4096, 16, 32, "screen"),
            (4096, 24, 32, "screen"),
            (4096, 32, 1, "screen"),
            (4096, 32, 5, "screen"),
            (4096, 32, 32, "screen"),
            (4096, 32, 64, "screen"),
            (4096, 32, 128, "dense"),
        ),
    )
    def test_rule_picks_the_documented_ranking(self, rows, num_queries, k, ranking, monkeypatch):
        searcher = _fitted_searcher(rows)
        queries = RNG.normal(size=(num_queries, WORD_LENGTH))
        states = searcher.quantizer.quantize(queries)
        conductances = _mcam_kernel(searcher.array, "dense", states)
        reference = np.argsort(conductances, axis=1, kind="stable")[:, :k]
        ran = _spy_on_ranking(monkeypatch)
        indices, scores = searcher.kneighbors_arrays(queries, k=k)
        assert ran == [ranking]
        np.testing.assert_array_equal(indices, reference)
        expected = np.take_along_axis(conductances, reference, axis=1)
        assert scores.tobytes() == expected.tobytes()

    def test_non_ideal_sensing_never_takes_the_screen(self, monkeypatch):
        # The same in-band shape as above, behind a noisy time-domain sense
        # amplifier: it senses every row, so the full matrix must be built.
        amplifier = TimeDomainSenseAmplifier(
            MatchLineModel(num_cells=WORD_LENGTH), timing_noise_sigma_s=1e-12
        )
        searcher = _fitted_searcher(4096, sense_amplifier=amplifier)
        assert searcher.array.in_screen_band(5)
        queries = RNG.normal(size=(32, WORD_LENGTH))
        ran = _spy_on_ranking(monkeypatch)
        indices, _ = searcher.kneighbors_arrays(queries, k=5, rng=1)
        assert ran == ["dense"]
        assert indices.shape == (32, 5)


class TestFloat32Screen:
    """The screen's float32 estimates: their margin, and the tables they need."""

    @pytest.mark.parametrize("copies", (1, MCAMArray._SCREEN_PRODUCT_MIN_QUERIES))
    def test_underflowing_estimates_keep_the_nearest_row(self, copies):
        """Regression: a relative-only float32 margin dropped the nearest row.

        Input 0's conductances are float32 subnormals, which round to 8, 7,
        7 and 100 units of ``2**-149``.  Rows (0, 1) and (2, 2) then
        estimate 15 and 14 units, although their exact sums order them
        2.0753e-44 < 2.0991e-44; only the absolute term of the margin keeps
        row 0.  One copy of the query runs the summed gather, eight the
        BLAS product.
        """
        table = np.full((4, 4), 1e-6)
        table[0] = np.array([7.51, 7.3, 7.49, 100.0]) * 2.0**-149
        assert (table[0].astype(np.float32) / np.float32(2.0**-149)).tolist() == [8, 7, 7, 100]
        array = MCAMArray(num_cells=2, bits=2, lut=ConductanceLUT(table_s=table, bits=2))
        array.write(np.array([[0, 1], [2, 2], [3, 3]]))
        queries = np.zeros((copies, 2), dtype=np.int64)
        conductances = array.row_conductances_batch(queries)
        assert conductances[0, 0] < conductances[0, 1]
        indices, scores = array.screened_top_k(queries, 1)
        assert indices.tolist() == [[0]] * copies
        assert scores.tobytes() == conductances[:, :1].tobytes()

    def test_empty_batch_returns_no_rows(self):
        searcher = _fitted_searcher(1024)
        assert searcher.array.in_screen_band(5)
        empty = np.empty((0, WORD_LENGTH), dtype=np.int64)
        for indices, scores in (
            searcher.array.screened_top_k(empty, 5),
            searcher.kneighbors_arrays(empty.astype(float), k=5),
        ):
            assert indices.shape == scores.shape == (0, 5)

    def test_in_band_top_k_builds_no_float64_table(self):
        searcher = _fitted_searcher(4096)
        for num_queries in (1, 32):
            searcher.kneighbors_arrays(RNG.normal(size=(num_queries, WORD_LENGTH)), k=32)
        assert searcher.array._by_cell_profiles is None
        assert searcher.array._by_cell_estimates.dtype == np.float32


class TestByCellTableBuild:
    """Look-up-table mode builds its search tables one input state at a time."""

    @pytest.mark.parametrize("rows", (1, 5, 100, 4096))
    @pytest.mark.parametrize("bits", (2, 3))
    def test_tables_equal_the_transposed_gather(self, bits, rows):
        array = _programmed_mcam(rows, bits=bits)
        for name, dtype in MCAMArray._BY_CELL_TABLES:
            lut = array.lut.table_s.astype(dtype)
            expected = np.ascontiguousarray(
                lut[:, array._stored_states.T].transpose(1, 0, 2), dtype=dtype
            )
            table = array._by_cell_table(name)
            assert table.dtype == dtype and table.flags.c_contiguous
            assert table.shape == expected.shape == (WORD_LENGTH, 2**bits, rows)
            assert table.tobytes() == expected.tobytes()
