"""Delta reprogramming, device-mode programming and the batched search kernels.

Covers the incremental write path on :class:`MCAMArray` and
:class:`TCAMArray` — changed-row detection,
delta-equals-full equality under fixed seeds, cache consistency across
grow/shrink refits — the batched device-mode programming path against a
frozen copy of the per-row loop it replaced, and the kernel rewrites behind
batched search: the fused LUT gather (bitwise identical to the per-cell
accumulation for single queries and large batches alike) and the exact
matmul Hamming kernel.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.circuits import mcam_array
from repro.circuits.mcam_array import MCAMArray
from repro.circuits.mcam_cell import ML_PRECHARGE_V, MCAMVoltageScheme
from repro.circuits.tcam import DONT_CARE, TCAMArray
from repro.core.search import MCAMSearcher, TCAMLSHSearcher
from repro.devices.fefet import FeFETParameters, _drain_current_from_overdrive, clip_vth
from repro.devices.variation import DomainSwitchingVariationModel, GaussianVthVariationModel
from repro.exceptions import CapacityError, CircuitError

RNG = np.random.default_rng(2024)


def _frozen_cell_profiles(states, scheme, device, variation, generator):
    """Device programming of a flat vector of cells, frozen as first shipped.

    An inlined copy of the original ``program_cell_profiles`` body (voltage
    grid, V_th draws in DL then DL-bar order, clip, EKV currents), so a
    refactor of the library's programming path cannot move this reference.
    """
    ml_voltage_v = ML_PRECHARGE_V
    n = scheme.num_states
    grid = np.linspace(scheme.window_low_v, scheme.window_high_v, n + 1)
    vth_dl = grid[states + 1]
    vth_dlbar = 2.0 * scheme.center_v - grid[states]
    vth_dl = clip_vth(np.asarray(variation.sample_vth(vth_dl, generator), dtype=np.float64), device)
    vth_dlbar = clip_vth(
        np.asarray(variation.sample_vth(vth_dlbar, generator), dtype=np.float64), device
    )
    inputs = np.array([0.5 * (float(grid[s]) + float(grid[s + 1])) for s in range(n)])
    inputs_bar = 2.0 * scheme.center_v - inputs
    overdrive_dl = inputs[np.newaxis, :] - vth_dl[:, np.newaxis]
    overdrive_dlbar = inputs_bar[np.newaxis, :] - vth_dlbar[:, np.newaxis]
    current = _drain_current_from_overdrive(
        overdrive_dl, ml_voltage_v, device
    ) + _drain_current_from_overdrive(overdrive_dlbar, ml_voltage_v, device)
    return np.asarray(current) / ml_voltage_v


def _frozen_row_keyed_profiles(entries, variation, base_seed, bits):
    """The original per-row reprogram loop: one keyed stream per row."""
    scheme, device = MCAMVoltageScheme(bits=bits), FeFETParameters()
    return np.stack(
        [
            _frozen_cell_profiles(
                np.asarray(entries[row], dtype=np.int64),
                scheme,
                device,
                variation,
                np.random.default_rng([0x52455052, base_seed, row]),
            )
            for row in range(entries.shape[0])
        ]
    )


#: The variation models the frozen-reference parity covers: no spread, the
#: Fig. 7/8 Gaussian, a spread wide enough to hit ``clip_vth``, and the
#: binomial domain-switching model.
FROZEN_VARIATIONS = {
    "gauss0": GaussianVthVariationModel(sigma_v=0.0),
    "gauss50mV": GaussianVthVariationModel(sigma_v=0.05),
    "gauss300mV": GaussianVthVariationModel(sigma_v=0.3),
    "domains": DomainSwitchingVariationModel(),
}


@pytest.mark.parametrize("cells", (1, 7, 64))
@pytest.mark.parametrize("bits", (2, 3))
@pytest.mark.parametrize("variation", sorted(FROZEN_VARIATIONS))
class TestBatchedProgrammingMatchesFrozenReference:
    """Device-mode writes are bitwise identical to the per-row reference."""

    ROWS = 12

    def _case(self, variation, bits, cells):
        rng = np.random.default_rng([bits, cells, sorted(FROZEN_VARIATIONS).index(variation)])
        states = rng.integers(0, 2**bits, size=(self.ROWS, cells))
        seed = int(rng.integers(2**31 - 1))
        return FROZEN_VARIATIONS[variation], states, seed

    def test_write(self, variation, bits, cells):
        model, states, seed = self._case(variation, bits, cells)
        array = MCAMArray(num_cells=cells, bits=bits, variation=model)
        array.write(states, rng=seed)
        reference = _frozen_cell_profiles(
            states.reshape(-1),
            MCAMVoltageScheme(bits=bits),
            FeFETParameters(),
            model,
            np.random.default_rng(seed),
        ).reshape(states.shape + (2**bits,))
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_full_reprogram(self, variation, bits, cells):
        model, states, seed = self._case(variation, bits, cells)
        array = MCAMArray(num_cells=cells, bits=bits, variation=model)
        array.reprogram(states, rng=seed)
        reference = _frozen_row_keyed_profiles(states, model, seed, bits)
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_delta_reprogram(self, variation, bits, cells):
        model, states, seed = self._case(variation, bits, cells)
        array = MCAMArray(num_cells=cells, bits=bits, variation=model)
        array.reprogram(states, rng=seed)
        mutated = states.copy()
        mutated[::3] = (mutated[::3] + 1) % 2**bits
        changed = array.reprogram(mutated, rng=seed)
        np.testing.assert_array_equal(changed, np.arange(0, self.ROWS, 3))
        reference = _frozen_row_keyed_profiles(mutated, model, seed, bits)
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_append(self, variation, bits, cells):
        model, states, seed = self._case(variation, bits, cells)
        array = MCAMArray(num_cells=cells, bits=bits, variation=model)
        array.reprogram(states[:7], rng=seed)
        array.append(states[7:], rng=seed)
        reference = _frozen_row_keyed_profiles(states, model, seed, bits)
        assert array.row_profiles().tobytes() == reference.tobytes()


def test_frozen_reference_wide_spread_exercises_the_clip():
    # The 300 mV case only pins clip_vth if some draw actually saturates.
    device = FeFETParameters()
    generator = np.random.default_rng([0x52455052, 1, 0])
    nominal = MCAMVoltageScheme(bits=3).level_grid_v[np.arange(1, 9).repeat(8)]
    raw = FROZEN_VARIATIONS["gauss300mV"].sample_vth(nominal, generator)
    assert np.any(clip_vth(raw, device) != raw)


@pytest.mark.parametrize("sigma_v", (0.0, 0.05, 0.3))
def test_gaussian_sample_vth_is_nominal_plus_one_normal_draw(sigma_v):
    # _frozen_cell_profiles samples through the library's sample_vth, so pin
    # that draw here: a change to it must not move the reference with it.
    model = GaussianVthVariationModel(sigma_v=sigma_v)
    nominal = MCAMVoltageScheme(bits=3).level_grid_v[RNG.integers(1, 9, size=(3, 7))]
    for seed in (0, 41):
        got = model.sample_vth(nominal, np.random.default_rng(seed))
        want = nominal + np.random.default_rng(seed).normal(0.0, sigma_v, nominal.shape)
        assert got.tobytes() == want.tobytes()
        scalar = model.sample_vth(0.8, np.random.default_rng(seed))
        assert type(scalar) is float
        assert scalar == 0.8 + np.random.default_rng(seed).normal(0.0, sigma_v)


@pytest.mark.parametrize("sigma_v", (0.0, 0.05, 0.3))
@pytest.mark.parametrize("cells", (1, 7, 64))
def test_vth_offsets_are_a_rows_two_per_side_draws(sigma_v, cells):
    # Row-keyed programming draws a row's (DL, DL-bar) offsets in one call;
    # they must be the two consecutive per-side draws of the reference loop.
    model = GaussianVthVariationModel(sigma_v=sigma_v)
    generator = np.random.default_rng([0x52455052, 3, cells])
    want = np.stack([generator.normal(0.0, sigma_v, cells) for _ in range(2)])
    got = model.vth_offsets((2, cells), np.random.default_rng([0x52455052, 3, cells]))
    assert got.shape == (2, cells)
    assert got.tobytes() == want.tobytes()


class TestRowKeyedOffsetMemo:
    """Row-keyed V_th offsets are drawn once per (base seed, row), then reused."""

    VARIATION = GaussianVthVariationModel(sigma_v=0.05)

    @staticmethod
    def _generator_calls(monkeypatch):
        """Record every ``np.random.default_rng`` call of the array module."""
        calls = []
        construct = np.random.default_rng

        def spy(*args, **kwargs):
            calls.append(args)
            return construct(*args, **kwargs)

        monkeypatch.setattr(mcam_array.np.random, "default_rng", spy)
        return calls

    def test_a_first_reprogram_builds_only_the_row_keyed_generators(self, monkeypatch):
        # The empty array's nominal profiles draw nothing, so they build no
        # generator: 12 rows construct their 12 seeded streams and no more.
        states = RNG.integers(0, 8, size=(12, 16))
        array = MCAMArray(num_cells=16, bits=3, variation=self.VARIATION)
        calls = self._generator_calls(monkeypatch)
        array.reprogram(states, rng=11)
        assert len(calls) == 12 and all(calls)

    def test_a_second_full_reprogram_draws_no_row_again(self, monkeypatch):
        states = RNG.integers(0, 8, size=(12, 16))
        replaced = (states + 1) % 8  # every row changes
        array = MCAMArray(num_cells=16, bits=3, variation=self.VARIATION)
        array.reprogram(states, rng=11)
        calls = self._generator_calls(monkeypatch)
        changed = array.reprogram(replaced, rng=11)
        assert changed.size == 12 and calls == []
        reference = _frozen_row_keyed_profiles(replaced, self.VARIATION, 11, 3)
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_an_append_after_a_shrink_reuses_the_rows_it_dropped(self, monkeypatch):
        states = RNG.integers(0, 8, size=(12, 16))
        regrown = np.vstack([states[:9], (states[9:] + 3) % 8])
        array = MCAMArray(num_cells=16, bits=3, variation=self.VARIATION)
        array.reprogram(states, rng=11)
        array.reprogram(states[:9], rng=11)
        calls = self._generator_calls(monkeypatch)
        array.append(regrown[9:], rng=11)
        assert calls == []  # rows 9-11 are still in the memo
        reference = _frozen_row_keyed_profiles(regrown, self.VARIATION, 11, 3)
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_a_new_base_seed_replaces_the_memo(self):
        states = RNG.integers(0, 4, size=(12, 7))
        replaced = (states + 1) % 4
        array = MCAMArray(num_cells=7, bits=2, variation=self.VARIATION)
        array.reprogram(states, rng=11)
        array.reprogram(replaced, rng=12)
        reference = _frozen_row_keyed_profiles(replaced, self.VARIATION, 12, 2)
        assert array.row_profiles().tobytes() == reference.tobytes()
        assert array._row_offsets.base_seed == 12

    def test_state_dependent_models_are_not_memoized(self, monkeypatch):
        # Domain switching draws a binomial of the stored state: every
        # programming samples its rows again, from their keyed streams.
        model = FROZEN_VARIATIONS["domains"]
        states = RNG.integers(0, 8, size=(6, 5))
        array = MCAMArray(num_cells=5, bits=3, variation=model)
        array.reprogram(states, rng=11)
        calls = self._generator_calls(monkeypatch)
        array.reprogram((states + 1) % 8, rng=11)
        assert len(calls) == 6 and array._row_offsets is None


def _loop_conductances(array: MCAMArray, queries: np.ndarray) -> np.ndarray:
    """The seed per-cell accumulation, as a reference for the fused kernel."""
    by_cell = array._profiles_by_cell()
    out = np.zeros((queries.shape[0], array.num_rows))
    for cell in range(array.num_cells):
        out += by_cell[cell][queries[:, cell]]
    return out


def _mask_hamming(array: TCAMArray, queries: np.ndarray) -> np.ndarray:
    """The seed boolean-mismatch evaluation, as a reference for the matmul."""
    care = array.stored_bits != DONT_CARE
    mismatches = (array.stored_bits[np.newaxis] != queries[:, np.newaxis]) & care[np.newaxis]
    return mismatches.sum(axis=2)


class TestFusedConductanceKernel:
    @pytest.mark.parametrize(
        "rows,cells,queries",
        [
            (5, 64, 25),  # 5-way 1-shot episode shape: fused gather
            (25, 64, 25),  # 5-way 5-shot: fused gather
            (100, 64, 100),  # 20-way 5-shot: streaming accumulation
            (600, 32, 64),  # large store: streaming accumulation
        ],
    )
    def test_bitwise_identical_to_per_cell_loop(self, rows, cells, queries):
        array = MCAMArray(num_cells=cells, bits=3)
        array.write(RNG.integers(0, 8, size=(rows, cells)))
        batch = RNG.integers(0, 8, size=(queries, cells))
        np.testing.assert_array_equal(
            array.row_conductances_batch(batch), _loop_conductances(array, batch)
        )

    def test_kernel_choice_does_not_depend_on_batch_size(self):
        # A single query rides the fused gather while the big batch streams;
        # identical reduction order keeps them bitwise consistent.
        array = MCAMArray(num_cells=48, bits=3)
        array.write(RNG.integers(0, 8, size=(40, 48)))
        batch = RNG.integers(0, 8, size=(64, 48))
        full = array.row_conductances_batch(batch)
        singles = np.stack([array.row_conductances(q) for q in batch])
        np.testing.assert_array_equal(full, singles)

    def test_device_mode_uses_the_same_kernels(self):
        array = MCAMArray(
            num_cells=16, bits=2, variation=GaussianVthVariationModel(sigma_v=0.05)
        )
        array.write(RNG.integers(0, 4, size=(12, 16)), rng=5)
        batch = RNG.integers(0, 4, size=(7, 16))
        np.testing.assert_array_equal(
            array.row_conductances_batch(batch), _loop_conductances(array, batch)
        )

    def test_empty_batch(self):
        array = MCAMArray(num_cells=8, bits=2)
        array.write(RNG.integers(0, 4, size=(3, 8)))
        assert array.row_conductances_batch(np.empty((0, 8), dtype=int)).shape == (0, 3)


class TestMatmulHammingKernel:
    @pytest.mark.parametrize("wildcards", (0.0, 0.2))
    @pytest.mark.parametrize("rows,queries", [(20, 100), (500, 33)])
    def test_bitwise_identical_to_mismatch_masks(self, wildcards, rows, queries):
        tcam = TCAMArray(num_cells=32)
        stored = RNG.integers(0, 2, size=(rows, 32))
        stored[RNG.random(stored.shape) < wildcards] = DONT_CARE
        tcam.write(stored)
        batch = RNG.integers(0, 2, size=(queries, 32))
        distances = tcam.hamming_distances_batch(batch)
        assert distances.dtype == np.int64
        np.testing.assert_array_equal(distances, _mask_hamming(tcam, batch))

    def test_single_query_delegates_to_batch(self):
        tcam = TCAMArray(num_cells=16)
        tcam.write(RNG.integers(0, 2, size=(9, 16)))
        query = RNG.integers(0, 2, size=16)
        np.testing.assert_array_equal(
            tcam.hamming_distances(query),
            tcam.hamming_distances_batch(query.reshape(1, -1))[0],
        )

    def test_empty_store_and_empty_batch(self):
        tcam = TCAMArray(num_cells=8)
        assert tcam.hamming_distances_batch(np.zeros((4, 8), dtype=int)).shape == (4, 0)
        tcam.write(RNG.integers(0, 2, size=(3, 8)))
        assert tcam.hamming_distances_batch(np.empty((0, 8), dtype=int)).shape == (0, 3)


class TestMCAMReprogram:
    def test_lut_mode_matches_erase_and_rewrite(self):
        array = MCAMArray(num_cells=12, bits=3)
        first = RNG.integers(0, 8, size=(20, 12))
        array.write(first, labels=list(range(20)))
        queries = RNG.integers(0, 8, size=(6, 12))
        array.row_conductances_batch(queries)  # populate the search cache

        second = first.copy()
        second[[2, 11]] = RNG.integers(0, 8, size=(2, 12))
        changed = array.reprogram(second, labels=list(range(100, 120)))
        np.testing.assert_array_equal(changed, [2, 11])
        assert array.labels == list(range(100, 120))

        fresh = MCAMArray(num_cells=12, bits=3)
        fresh.write(second, labels=list(range(100, 120)))
        np.testing.assert_array_equal(
            array.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )

    @pytest.mark.parametrize("new_rows", (5, 20, 33))
    def test_grow_and_shrink_refits(self, new_rows):
        array = MCAMArray(num_cells=10, bits=2)
        array.write(RNG.integers(0, 4, size=(20, 10)))
        queries = RNG.integers(0, 4, size=(4, 10))
        array.row_conductances_batch(queries)
        target = RNG.integers(0, 4, size=(new_rows, 10))
        array.reprogram(target)
        assert array.num_rows == new_rows
        fresh = MCAMArray(num_cells=10, bits=2)
        fresh.write(target)
        np.testing.assert_array_equal(
            array.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )

    def test_device_mode_delta_equals_full_under_fixed_seed(self):
        variation = GaussianVthVariationModel(sigma_v=0.08)
        states = RNG.integers(0, 8, size=(15, 8))
        mutated = states.copy()
        mutated[[0, 7, 14]] = RNG.integers(0, 8, size=(3, 8))

        delta = MCAMArray(num_cells=8, bits=3, variation=variation)
        delta.reprogram(states, rng=55)
        delta.reprogram(mutated, rng=55)

        full = MCAMArray(num_cells=8, bits=3, variation=variation)
        full.reprogram(mutated, rng=55)

        np.testing.assert_array_equal(delta.row_profiles(), full.row_profiles())

    def test_device_mode_unchanged_rows_keep_profiles(self):
        variation = GaussianVthVariationModel(sigma_v=0.08)
        array = MCAMArray(num_cells=8, bits=3, variation=variation)
        states = RNG.integers(0, 8, size=(10, 8))
        array.reprogram(states, rng=1)
        before = array.row_profiles()
        mutated = states.copy()
        mutated[3] = (mutated[3] + 1) % 8
        changed = array.reprogram(mutated, rng=2)  # different seed
        np.testing.assert_array_equal(changed, [3])
        after = array.row_profiles()
        keep = [r for r in range(10) if r != 3]
        np.testing.assert_array_equal(before[keep], after[keep])
        assert not np.array_equal(before[3], after[3])

    def test_geometry_violations_rejected(self):
        array = MCAMArray(num_cells=6, bits=2, max_rows=4)
        with pytest.raises(CapacityError):
            array.reprogram(RNG.integers(0, 4, size=(5, 6)))
        with pytest.raises(CircuitError):
            array.reprogram(RNG.integers(0, 4, size=(3, 7)))
        with pytest.raises(CircuitError):
            array.reprogram(RNG.integers(0, 4, size=(3, 6)), labels=[1])


class TestVectorizedPredict:
    def test_mixed_label_store_predicts_when_winners_are_labeled(self):
        # Only a *winning* unlabeled row is an error, matching the semantics
        # of a per-query search loop.
        array = MCAMArray(num_cells=4, bits=2)
        array.write([[0, 0, 0, 0]], labels=[7])
        array.write([[3, 3, 3, 3]])  # unlabeled, far from the query below
        assert array.predict([[0, 0, 0, 1]]).tolist() == [7]
        with pytest.raises(CircuitError):
            array.predict([[3, 3, 3, 3]])

    def test_mixed_label_tcam_predicts_when_winners_are_labeled(self):
        tcam = TCAMArray(num_cells=4)
        tcam.write([[0, 0, 0, 0]], labels=[5])
        tcam.write([[1, 1, 1, 1]])  # unlabeled
        assert tcam.predict([[0, 0, 0, 1]]).tolist() == [5]
        with pytest.raises(CircuitError):
            tcam.predict([[1, 1, 1, 1]])


class TestTCAMReprogram:
    def test_matches_erase_and_rewrite(self):
        tcam = TCAMArray(num_cells=16)
        first = RNG.integers(0, 2, size=(25, 16))
        first[RNG.random(first.shape) < 0.1] = DONT_CARE
        tcam.write(first, labels=list(range(25)))
        queries = RNG.integers(0, 2, size=(5, 16))
        tcam.hamming_distances_batch(queries)  # populate the kernel cache

        second = first.copy()
        second[[4, 17]] = RNG.integers(0, 2, size=(2, 16))
        changed = tcam.reprogram(second, labels=list(range(200, 225)))
        np.testing.assert_array_equal(changed, [4, 17])
        assert tcam.labels == list(range(200, 225))

        fresh = TCAMArray(num_cells=16)
        fresh.write(second, labels=list(range(200, 225)))
        np.testing.assert_array_equal(
            tcam.hamming_distances_batch(queries), fresh.hamming_distances_batch(queries)
        )

    def test_grow_and_shrink_refits(self):
        tcam = TCAMArray(num_cells=8)
        tcam.write(RNG.integers(0, 2, size=(10, 8)))
        queries = RNG.integers(0, 2, size=(3, 8))
        tcam.hamming_distances_batch(queries)
        for new_rows in (4, 16):
            target = RNG.integers(0, 2, size=(new_rows, 8))
            tcam.reprogram(target)
            fresh = TCAMArray(num_cells=8)
            fresh.write(target)
            np.testing.assert_array_equal(
                tcam.hamming_distances_batch(queries),
                fresh.hamming_distances_batch(queries),
            )

    def test_invalid_rows_rejected(self):
        tcam = TCAMArray(num_cells=4, max_rows=3)
        with pytest.raises(CircuitError):
            tcam.reprogram([[0, 1, 2, 1]])
        with pytest.raises(CapacityError):
            tcam.reprogram(RNG.integers(0, 2, size=(4, 4)))


class TestSearcherRefits:
    def test_mcam_searcher_refit_matches_fresh_fit(self):
        rng = np.random.default_rng(5)
        first = rng.normal(size=(30, 12))
        second = rng.normal(size=(25, 12))
        queries = rng.normal(size=(6, 12))
        labels1 = rng.integers(0, 4, size=30)
        labels2 = rng.integers(0, 4, size=25)

        reused = MCAMSearcher(bits=3, seed=1)
        reused.fit(first, labels1)
        reused.kneighbors_batch(queries, k=2)
        reused.fit(second, labels2)

        fresh = MCAMSearcher(bits=3, seed=1)
        fresh.fit(second, labels2)

        a = reused.kneighbors_batch(queries, k=3)
        b = fresh.kneighbors_batch(queries, k=3)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_mcam_program_seed_makes_device_refits_order_independent(self):
        rng = np.random.default_rng(6)
        first = rng.normal(size=(10, 8))
        second = rng.normal(size=(10, 8))
        queries = rng.normal(size=(4, 8))
        labels = rng.integers(0, 3, size=10)
        variation = GaussianVthVariationModel(sigma_v=0.05)

        refitted = MCAMSearcher(bits=3, variation=variation, program_seed=44)
        refitted.fit(first, labels)
        refitted.fit(second, labels)

        direct = MCAMSearcher(bits=3, variation=variation, program_seed=44)
        direct.fit(second, labels)

        a = refitted.kneighbors_batch(queries, k=2)
        b = direct.kneighbors_batch(queries, k=2)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_tcam_searcher_refit_matches_fresh_fit(self):
        rng = np.random.default_rng(7)
        first = rng.normal(size=(30, 10))
        second = rng.normal(size=(22, 10))
        queries = rng.normal(size=(5, 10))
        labels1 = rng.integers(0, 4, size=30)
        labels2 = rng.integers(0, 4, size=22)

        reused = TCAMLSHSearcher(num_bits=16, seed=2)
        reused.fit(first, labels1)
        reused.kneighbors_batch(queries, k=2)
        reused.fit(second, labels2)

        fresh = TCAMLSHSearcher(num_bits=16, seed=2)
        fresh.fit(second, labels2)

        a = reused.kneighbors_batch(queries, k=3)
        b = fresh.kneighbors_batch(queries, k=3)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.scores, b.scores)



class TestArrayAppend:
    """``MCAMArray.append`` programs only the new rows, bitwise like a reprogram."""

    @pytest.mark.parametrize("bits", (2, 3))
    @pytest.mark.parametrize("warm_cache", (False, True))
    def test_lut_mode_append_matches_reprogram_of_the_grown_rows(self, bits, warm_cache):
        states = RNG.integers(0, 2**bits, size=(13, 6))
        queries = RNG.integers(0, 2**bits, size=(5, 6))
        array = MCAMArray(num_cells=6, bits=bits)
        array.reprogram(states[:5], labels=range(5))
        for start in range(5, 13, 3):
            if warm_cache:
                array.row_conductances_batch(queries)  # builds the by-cell cache
            stop = min(start + 3, 13)
            array.append(states[start:stop], labels=range(start, stop))
        if warm_cache:
            assert not array._by_cell_profiles.flags.c_contiguous  # spare rows behind it
        reference = MCAMArray(num_cells=6, bits=bits)
        reference.reprogram(states, labels=range(13))
        assert array.stored_states.tobytes() == reference.stored_states.tobytes()
        assert array.labels == reference.labels
        assert array.row_profiles().tobytes() == reference.row_profiles().tobytes()
        # Every kernel reads a grown cache (a view into its growth buffer)
        # exactly like a compact one: fused gather, dense loop and screen.
        expected = reference.row_conductances_batch(queries)
        np.testing.assert_array_equal(array.row_conductances_batch(queries), expected)
        dense = array._dense_conductances(array._profiles_by_cell(), queries)
        np.testing.assert_array_equal(dense, expected)
        screened = zip(array.screened_top_k(queries, 3), reference.screened_top_k(queries, 3))
        for got, want in screened:
            np.testing.assert_array_equal(got, want)

    def test_device_mode_append_draws_the_rows_a_reprogram_would(self):
        variation = GaussianVthVariationModel(sigma_v=0.08)
        states = RNG.integers(0, 8, size=(11, 8))
        queries = RNG.integers(0, 8, size=(3, 8))
        array = MCAMArray(num_cells=8, bits=3, variation=variation)
        array.reprogram(states[:6], rng=31)
        array.row_conductances_batch(queries)  # builds the by-cell cache
        array.append(states[6:9], rng=31)
        array.append(states[9:], rng=31)
        reference = MCAMArray(num_cells=8, bits=3, variation=variation)
        reference.reprogram(states, rng=31)
        assert array.row_profiles().tobytes() == reference.row_profiles().tobytes()
        np.testing.assert_array_equal(
            array.row_conductances_batch(queries), reference.row_conductances_batch(queries)
        )

    @pytest.mark.parametrize("variation", (None, GaussianVthVariationModel(sigma_v=0.08)))
    def test_appends_into_an_empty_array_program_like_a_reprogram(self, variation):
        states = RNG.integers(0, 4, size=(6, 5))
        queries = RNG.integers(0, 4, size=(3, 5))
        array = MCAMArray(num_cells=5, bits=2, variation=variation, max_rows=8)
        array.append(states[:4], labels=range(4), rng=31)
        array.append(states[4:], labels=range(4, 6), rng=31)
        assert (array.num_rows, array.remaining_rows) == (6, 2)
        reference = MCAMArray(num_cells=5, bits=2, variation=variation, max_rows=8)
        reference.reprogram(states, labels=range(6), rng=31)
        assert array.labels == reference.labels
        assert array.row_profiles().tobytes() == reference.row_profiles().tobytes()
        np.testing.assert_array_equal(
            array.row_conductances_batch(queries), reference.row_conductances_batch(queries)
        )

    def test_append_respects_the_array_geometry(self):
        array = MCAMArray(num_cells=4, bits=2, max_rows=5)
        array.reprogram(RNG.integers(0, 4, size=(4, 4)))
        with pytest.raises(CapacityError):
            array.append(RNG.integers(0, 4, size=(2, 4)))
        assert array.num_rows == 4
        array.append(RNG.integers(0, 4, size=(1, 4)))
        assert array.num_rows == 5

    @pytest.mark.parametrize("variation", (None, GaussianVthVariationModel(sigma_v=0.08)))
    def test_appended_array_pickles_like_a_fresh_one(self, variation):
        states = RNG.integers(0, 8, size=(40, 8))
        queries = RNG.integers(0, 8, size=(3, 8))
        grown = MCAMArray(num_cells=8, bits=3, variation=variation)
        grown.reprogram(states[:30], labels=range(30), rng=5)
        grown.row_conductances_batch(queries)
        for start in range(30, 40, 2):
            grown.append(states[start : start + 2], labels=range(start, start + 2), rng=5)
        assert grown._spare  # the appends left spare capacity behind
        # Device mode memoized every row's V_th offsets; LUT mode draws none.
        assert (grown._row_offsets is None) == (variation is None)
        fresh = MCAMArray(num_cells=8, bits=3, variation=variation)
        fresh.reprogram(states, labels=range(40), rng=5)
        fresh.row_conductances_batch(queries)
        grown_bytes, fresh_bytes = pickle.dumps(grown), pickle.dumps(fresh)
        # The memo never reaches a pickle: without it the array pickles to
        # the same size.
        memo, grown._row_offsets = grown._row_offsets, None
        assert len(pickle.dumps(grown)) == len(grown_bytes)
        grown._row_offsets = memo
        assert len(grown_bytes) == len(fresh_bytes)
        restored = pickle.loads(grown_bytes)
        assert restored._spare == {}
        assert restored._row_offsets is None
        np.testing.assert_array_equal(
            restored.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )
        # Without the memo the restored array draws a refit's rows again,
        # bitwise like the array that kept it.
        mutated = states.copy()
        mutated[::4] = (mutated[::4] + 1) % 8
        restored.reprogram(mutated, labels=range(40), rng=5)
        grown.reprogram(mutated, labels=range(40), rng=5)
        assert restored.row_profiles().tobytes() == grown.row_profiles().tobytes()
        grown.clear()
        assert grown._row_offsets is None

    def test_reprogram_and_clear_release_the_spare_capacity(self):
        states = RNG.integers(0, 4, size=(20, 5))
        queries = RNG.integers(0, 4, size=(2, 5))
        array = MCAMArray(num_cells=5, bits=2)
        array.reprogram(states[:10])
        array.row_conductances_batch(queries)  # builds the float64 table
        array.screened_top_k(queries, 2)  # builds the float32 table
        array.append(states[10:12])
        assert set(array._spare) == {"states", "_by_cell_profiles", "_by_cell_estimates"}
        array.reprogram(states[:12])  # no row changes, yet the tables are compacted
        assert array._spare == {}
        assert array._by_cell_profiles.base is None
        assert array._by_cell_estimates.base is None
        fresh = MCAMArray(num_cells=5, bits=2)
        fresh.write(states[:12])
        np.testing.assert_array_equal(
            array.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )
        array.append(states[12:])
        array.clear()
        assert array._spare == {} and array.num_rows == 0


def _fresh_estimates_table(array: MCAMArray, **config) -> np.ndarray:
    """The float32 by-cell table of a fresh array holding ``array``'s rows."""
    fresh = MCAMArray(num_cells=array.num_cells, bits=array.bits, **config)
    fresh.reprogram(array.stored_states, rng=5)
    return fresh._by_cell_table("_by_cell_estimates")


class TestFloat32SearchTable:
    """The screen's float32 by-cell table is maintained like the float64 one."""

    @pytest.mark.parametrize("variation", (None, GaussianVthVariationModel(sigma_v=0.08)))
    def test_append_grows_the_table_into_spare_capacity(self, variation):
        states = RNG.integers(0, 8, size=(40, 8))
        queries = RNG.integers(0, 8, size=(3, 8))
        array = MCAMArray(num_cells=8, bits=3, variation=variation)
        array.reprogram(states[:30], rng=5)
        array.screened_top_k(queries, 3)  # builds the float32 table only
        assert array._by_cell_profiles is None
        array.append(states[30:32], rng=5)  # room for 36 rows
        buffer = array._spare["_by_cell_estimates"]
        for row in range(32, 36):
            array.append(states[row : row + 1], rng=5)
            # Written behind the stored rows: no rebuild, no copy.
            assert array._by_cell_estimates.base is buffer
        array.append(states[36:], rng=5)  # outgrows the buffer
        assert array._by_cell_estimates.base is array._spare["_by_cell_estimates"]
        assert array._by_cell_profiles is None
        fresh = _fresh_estimates_table(array, variation=variation)
        assert np.ascontiguousarray(array._by_cell_estimates).tobytes() == fresh.tobytes()

    def test_lut_delta_reprogram_updates_the_table_in_place(self):
        states = RNG.integers(0, 8, size=(30, 8))
        queries = RNG.integers(0, 8, size=(3, 8))
        array = MCAMArray(num_cells=8, bits=3)
        array.reprogram(states)
        array.screened_top_k(queries, 3)
        table = array._by_cell_estimates
        mutated = states.copy()
        mutated[::7] = (mutated[::7] + 1) % 8
        array.reprogram(mutated)
        assert array._by_cell_estimates is table  # only the changed rows rewritten
        assert table.tobytes() == _fresh_estimates_table(array).tobytes()
        array.reprogram(mutated[:20])  # a shrink compacts the table
        assert array._by_cell_estimates.tobytes() == _fresh_estimates_table(array).tobytes()

    def test_write_and_clear_drop_the_table(self):
        states = RNG.integers(0, 8, size=(12, 8))
        queries = RNG.integers(0, 8, size=(2, 8))
        array = MCAMArray(num_cells=8, bits=3)
        array.write(states[:6])
        array.screened_top_k(queries, 2)
        array.write(states[6:])
        assert array._by_cell_estimates is None
        array.screened_top_k(queries, 2)
        array.clear()
        assert array._by_cell_estimates is None

    @pytest.mark.parametrize("variation", (None, GaussianVthVariationModel(sigma_v=0.08)))
    def test_pickles_do_not_carry_the_table(self, variation):
        array = MCAMArray(num_cells=8, bits=3, variation=variation)
        array.reprogram(RNG.integers(0, 8, size=(30, 8)), rng=5)
        lean = len(pickle.dumps(array))
        array.screened_top_k(RNG.integers(0, 8, size=(2, 8)), 2)
        assert len(pickle.dumps(array)) == lean
        assert pickle.loads(pickle.dumps(array))._by_cell_estimates is None
