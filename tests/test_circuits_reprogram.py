"""Delta reprogramming, device-mode programming and the batched search kernels.

Covers the incremental write path on :class:`MCAMArray`,
:class:`TCAMArray` and :class:`CAMTileSet` — changed-row detection,
delta-equals-full equality under fixed seeds, cache consistency across
grow/shrink refits — the batched device-mode programming path against a
frozen copy of the per-row loop it replaced, and the kernel rewrites behind
batched search: the fused LUT gather (bitwise identical to the per-cell
accumulation for single queries and large batches alike) and the exact
matmul Hamming kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.mcam_array import MCAMArray
from repro.circuits.mcam_cell import ML_PRECHARGE_V, MCAMVoltageScheme
from repro.circuits.tcam import DONT_CARE, TCAMArray
from repro.circuits.tiles import CAMTileSet, TileGeometry
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


def _frozen_row_keyed_profiles(entries, variation, base_seed, row_offset, bits):
    """The original per-row reprogram loop: one keyed stream per global row."""
    scheme, device = MCAMVoltageScheme(bits=bits), FeFETParameters()
    return np.stack(
        [
            _frozen_cell_profiles(
                np.asarray(entries[row], dtype=np.int64),
                scheme,
                device,
                variation,
                np.random.default_rng([0x52455052, base_seed, row_offset + row]),
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
        row_offset = int(rng.integers(0, 10**6))
        return FROZEN_VARIATIONS[variation], states, seed, row_offset

    def test_write(self, variation, bits, cells):
        model, states, seed, _ = self._case(variation, bits, cells)
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
        model, states, seed, row_offset = self._case(variation, bits, cells)
        array = MCAMArray(num_cells=cells, bits=bits, variation=model)
        array.reprogram(states, rng=seed, row_offset=row_offset)
        reference = _frozen_row_keyed_profiles(states, model, seed, row_offset, bits)
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_delta_reprogram(self, variation, bits, cells):
        model, states, seed, row_offset = self._case(variation, bits, cells)
        array = MCAMArray(num_cells=cells, bits=bits, variation=model)
        array.reprogram(states, rng=seed, row_offset=row_offset)
        mutated = states.copy()
        mutated[::3] = (mutated[::3] + 1) % 2**bits
        changed = array.reprogram(mutated, rng=seed, row_offset=row_offset)
        np.testing.assert_array_equal(changed, np.arange(0, self.ROWS, 3))
        reference = _frozen_row_keyed_profiles(mutated, model, seed, row_offset, bits)
        assert array.row_profiles().tobytes() == reference.tobytes()

    def test_tile_set_append(self, variation, bits, cells):
        model, states, seed, _ = self._case(variation, bits, cells)
        geometry = TileGeometry(max_rows=5, num_cells=cells)
        tiles = CAMTileSet(
            geometry,
            lambda: MCAMArray(num_cells=cells, bits=bits, variation=model, max_rows=5),
        )
        tiles.reprogram(states[:7], rng=seed)
        tiles.append(states[7:], rng=seed)
        reference = _frozen_row_keyed_profiles(states, model, seed, 0, bits)
        programmed = np.concatenate([tile.array.row_profiles() for tile in tiles.tiles])
        assert programmed.tobytes() == reference.tobytes()


def test_frozen_reference_wide_spread_exercises_the_clip():
    # The 300 mV case only pins clip_vth if some draw actually saturates.
    device = FeFETParameters()
    generator = np.random.default_rng([0x52455052, 1, 0])
    nominal = MCAMVoltageScheme(bits=3).level_grid_v[np.arange(1, 9).repeat(8)]
    raw = FROZEN_VARIATIONS["gauss300mV"].sample_vth(nominal, generator)
    assert np.any(clip_vth(raw, device) != raw)


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

    def test_row_keyed_draws_depend_on_row_offset(self):
        variation = GaussianVthVariationModel(sigma_v=0.08)
        states = RNG.integers(0, 8, size=(4, 8))
        a = MCAMArray(num_cells=8, bits=3, variation=variation)
        b = MCAMArray(num_cells=8, bits=3, variation=variation)
        a.reprogram(states, rng=9, row_offset=0)
        b.reprogram(states, rng=9, row_offset=4)
        assert not np.array_equal(a.row_profiles(), b.row_profiles())

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


class TestTileSetReprogram:
    @staticmethod
    def _tile_set():
        geometry = TileGeometry(max_rows=8, num_cells=10)
        return CAMTileSet(geometry, lambda: MCAMArray(num_cells=10, bits=2, max_rows=8))

    def test_matches_fresh_programming_across_tiles(self):
        tiles = self._tile_set()
        first = RNG.integers(0, 4, size=(20, 10))
        tiles.write(first, labels=list(range(20)))
        second = first.copy()
        second[[0, 9, 19]] = RNG.integers(0, 4, size=(3, 10))
        changed = tiles.reprogram(second, labels=list(range(20)))
        np.testing.assert_array_equal(changed, [0, 9, 19])

        fresh = self._tile_set()
        fresh.write(second, labels=list(range(20)))
        queries = RNG.integers(0, 4, size=(5, 10))
        np.testing.assert_array_equal(
            tiles.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )
        assert tiles.labels == fresh.labels

    def test_shrink_releases_tiles_and_grow_reopens(self):
        tiles = self._tile_set()
        store = RNG.integers(0, 4, size=(20, 10))
        tiles.write(store)
        assert tiles.num_tiles == 3
        tiles.reprogram(store[:7])
        assert (tiles.num_tiles, tiles.num_rows) == (1, 7)
        tiles.reprogram(store)
        assert (tiles.num_tiles, tiles.num_rows) == (3, 20)
        fresh = self._tile_set()
        fresh.write(store)
        queries = RNG.integers(0, 4, size=(4, 10))
        np.testing.assert_array_equal(
            tiles.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )

    def test_device_mode_row_keys_are_global(self):
        variation = GaussianVthVariationModel(sigma_v=0.05)
        geometry = TileGeometry(max_rows=4, num_cells=6)

        def factory():
            return MCAMArray(num_cells=6, bits=2, variation=variation, max_rows=4)

        store = RNG.integers(0, 4, size=(10, 6))
        delta = CAMTileSet(geometry, factory)
        delta.reprogram(store, rng=77)
        mutated = store.copy()
        mutated[[1, 6]] = RNG.integers(0, 4, size=(2, 6))
        delta.reprogram(mutated, rng=77)

        full = CAMTileSet(geometry, factory)
        full.reprogram(mutated, rng=77)
        for tile_a, tile_b in zip(delta.tiles, full.tiles):
            np.testing.assert_array_equal(
                tile_a.array.row_profiles(), tile_b.array.row_profiles()
            )

    def test_reprogram_forwards_rng_to_tcam_tiles(self):
        # Regression: forwarding rng/row_offset to deterministic TCAM tiles
        # used to raise TypeError; the parameters are now accepted (and
        # ignored) for tile-set uniformity.
        geometry = TileGeometry(max_rows=4, num_cells=6)
        tiles = CAMTileSet(geometry, lambda: TCAMArray(num_cells=6, max_rows=4))
        bits = RNG.integers(0, 2, size=(10, 6))
        tiles.reprogram(bits, rng=7)
        fresh = CAMTileSet(geometry, lambda: TCAMArray(num_cells=6, max_rows=4))
        fresh.write(bits)
        queries = RNG.integers(0, 2, size=(3, 6))
        np.testing.assert_array_equal(
            tiles.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )


class TestTileSetAppend:
    """Live append: grow the store through the delta path, keyed globally."""

    def test_lut_mode_append_matches_one_shot_write(self):
        geometry = TileGeometry(max_rows=8, num_cells=10)
        factory = lambda: MCAMArray(num_cells=10, bits=2, max_rows=8)  # noqa: E731
        store = RNG.integers(0, 4, size=(20, 10))
        extra = RNG.integers(0, 4, size=(7, 10))

        tiles = CAMTileSet(geometry, factory)
        tiles.write(store, labels=list(range(20)))
        appended = tiles.append(extra, labels=list(range(20, 27)))
        np.testing.assert_array_equal(appended, np.arange(20, 27))
        assert (tiles.num_tiles, tiles.num_rows) == (4, 27)

        fresh = CAMTileSet(geometry, factory)
        fresh.write(np.vstack([store, extra]), labels=list(range(27)))
        queries = RNG.integers(0, 4, size=(5, 10))
        np.testing.assert_array_equal(
            tiles.row_conductances_batch(queries), fresh.row_conductances_batch(queries)
        )
        assert tiles.labels == fresh.labels

    def test_device_mode_append_matches_from_scratch_reprogram(self):
        variation = GaussianVthVariationModel(sigma_v=0.05)
        geometry = TileGeometry(max_rows=4, num_cells=6)

        def factory():
            return MCAMArray(num_cells=6, bits=2, variation=variation, max_rows=4)

        store = RNG.integers(0, 4, size=(10, 6))
        extra = RNG.integers(0, 4, size=(5, 6))

        grown = CAMTileSet(geometry, factory)
        grown.reprogram(store, rng=77)
        grown.append(extra, rng=77)

        full = CAMTileSet(geometry, factory)
        full.reprogram(np.vstack([store, extra]), rng=77)
        assert grown.num_tiles == full.num_tiles
        for tile_a, tile_b in zip(grown.tiles, full.tiles):
            np.testing.assert_array_equal(
                tile_a.array.row_profiles(), tile_b.array.row_profiles()
            )

    def test_append_into_empty_tile_set_opens_tiles(self):
        geometry = TileGeometry(max_rows=4, num_cells=6)
        tiles = CAMTileSet(geometry, lambda: MCAMArray(num_cells=6, bits=2, max_rows=4))
        appended = tiles.append(RNG.integers(0, 4, size=(6, 6)))
        np.testing.assert_array_equal(appended, np.arange(6))
        assert (tiles.num_tiles, tiles.num_rows) == (2, 6)


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
