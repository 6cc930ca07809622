import numpy as np
import pytest

from trxsave.cell_model import (
    CellConfig,
    MappingStrategy,
    build_cell,
    idle_tch_count,
    place_calls,
    set_trx_enabled,
)
from trxsave.errors import ConfigurationError, DataError, InvariantError

import oracles


def cell(num_trx=3, cch=3):
    return build_cell(CellConfig("c1", num_trx, cch))


class TestBuildCell:
    def test_three_trx_cell_has_24_slots_21_tch(self):
        state = cell(3, 3)
        assert state.config.total_slots == 24
        assert state.enabled_tch_capacity == 21

    def test_single_trx_cell_has_5_tch(self):
        state = cell(1, 3)
        assert state.config.total_slots == 8
        assert state.enabled_tch_capacity == 5

    def test_zero_trx_is_invalid(self):
        with pytest.raises(ConfigurationError):
            build_cell(CellConfig("c1", 0, 3))

    @pytest.mark.parametrize("num_trx,cch", [(13, 3), (1, 0), (1, 4), (-1, 2)])
    def test_out_of_range_layouts(self, num_trx, cch):
        with pytest.raises(ConfigurationError):
            build_cell(CellConfig("c1", num_trx, cch))

    def test_fresh_cell_is_idle_and_fully_enabled(self):
        state = cell()
        assert state.occupied_tch == 0
        assert all(state.trx_enabled)
        assert not any(state.slot_map)


class TestPlaceCalls:
    def test_packed_fills_lowest_slots_first(self):
        # 9 calls on a 3-TRX cell: TRX1's 5 TCHs plus 4 on TRX2, TRX3 empty
        state, blocked = place_calls(cell(), 9, MappingStrategy.packed())
        assert blocked == 0
        assert state.occupied_tch == 9
        occupied_slots = [i for i, used in enumerate(state.slot_map) if used]
        assert occupied_slots == list(range(3, 12))
        assert not any(state.slot_map[16:24])  # TRX3 carries no calls

    def test_zero_demand(self):
        state, blocked = place_calls(cell(), 0, MappingStrategy.packed())
        assert state.occupied_tch == 0
        assert blocked == 0

    def test_overload_blocks_excess(self):
        # single TRX: oracle says 5 occupied, 2 blocked for demand 7
        expect_occ, expect_blk = oracles.place(7, oracles.capacity(1, 3))
        state, blocked = place_calls(cell(1, 3), 7, MappingStrategy.packed())
        assert (state.occupied_tch, blocked) == (expect_occ, expect_blk) == (5, 2)

    def test_negative_demand_rejected(self):
        with pytest.raises(DataError):
            place_calls(cell(), -1, MappingStrategy.packed())

    def test_conservation_and_capacity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            num_trx = int(rng.integers(1, 6))
            cch = int(rng.integers(1, 4))
            demand = int(rng.integers(0, 60))
            state, blocked = place_calls(cell(num_trx, cch), demand, MappingStrategy.packed())
            assert state.occupied_tch + blocked == demand
            assert state.occupied_tch <= state.enabled_tch_capacity
            assert sum(state.slot_map) == state.occupied_tch

    def test_packed_is_deterministic(self):
        a, _ = place_calls(cell(), 11, MappingStrategy.packed())
        b, _ = place_calls(cell(), 11, MappingStrategy.packed())
        assert a.slot_map == b.slot_map

    def test_scattered_reproducible_and_count_equal(self):
        a, blk_a = place_calls(cell(), 11, MappingStrategy.scattered(seed=3))
        b, blk_b = place_calls(cell(), 11, MappingStrategy.scattered(seed=3))
        c, blk_c = place_calls(cell(), 11, MappingStrategy.scattered(seed=4))
        assert a.slot_map == b.slot_map
        assert (a.occupied_tch, blk_a) == (c.occupied_tch, blk_c)
        assert blk_a == blk_b == 0

    def test_scattered_never_uses_cch_or_disabled_slots(self):
        state = set_trx_enabled(cell(), 3, False)
        for seed in range(20):
            placed, _ = place_calls(state, 13, MappingStrategy.scattered(seed=seed))
            used = {i for i, b in enumerate(placed.slot_map) if b}
            assert not used & {0, 1, 2}            # control slots
            assert not used & set(range(16, 24))   # disabled TRX3


class TestCounts:
    def test_idle_on_fresh_three_trx_cell(self):
        assert idle_tch_count(cell()) == 21

    def test_idle_under_occupancy_matches_capacity_oracle(self):
        # two enabled TRXs with cch=3 give 13 TCHs; idle is capacity minus calls
        state = cell(2, 3)
        for occupied in (13, 10, 0):
            placed, _ = place_calls(state, occupied, MappingStrategy.packed())
            assert idle_tch_count(placed) == oracles.capacity(2, 3) - occupied
        full, _ = place_calls(state, 13, MappingStrategy.packed())
        assert idle_tch_count(full) == 0

    def test_idle_zero_at_full_occupancy(self):
        state, _ = place_calls(cell(), 21, MappingStrategy.packed())
        assert idle_tch_count(state) == 0

    def test_active_trx_counts(self):
        state = cell()
        assert state.enabled_trx_count == 3
        state = set_trx_enabled(state, 3, False)
        assert state.enabled_trx_count == 2
        state = set_trx_enabled(state, 2, False)
        assert state.enabled_trx_count == 1

    def test_capacity_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            num_trx = int(rng.integers(1, 13))
            cch = int(rng.integers(1, 4))
            state = cell(num_trx, cch)
            for trx in range(num_trx, 1, -1):
                if rng.random() < 0.5:
                    state = set_trx_enabled(state, trx, False)
            assert state.enabled_tch_capacity == 8 * state.enabled_trx_count - cch


class TestEnableFlag:
    def test_trx1_cannot_be_disabled(self):
        with pytest.raises(InvariantError):
            set_trx_enabled(cell(), 1, False)

    def test_disable_repacks_calls(self):
        state, _ = place_calls(cell(), 9, MappingStrategy.scattered(seed=1))
        state = set_trx_enabled(state, 3, False)
        occupied_slots = [i for i, used in enumerate(state.slot_map) if used]
        assert occupied_slots == list(range(3, 12))
        assert state.occupied_tch == 9

    def test_disable_that_strands_calls_is_rejected(self):
        state, _ = place_calls(cell(), 15, MappingStrategy.packed())
        with pytest.raises(InvariantError):
            set_trx_enabled(state, 3, False)
