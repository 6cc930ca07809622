import importlib
import subprocess
import sys
from pathlib import Path

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
from trxsave.saving_engine import run_cell

import oracles

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


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


class TestPlaceCalls:
    def test_zero_demand(self):
        state, blocked = place_calls(cell(), 0)
        assert state.occupied_tch == 0
        assert blocked == 0

    def test_overload_blocks_excess(self):
        # single TRX: oracle says 5 occupied, 2 blocked for demand 7
        expect_occ, expect_blk = oracles.place(7, oracles.capacity(1, 3))
        state, blocked = place_calls(cell(1, 3), 7)
        assert (state.occupied_tch, blocked) == (expect_occ, expect_blk) == (5, 2)

    def test_negative_demand_rejected(self):
        with pytest.raises(DataError):
            place_calls(cell(), -1)

    def test_conservation_and_capacity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            num_trx = int(rng.integers(1, 6))
            cch = int(rng.integers(1, 4))
            demand = int(rng.integers(0, 60))
            state, blocked = place_calls(cell(num_trx, cch), demand)
            assert state.occupied_tch + blocked == demand
            assert state.occupied_tch <= state.enabled_tch_capacity

    def test_benchmark_three_argument_call_matches_two_argument_call(self):
        # bench/workloads.py still passes MappingStrategy.packed(); it is ignored
        for num_trx in (1, 3, 12):
            state = cell(num_trx, 2)
            for demand in (0, 5, 30, 200):
                assert (place_calls(state, demand, MappingStrategy.packed())
                        == place_calls(state, demand))


class TestCounts:
    def test_idle_on_fresh_three_trx_cell(self):
        assert idle_tch_count(cell()) == 21

    def test_idle_under_occupancy_matches_capacity_oracle(self):
        # two enabled TRXs with cch=3 give 13 TCHs; idle is capacity minus calls
        state = cell(2, 3)
        for occupied in (13, 10, 0):
            placed, _ = place_calls(state, occupied)
            assert idle_tch_count(placed) == oracles.capacity(2, 3) - occupied
        full, _ = place_calls(state, 13)
        assert idle_tch_count(full) == 0

    def test_idle_zero_at_full_occupancy(self):
        state, _ = place_calls(cell(), 21)
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

    def test_disable_that_strands_calls_is_rejected(self):
        state, _ = place_calls(cell(), 15)
        with pytest.raises(InvariantError):
            set_trx_enabled(state, 3, False)


class TestBenchmarkReplay:
    """The benchmark's bursty-churn check replays the step functions through this
    module's import surface, and its tracer wraps the pipeline's functions by
    name; a change here that breaks either fails here first."""

    def test_replay_equals_run_cell(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        (trace,) = workloads.bursty_traces(seed=3, n_cells=1, days=1 / 3)  # 2,880 scans
        config = CellConfig(trace.cell_id, workloads.BURSTY_TRX, 3)
        expected = run_cell(config, workloads.BURSTY_PARAMS, trace).active_ts.tolist()
        assert len(set(expected)) > 1  # the trace switches TRXs
        assert workloads._replay_active_ts(config, trace.samples) == expected

    def test_tracer_wraps_every_stage(self):
        # a fresh interpreter, since install replaces module attributes for good; a
        # renamed function the tracer wraps fails here, not only in a traced run
        code = (f"import sys\nsys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
                "import tracing\n"
                "for stage in tracing.STAGES:\n"
                "    tracing.install(tracing.Tracer(), stage)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
