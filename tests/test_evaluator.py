import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from trxsave import evaluator, traffic
from trxsave.cell_model import CellConfig
from trxsave.errors import ConfigurationError, DataError
from trxsave.evaluator import (
    CellComparison,
    CellStats,
    ComparisonSummary,
    NetworkScenario,
    compare,
    emit_report,
    read_summary_json,
    simulate_network,
    summarize,
    write_comparison_csv,
    write_summary_json,
    write_timeline_csv,
)
from trxsave.saving_engine import PowerSavingParams, run_cell
from trxsave.traffic import TrafficTrace

from test_traffic import traced_peak


def make_scenario(n_cells=3, n_scans=400, hysteresis=3, num_trx=3, level=0.0, warmup=0):
    """A fleet of flat-traffic cells and its traces, in cell_id order."""
    cells = [CellConfig(f"cell_{i:02d}", num_trx, 3) for i in range(n_cells)]
    traces = [TrafficTrace(c.cell_id, 10.0, np.full(n_scans, level)) for c in cells]
    scenario = NetworkScenario(
        cells=cells,
        params={c.cell_id: PowerSavingParams(hysteresis=hysteresis) for c in cells},
        warmup_scans=warmup,
    )
    return scenario, traces


def pair(cell_id, trx_off, trx_on, blocked_off=0, blocked_on=0):
    """One cell's hand-built (off, on) statistics."""
    return (CellStats(cell_id=cell_id, max_ts=24, mean_ts=24.0, blocked=blocked_off,
                      trx_scans=trx_off),
            CellStats(cell_id=cell_id, max_ts=16, mean_ts=12.5, blocked=blocked_on,
                      trx_scans=trx_on))


class TestSimulateNetwork:
    def test_saving_off_keeps_full_slot_count(self):
        cells = simulate_network(*make_scenario(n_scans=400))
        for off, _ in cells:
            assert (off.max_ts, off.mean_ts) == (24, 24.0)  # every scan at 24
            assert off.trx_scans == 400 * 3
        summary = compare(cells)
        assert (summary.trx_scans_without, summary.ts_scans_without) == (3 * 400 * 3,
                                                                         3 * 400 * 24)

    def test_low_traffic_cell_converges_at_or_below_two_trx(self):
        scenario = make_scenario(n_cells=1, n_scans=2000, hysteresis=3, level=0.3, warmup=1000)
        ((_, on),) = simulate_network(*scenario)
        assert on.max_ts <= 16

    def test_empty_network_gives_empty_report(self):
        scenario = NetworkScenario(cells=[], params={})
        assert simulate_network(scenario, []) == []
        summary = compare([])
        assert (summary.rows, summary.trx_scans_with, summary.reduction_pct) == ((), 0, 0.0)

    def test_missing_trace_rejected(self):
        scenario = NetworkScenario(cells=[CellConfig("a", 3, 3)], params={"a": PowerSavingParams()})
        with pytest.raises(DataError, match="no trace for fleet cell 'a'"):
            simulate_network(scenario, [])

    @pytest.mark.parametrize("extra,match", [
        (TrafficTrace("zz", 10.0, np.zeros(50)), "cell 'zz' is not in the fleet"),
        (TrafficTrace("cell_00", 10.0, np.zeros(50)), "cell 'cell_00' has a second trace"),
    ], ids=["stray", "second"])
    def test_trace_outside_the_fleet_rejected(self, extra, match):
        scenario, traces = make_scenario(n_scans=50)
        with pytest.raises(DataError, match=match):
            simulate_network(scenario, [*traces, extra])

    def test_failed_run_leaves_timeline_dir_as_it_was(self, tmp_path):
        scenario, traces = make_scenario(n_scans=50)
        tl = tmp_path / "tl"
        tl.mkdir()
        (tl / "cell_00_on.csv").write_text("old")
        with pytest.raises(DataError, match="no trace for fleet cell 'cell_02'"):
            simulate_network(scenario, traces[:2], tl, 3)  # cell_00 was staged
        assert [p.name for p in tmp_path.iterdir()] == ["tl"]
        assert [p.name for p in tl.iterdir()] == ["cell_00_on.csv"]
        assert (tl / "cell_00_on.csv").read_text() == "old"
        simulate_network(scenario, traces, tl, 3)
        assert (tl / "cell_00_on.csv").read_text().startswith("scan,erlang,active_ts\n")

    def test_missing_hysteresis_without_default_rejected(self):
        with pytest.raises(ConfigurationError, match="hysteresis"):
            NetworkScenario(cells=[CellConfig("a", 3, 3)], params={})

    def test_each_cell_runs_once(self, monkeypatch):
        ran = []
        monkeypatch.setattr(evaluator, "run_cell",
                            lambda config, *args: ran.append(config.cell_id) or
                            run_cell(config, *args))
        simulate_network(*make_scenario(n_cells=3, n_scans=50))
        assert ran == ["cell_00", "cell_01", "cell_02"]

    def test_per_cell_hysteresis_override(self):
        scenario, traces = make_scenario(n_cells=2, n_scans=300, warmup=150)
        scenario = replace(scenario, params={"cell_00": PowerSavingParams(hysteresis=3),
                                             "cell_01": PowerSavingParams(hysteresis=5)})
        rows = compare(simulate_network(scenario, traces)).rows
        # h=3 reaches one TRX by scan 130; h=5 parks at two
        assert [(r.cell_id, r.max_ts_after, r.mean_ts_after) for r in rows] == [
            ("cell_00", 8, 8.0), ("cell_01", 16, 16.0)]

    @pytest.mark.parametrize("edit", [
        lambda s: replace(s, params={**s.params,
                                     "cell_01": replace(s.params["cell_01"], hysteresis=0)}),
        lambda s: replace(s, params={c.cell_id: PowerSavingParams(hysteresis=1015)
                                     for c in s.cells}),
    ], ids=["assigned", "default"])
    def test_bad_hysteresis_fails_before_any_cell_runs(self, tmp_path, monkeypatch, edit):
        ran = []
        monkeypatch.setattr(evaluator, "run_cell", lambda *a, **k: ran.append(a))
        scenario, traces = make_scenario(n_scans=50)
        read = []
        with pytest.raises(ConfigurationError, match="hysteresis must be in"):
            simulate_network(edit(scenario), (read.append(t) or t for t in traces),
                             tmp_path / "tl", 3)
        assert ran == [] and read == [] and not (tmp_path / "tl").exists()

    @pytest.mark.parametrize("cell_id,char", [("../../escaped", "/"), ("a/b", "/"),
                                              ("a\0b", "\0")], ids=["dot_dot", "slash", "nul"])
    @pytest.mark.parametrize("n_timelines", [3, 0])
    def test_cell_id_unfit_for_a_file_name_fails_before_any_trace(self, tmp_path, cell_id,
                                                                  char, n_timelines):
        scenario, traces = make_scenario(n_scans=50)
        read = []
        # every cell_id is checked when its config is built, whether or not it would
        # name a timeline
        message = f"cell config: cell_id {cell_id!r} may not hold {char!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            scenario = replace(scenario, cells=[replace(scenario.cells[0], cell_id=cell_id),
                                                *scenario.cells[1:]],
                               params={**scenario.params, cell_id: scenario.params["cell_00"]})
            simulate_network(scenario, (read.append(t) or t for t in traces),
                             tmp_path / "tl", n_timelines)
        assert read == [] and list(tmp_path.iterdir()) == []
        assert not list(tmp_path.parent.glob("escaped*"))

    def test_timelines_of_first_cells_in_cell_id_order(self, tmp_path):
        scenario, traces = make_scenario(n_cells=3, n_scans=60)
        # neither the fleet's order nor the traces' decides which cells get timelines
        scenario = replace(scenario, cells=[scenario.cells[i] for i in (1, 2, 0)])
        tl = tmp_path / "tl"
        cells = simulate_network(scenario, traces[::-1], tl, 2)
        assert [(off.cell_id, on.cell_id) for off, on in cells] == [
            ("cell_00", "cell_00"), ("cell_01", "cell_01"), ("cell_02", "cell_02")]
        assert sorted(p.name for p in tl.iterdir()) == [
            "cell_00_off.csv", "cell_00_on.csv", "cell_01_off.csv", "cell_01_on.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["tl"]  # no staging directory left
        config = scenario.cells[2]
        timeline = run_cell(config, scenario.params["cell_00"], traces[0])
        assert (tl / "cell_00_on.csv").read_text() == oracles.timeline_csv_text(timeline)
        assert (tl / "cell_00_off.csv").read_text() == oracles.timeline_csv_text(
            oracles.saving_off_run(config, traces[0]))

    def test_memory_holds_one_timeline_whatever_the_fleet_size(self):
        n_scans = 20_000
        one_timeline = 8 * n_scans  # blocked int32, active_trx and actions int16

        def peak(n_cells):
            rng = np.random.default_rng(5)
            scenario, _ = make_scenario(n_cells=n_cells, n_scans=n_scans, hysteresis=2)
            traces = [TrafficTrace(c.cell_id, 10.0, np.round(rng.uniform(0, 12, n_scans), 3))
                      for c in scenario.cells]  # traces exist before tracing starts
            tracemalloc.start()
            try:
                simulate_network(scenario, traces)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4), peak(40)
        assert large - small < one_timeline, (small, large)


class TestSummarize:
    def test_one_cell_over_its_measured_scans(self):
        scenario, traces = make_scenario(n_cells=1, n_scans=300, hysteresis=3)
        timeline = run_cell(scenario.cells[0], scenario.params["cell_00"], traces[0])
        # one TRX holds from scan 129 on; saving off keeps all three
        assert summarize(timeline, scenario.cells[0], 150) == (
            CellStats(cell_id="cell_00", max_ts=24, mean_ts=24.0, blocked=0, trx_scans=450),
            CellStats(cell_id="cell_00", max_ts=8, mean_ts=8.0, blocked=0, trx_scans=150))

    def test_warmup_excludes_ramp(self):
        scenario, traces = make_scenario(n_cells=1, n_scans=300, hysteresis=3)
        ((_, full),) = simulate_network(scenario, traces)
        ((_, settled),) = simulate_network(replace(scenario, warmup_scans=150), traces)
        assert full.max_ts == 24   # includes the all-on start
        assert settled.max_ts == 8  # one TRX holds after scan 130

    def test_warmup_longer_than_trace_rejected(self, tmp_path):
        scenario, traces = make_scenario(n_cells=2, n_scans=50, warmup=50)
        with pytest.raises(ConfigurationError, match="consumes the whole 50-scan trace"):
            simulate_network(scenario, traces, tmp_path / "tl", 2)
        assert list(tmp_path.iterdir()) == []


class TestSavingOffFold:
    def test_fold_equals_the_saving_off_run(self, tmp_path):
        """``summarize`` and ``write_timeline_csv`` against a saving-off run scan by
        scan: random layouts, ragged lengths and warmups, saturated cells too."""
        rng = np.random.default_rng(26)
        saturated = 0
        for index in range(60):
            config = CellConfig(f"c{index}", int(rng.integers(1, 13)), int(rng.integers(1, 4)))
            n = int(rng.integers(1, 700))
            # every third cell's level reaches 2.6 times its slots, so many block at full capacity
            level = rng.uniform(0, 1.3) * config.total_slots * (1 + index % 3 // 2)
            samples = np.round(np.maximum(rng.normal(level, 4, size=n), 0), 3)
            trace = TrafficTrace(config.cell_id, 10.0, samples)
            params = PowerSavingParams(hysteresis=int(rng.integers(1, 20)))
            warmup = int(rng.integers(0, n))
            timeline = run_cell(config, params, trace)
            off_run = oracles.saving_off_run(config, trace)
            assert summarize(timeline, config, warmup) == (
                oracles.timeline_stats(off_run, warmup), oracles.timeline_stats(timeline, warmup))
            write_timeline_csv(timeline, config, tmp_path)
            assert (tmp_path / f"c{index}_off.csv").read_bytes() == (
                oracles.timeline_csv_text(off_run).encode())
            saturated += int(off_run.blocked[warmup:].sum()) > 0
        assert saturated >= 15


    @pytest.mark.parametrize("warmup", [0, 1, 5])
    def test_fold_holds_for_demands_past_int16(self, warmup):
        # blocked calls near the int32 demand bound, on a cell that has shed TRXs
        samples = np.concatenate([np.zeros(200), np.full(3, 2.0e9), np.zeros(60),
                                  [traffic.MAX_DEMAND, 40_000.0]])
        config = CellConfig("c", 12, 3)
        trace = TrafficTrace("c", 10.0, samples)
        timeline = run_cell(config, PowerSavingParams(hysteresis=1, trx_off_target=20,
                                                      trx_off_delay=6), trace)
        assert timeline.active_trx[199] < 12
        assert summarize(timeline, config, warmup) == (
            oracles.timeline_stats(oracles.saving_off_run(config, trace), warmup),
            oracles.timeline_stats(timeline, warmup))

class TestCompare:
    def test_published_totals_reduce_by_20_9_pct(self):
        # 5754 active TRX-scans without saving vs 4550 with
        summary = compare([pair("a", 2877, 2400, 1, 2), pair("b", 2877, 2150, 0, 4)])
        assert summary.trx_scans_without == 5754
        assert summary.trx_scans_with == 4550
        assert (summary.ts_scans_without, summary.ts_scans_with) == (5754 * 8, 4550 * 8)
        assert f"{summary.reduction_pct:.1f}" == "20.9"
        assert summary.reduction_pct == (5754 - 4550) / 5754 * 100.0
        assert (summary.blocked_without, summary.blocked_with, summary.blocking_delta) == (1, 6, 5)
        assert summary.rows == (CellComparison("a", 24, 16, 12.5, 1, 2),
                                CellComparison("b", 24, 16, 12.5, 0, 4))

    def test_identical_runs_zero_reduction(self):
        summary = compare([pair("a", 100, 100)])
        assert summary.reduction_pct == 0.0

    def test_saturated_cell_shows_no_reduction(self):
        summary = compare(simulate_network(*make_scenario(n_cells=1, n_scans=1200,
                                                          hysteresis=3, level=30.0)))
        row = summary.rows[0]
        assert row.ts_before == row.max_ts_after == 24
        assert summary.blocking_delta == 0

    def test_rows_ordered_by_cell_id(self):
        scenario, traces = make_scenario(n_cells=4, n_scans=100)
        summary = compare(simulate_network(replace(scenario, cells=scenario.cells[::-1]),
                                           traces[::-1]))
        ids = [r.cell_id for r in summary.rows]
        assert ids == sorted(ids)


class TestEmission:
    def small_summary(self):
        cells = simulate_network(*make_scenario(n_cells=2, n_scans=400, hysteresis=3,
                                                warmup=200))
        return compare(cells, metadata={"seed": 0, "params": {"hysteresis": 3}})

    def test_comparison_csv_header_matches_operator_table(self, tmp_path):
        out = tmp_path / "comparison.csv"
        write_comparison_csv(self.small_summary(), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "cell_id,ts_before,max_ts_after"
        assert lines[1].startswith("cell_00,24,")

    def test_json_round_trip_is_identity(self, tmp_path):
        summary = self.small_summary()
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)
        assert read_summary_json(path) == summary

    def test_emit_report_writes_both_formats(self, tmp_path):
        paths = emit_report(self.small_summary(), tmp_path)
        assert sorted(p.name for p in paths) == ["comparison.csv", "summary.json"]
        assert all(p.exists() for p in paths)

    def test_emission_is_byte_deterministic(self, tmp_path):
        for name in ("a", "b"):
            emit_report(self.small_summary(), tmp_path / name)
        for fname in ("comparison.csv", "summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_timeline_csv_shape(self, tmp_path):
        scenario, traces = make_scenario(n_cells=1, n_scans=50)
        tl = run_cell(scenario.cells[0], scenario.params["cell_00"], traces[0])
        write_timeline_csv(tl, scenario.cells[0], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell_00_off.csv",
                                                            "cell_00_on.csv"]
        lines = (tmp_path / "cell_00_off.csv").read_text().splitlines()
        assert lines[0] == "scan,erlang,active_ts"
        assert len(lines) == 51
        assert lines[1] == "0,0,24"
        assert all(line.endswith(",24") for line in lines[1:])

    def test_timeline_rows_match_the_per_value_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(traffic, "ROW_BLOCK", 500)  # several blocks per timeline
        rng = np.random.default_rng(6)
        samples = np.round(rng.uniform(0, 2, 2000), 6)
        samples[1000:1100] += 25  # busy spell: TRXs switch back on
        samples[::7] = rng.integers(1, 100, len(samples[::7])) * 1e-6
        trace = TrafficTrace("c", 10.0, samples)
        config = CellConfig("c", 4, 3)
        tl = run_cell(config, PowerSavingParams(hysteresis=1), trace)
        assert len(set(tl.active_ts.tolist())) > 2
        write_timeline_csv(tl, config, tmp_path)
        assert (tmp_path / "c_on.csv").read_text() == oracles.timeline_csv_text(tl)
        assert (tmp_path / "c_off.csv").read_text() == oracles.timeline_csv_text(
            oracles.saving_off_run(config, trace))

    def test_exact_bytes(self, tmp_path):
        summary = ComparisonSummary(
            schema_version=1, metadata={"seed": 7, "params": {"hysteresis": 3}},
            rows=(CellComparison("a", 24, 8, 9.5, 0, 1),),
            trx_scans_without=30, trx_scans_with=20, ts_scans_without=240, ts_scans_with=160,
            reduction_pct=100 / 3, blocked_without=2, blocked_with=3, blocking_delta=1,
        )
        emit_report(summary, tmp_path)
        assert (tmp_path / "comparison.csv").read_bytes() == (
            b"cell_id,ts_before,max_ts_after\na,24,8\n"
        )
        assert (tmp_path / "summary.json").read_bytes() == SUMMARY_JSON.encode()



SUMMARY_JSON = """\
{
  "schema_version": 1,
  "metadata": {
    "seed": 7,
    "params": {
      "hysteresis": 3
    }
  },
  "rows": [
    {
      "cell_id": "a",
      "ts_before": 24,
      "max_ts_after": 8,
      "mean_ts_after": 9.5,
      "blocked_before": 0,
      "blocked_after": 1
    }
  ],
  "trx_scans_without": 30,
  "trx_scans_with": 20,
  "ts_scans_without": 240,
  "ts_scans_with": 160,
  "reduction_pct": 33.333333333333336,
  "blocked_without": 2,
  "blocked_with": 3,
  "blocking_delta": 1
}
"""


class TestTimelineWriter:
    """Both timeline files of a cell come from one row matrix per block."""

    @pytest.mark.parametrize("n", [1, traffic.ROW_BLOCK - 1, traffic.ROW_BLOCK,
                                   traffic.ROW_BLOCK + 1])
    @pytest.mark.parametrize("num_trx", [1, 12])
    def test_both_files_match_the_per_value_loop(self, tmp_path, num_trx, n):
        rng = np.random.default_rng([num_trx, n])
        samples = np.round(rng.uniform(0, 2, n), 6)  # idle enough to shed to one TRX
        samples[n // 3:n // 3 + 400] += 8 * num_trx  # a busy spell switches TRXs back on
        samples[::5] = rng.integers(0, 9 * num_trx, len(samples[::5]))  # integral values
        config = CellConfig("c", num_trx, 2)
        trace = TrafficTrace("c", 10.0, samples)
        tl = run_cell(config, PowerSavingParams(hysteresis=1, trx_off_target=20,
                                                trx_on_target=20, trx_off_delay=6), trace)
        if n > 1:
            assert (tl.active_ts == 8).any()
        if num_trx > 1 and n > 1:
            assert len(set(tl.active_ts.tolist())) > 2
        write_timeline_csv(tl, config, tmp_path)
        assert (tmp_path / "c_on.csv").read_text() == oracles.timeline_csv_text(tl)
        assert (tmp_path / "c_off.csv").read_text() == oracles.timeline_csv_text(
            oracles.saving_off_run(config, trace))

    def test_both_files_peak_at_one_file_and_one_block(self, tmp_path):
        n = 51_840  # six days of scans
        rng = np.random.default_rng(7)
        samples = np.round(rng.uniform(0, 30, n), 6)
        config = CellConfig("c", 12, 3)
        tl = run_cell(config, PowerSavingParams(hysteresis=1), TrafficTrace("c", 10.0, samples))
        on_file = traced_peak(lambda: traffic.write_rows(
            [tmp_path / "on.csv"], evaluator.TIMELINE_CSV_HEADER,
            [([range(n), np.asarray(tl.offered, np.float64)], [tl.active_ts])]))
        block = len(next(traffic.format_row_variants(
            [range(traffic.ROW_BLOCK), samples[:traffic.ROW_BLOCK]],
            [tl.active_ts[:traffic.ROW_BLOCK]])))
        both = traced_peak(lambda: write_timeline_csv(tl, config, tmp_path))
        assert both <= on_file + block, (both, on_file, block)


class TestDominanceProperty:
    def test_many_random_scenarios(self):
        rng = np.random.default_rng(44)
        for trial in range(25):
            num_trx = int(rng.integers(2, 5))
            config = CellConfig("c", num_trx, int(rng.integers(1, 4)))
            samples = np.maximum(rng.normal(rng.uniform(0, 20), 5, size=300), 0)
            trace = TrafficTrace("c", 10.0, samples)
            params = PowerSavingParams(hysteresis=int(rng.integers(1, 20)))
            on = run_cell(config, params, trace)
            off = oracles.saving_off_run(config, trace)
            assert np.all(on.active_ts <= off.active_ts)
