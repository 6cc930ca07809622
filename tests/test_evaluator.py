import io

import numpy as np
import pytest

from trxsave.cell_model import CellConfig
from trxsave.errors import ConfigurationError, DataError
from trxsave.evaluator import (
    CellComparison,
    CellStats,
    ComparisonSummary,
    NetworkReport,
    NetworkScenario,
    compare,
    emit_report,
    read_summary_json,
    simulate_network,
    summarize,
    summary_from_dict,
    summary_to_dict,
    write_comparison_csv,
    write_summary_json,
    write_timeline_csv,
)
from trxsave.saving_engine import PowerSavingParams
from trxsave.traffic import TrafficTrace


def make_scenario(n_cells=3, n_scans=400, hysteresis=3, num_trx=3, level=0.0, warmup=0):
    cells = [CellConfig(f"cell_{i:02d}", num_trx, 3) for i in range(n_cells)]
    traces = {
        c.cell_id: TrafficTrace(c.cell_id, 10.0, np.full(n_scans, level))
        for c in cells
    }
    return NetworkScenario(
        cells=cells,
        traces=traces,
        base_params=PowerSavingParams(),
        hysteresis={c.cell_id: hysteresis for c in cells},
        warmup_scans=warmup,
    )


def report_with_totals(trx_scans, ts_scans=0, blocked=0, cells=("a",), ps=True):
    per_cell = {
        c: CellStats(cell_id=c, num_trx=3, hysteresis=5 if ps else None,
                     max_ts=24, mean_ts=24.0, max_trx=3, mean_trx=3.0,
                     blocked=blocked, n_scans=10)
        for c in cells
    }
    return NetworkReport(ps_enabled=ps, warmup_scans=0, per_cell=per_cell,
                         trx_scans=trx_scans, ts_scans=ts_scans, blocked=blocked)


class TestSimulateNetwork:
    def test_saving_off_keeps_full_slot_count(self):
        timelines = simulate_network(make_scenario(), ps_enabled=False)
        for tl in timelines.values():
            assert np.all(tl.active_ts == 24)

    def test_low_traffic_cell_converges_at_or_below_two_trx(self):
        scenario = make_scenario(n_cells=1, n_scans=2000, hysteresis=3, level=0.3)
        timelines = simulate_network(scenario, ps_enabled=True)
        tl = timelines["cell_00"]
        assert tl.active_ts[-1000:].max() <= 16

    def test_empty_network_gives_empty_report(self):
        scenario = NetworkScenario(cells=[], traces={}, base_params=PowerSavingParams())
        report = summarize(simulate_network(scenario, True), ps_enabled=True)
        assert report.per_cell == {}
        assert report.trx_scans == 0

    def test_missing_trace_rejected(self):
        scenario = NetworkScenario(
            cells=[CellConfig("a", 3, 3)], traces={},
            base_params=PowerSavingParams(), default_hysteresis=5,
        )
        with pytest.raises(ConfigurationError, match="trace"):
            simulate_network(scenario, True)

    def test_missing_hysteresis_without_default_rejected(self):
        scenario = NetworkScenario(
            cells=[CellConfig("a", 3, 3)],
            traces={"a": TrafficTrace("a", 10.0, np.zeros(10))},
            base_params=PowerSavingParams(),
        )
        with pytest.raises(ConfigurationError, match="hysteresis"):
            simulate_network(scenario, True)

    def test_per_cell_hysteresis_override(self):
        scenario = make_scenario(n_cells=2, n_scans=300)
        scenario = NetworkScenario(
            cells=scenario.cells, traces=scenario.traces,
            base_params=scenario.base_params,
            hysteresis={"cell_00": 3, "cell_01": 5},
        )
        timelines = simulate_network(scenario, ps_enabled=True)
        assert timelines["cell_00"].params.hysteresis == 3
        assert timelines["cell_01"].params.hysteresis == 5
        # h=3 reaches one TRX by scan 130; h=5 parks at two
        assert timelines["cell_00"].active_trx[-1] == 1
        assert timelines["cell_01"].active_trx[-1] == 2


class TestSummarize:
    def test_warmup_excludes_ramp(self):
        scenario = make_scenario(n_cells=1, n_scans=300, hysteresis=3)
        timelines = simulate_network(scenario, ps_enabled=True)
        full = summarize(timelines, True, warmup_scans=0)
        settled = summarize(timelines, True, warmup_scans=150)
        assert full.per_cell["cell_00"].max_ts == 24   # includes the all-on start
        assert settled.per_cell["cell_00"].max_ts == 8  # one TRX holds after scan 130

    def test_warmup_longer_than_trace_rejected(self):
        scenario = make_scenario(n_cells=1, n_scans=50)
        timelines = simulate_network(scenario, ps_enabled=True)
        with pytest.raises(ConfigurationError):
            summarize(timelines, True, warmup_scans=50)


class TestCompare:
    def test_published_totals_reduce_by_20_9_pct(self):
        # 5754 active TRX-scans without saving vs 4550 with
        summary = compare(report_with_totals(4550), report_with_totals(5754, ps=False))
        assert summary.trx_scans_without == 5754
        assert summary.trx_scans_with == 4550
        assert f"{summary.reduction_pct:.1f}" == "20.9"

    def test_identical_reports_zero_reduction(self):
        summary = compare(report_with_totals(100), report_with_totals(100, ps=False))
        assert summary.reduction_pct == 0.0

    def test_saturated_cell_shows_no_reduction(self):
        scenario = make_scenario(n_cells=1, n_scans=1200, hysteresis=3, level=30.0)
        on = summarize(simulate_network(scenario, True), True)
        off = summarize(simulate_network(scenario, False), False)
        summary = compare(on, off)
        row = summary.rows[0]
        assert row.ts_before == row.max_ts_after == 24
        assert summary.blocking_delta == 0

    def test_cell_set_mismatch_rejected(self):
        with pytest.raises(DataError):
            compare(report_with_totals(10, cells=("a",)),
                    report_with_totals(10, cells=("a", "b"), ps=False))

    def test_rows_ordered_by_cell_id(self):
        scenario = make_scenario(n_cells=4, n_scans=100)
        on = summarize(simulate_network(scenario, True), True)
        off = summarize(simulate_network(scenario, False), False)
        summary = compare(on, off)
        ids = [r.cell_id for r in summary.rows]
        assert ids == sorted(ids)


class TestEmission:
    def small_summary(self):
        scenario = make_scenario(n_cells=2, n_scans=400, hysteresis=3)
        on = summarize(simulate_network(scenario, True), True, warmup_scans=200)
        off = summarize(simulate_network(scenario, False), False, warmup_scans=200)
        return compare(on, off, metadata={"seed": 0, "params": {"hysteresis": 3}})

    def test_comparison_csv_header_matches_operator_table(self):
        out = io.StringIO()
        write_comparison_csv(self.small_summary(), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "cell_id,ts_before,max_ts_after"
        assert lines[1].startswith("cell_00,24,")

    def test_json_round_trip_is_identity(self, tmp_path):
        summary = self.small_summary()
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)
        assert read_summary_json(path) == summary
        assert summary_from_dict(summary_to_dict(summary)) == summary

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
        scenario = make_scenario(n_cells=1, n_scans=50)
        tl = simulate_network(scenario, ps_enabled=False)["cell_00"]
        path = tmp_path / "tl.csv"
        write_timeline_csv(tl, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scan,erlang,active_ts"
        assert len(lines) == 51
        assert lines[1] == "0,0,24"
        assert all(line.endswith(",24") for line in lines[1:])

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

    @pytest.mark.parametrize("text,match", [
        ('{"schema_version": 1', "invalid JSON"),
        ("{}", "missing key 'rows'"),
        ('{"rows": [], "extra": 1}', "unexpected keyword argument 'extra'"),
        ('{"rows": [{"cell_id": "a"}]}', "missing 5 required"),
    ])
    def test_bad_summary_json_is_data_error(self, tmp_path, text, match):
        path = tmp_path / "summary.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=match):
            read_summary_json(path)


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


class TestDominanceProperty:
    def test_many_random_scenarios(self):
        rng = np.random.default_rng(44)
        for trial in range(25):
            num_trx = int(rng.integers(2, 5))
            config = CellConfig("c", num_trx, int(rng.integers(1, 4)))
            samples = np.maximum(rng.normal(rng.uniform(0, 20), 5, size=300), 0)
            trace = TrafficTrace("c", 10.0, samples)
            params = PowerSavingParams(hysteresis=int(rng.integers(1, 20)))
            scenario = NetworkScenario(
                cells=[config], traces={"c": trace}, base_params=params,
                default_hysteresis=params.hysteresis,
            )
            on = simulate_network(scenario, True)["c"]
            off = simulate_network(scenario, False)["c"]
            assert np.all(on.active_ts <= off.active_ts)
