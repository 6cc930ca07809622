import io
import math
import re

import numpy as np
import pytest

from trxsave.cell_model import CellConfig
from trxsave.errors import ConfigurationError, DataError
from trxsave.traffic import (
    DiurnalProfileSpec,
    KpiRecord,
    TrafficTrace,
    busy_hour_average,
    busy_hour_erlang,
    demand_series,
    emit_kpi_csv,
    fmt_num,
    generate_diurnal_trace,
    ingest_kpi_csv,
    read_json,
    read_traffic_csv,
    trace_to_kpis,
    write_traffic_csv,
)

import oracles

# dataset-sample rows used across the CSV tests
SAMPLE_KPI_ROWS = [
    "Cell_1,2.69845,130.523,0.00579,5.08791,24",
    "Cell_2,1.62493,136.034,0.00596,3.12088,24",
    "Cell_3,7.31606,124.882,0.11292,41.95604,32",
    "Cell_4,5.25773,123.006,0.01373,16,32",
    "Cell_5,4.42022,132.727,0.00066,2.04396,24",
]
KPI_HEADER = "cell_id,tch_traffic_erl,dl_edge_throughput_kbps,pdch_congestion_pct,preempt_pdch,ts_count"


def sample_kpi_csv():
    return io.StringIO(KPI_HEADER + "\n" + "\n".join(SAMPLE_KPI_ROWS) + "\n")


class TestDiurnalTrace:
    def test_sample_count_covers_all_days(self):
        spec = DiurnalProfileSpec(0.5, 5.0, days=3, scan_period_s=10.0)
        trace = generate_diurnal_trace(spec)
        assert len(trace.samples) == 3 * 8640

    def test_zero_base_no_noise_trough_is_exactly_zero(self):
        spec = DiurnalProfileSpec(0.0, 4.0, peak_hour=14, trough_hour=4, days=2)
        trace = generate_diurnal_trace(spec)
        per_day = 8640
        for day in range(2):
            trough_idx = day * per_day + 4 * 360
            assert trace.samples[trough_idx] == 0.0

    def test_peak_value_attained_exactly(self):
        spec = DiurnalProfileSpec(0.5, 7.3, peak_hour=14, trough_hour=4)
        trace = generate_diurnal_trace(spec)
        oracle_peak = oracles.diurnal_template_value(0.5, 7.3, 14, 4, hour=14)
        assert oracle_peak == 7.3
        assert trace.samples.max() == 7.3
        assert trace.samples[14 * 360] == 7.3

    def test_template_matches_direct_evaluation_at_hour_marks(self):
        spec = DiurnalProfileSpec(0.2, 6.0, peak_hour=15, trough_hour=3)
        trace = generate_diurnal_trace(spec)
        for hour in range(24):
            expected = oracles.diurnal_template_value(0.2, 6.0, 15, 3, hour)
            assert trace.samples[hour * 360] == pytest.approx(expected, abs=1e-6)

    def test_same_spec_same_trace(self):
        spec = DiurnalProfileSpec(0.5, 5.0, noise_sigma=0.4, seed=12, days=2)
        a = generate_diurnal_trace(spec)
        b = generate_diurnal_trace(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_keeps_samples_finite_nonnegative(self):
        spec = DiurnalProfileSpec(0.1, 2.0, noise_sigma=3.0, seed=5)
        trace = generate_diurnal_trace(spec)
        assert np.all(np.isfinite(trace.samples))
        assert np.all(trace.samples >= 0)

    @pytest.mark.parametrize("kwargs", [
        dict(base_erlang=-0.1, peak_erlang=1.0),
        dict(base_erlang=2.0, peak_erlang=1.0),
        dict(base_erlang=0.0, peak_erlang=1.0, peak_hour=24.0),
        dict(base_erlang=0.0, peak_erlang=1.0, peak_hour=4.0, trough_hour=4.0),
        dict(base_erlang=0.0, peak_erlang=1.0, days=0),
        dict(base_erlang=0.0, peak_erlang=1.0, noise_sigma=-1.0),
        dict(base_erlang=0.0, peak_erlang=1.0, scan_period_s=7.0),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            generate_diurnal_trace(DiurnalProfileSpec(**kwargs))


class TestDemandSeries:
    def test_round_is_half_up(self):
        out = demand_series(np.array([0.0, 0.4, 0.5, 1.49, 2.5]))
        assert list(out) == [0, 0, 1, 1, 3]

    def test_constant_trace_mean_occupancy(self):
        # one Erlang is one busy channel: constant E yields round(E) calls
        for erl in (0.2, 3.0, 4.7):
            out = demand_series(np.full(100, erl))
            assert np.all(out == math.floor(erl + 0.5))


class TestKpiCsv:
    def test_dataset_sample_rows_parse_exactly(self):
        records = ingest_kpi_csv(sample_kpi_csv())
        assert len(records) == 5
        first = records[0]
        assert first == KpiRecord("Cell_1", 2.69845, 130.523, 0.00579, 5.08791, 24)
        third = records[2]
        assert third.cell_id == "Cell_3"
        assert third.tch_traffic_erl == 7.31606
        assert third.ts_count == 32

    def test_row_order_preserved(self):
        records = ingest_kpi_csv(sample_kpi_csv())
        assert [r.cell_id for r in records] == [f"Cell_{i}" for i in range(1, 6)]

    def test_empty_file_after_header(self):
        assert ingest_kpi_csv(io.StringIO(KPI_HEADER + "\n")) == []

    def test_path_source(self, tmp_path):
        path = tmp_path / "kpis.csv"
        path.write_text(KPI_HEADER + "\n" + SAMPLE_KPI_ROWS[0] + "\n")
        assert len(ingest_kpi_csv(path)) == 1

    def test_missing_column_rejected(self):
        bad = io.StringIO("cell_id,tch_traffic_erl\nCell_1,2.0\n")
        with pytest.raises(DataError, match="header"):
            ingest_kpi_csv(bad)

    def test_non_numeric_field_names_row(self):
        bad = io.StringIO(KPI_HEADER + "\nCell_1,abc,130.5,0.0,5.0,24\n")
        with pytest.raises(DataError, match="row 1"):
            ingest_kpi_csv(bad)

    def test_negative_erlang_names_row(self):
        bad = io.StringIO(KPI_HEADER + "\nCell_1,2.0,130.5,0.0,5.0,24\nCell_2,-1.0,130.5,0.0,5.0,24\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_kpi_csv(bad)

    def test_duplicate_cell_id_names_row(self):
        bad = io.StringIO(KPI_HEADER + "\n" + "\n".join(SAMPLE_KPI_ROWS[:2] + SAMPLE_KPI_ROWS[:1]))
        with pytest.raises(DataError, match="row 3: duplicate cell_id 'Cell_1'"):
            ingest_kpi_csv(bad)

    def test_non_utf8_byte_names_file_and_row(self, tmp_path):
        path = tmp_path / "kpis.csv"
        path.write_bytes((KPI_HEADER + "\n" + "\n".join(SAMPLE_KPI_ROWS) + "\n")
                         .encode().replace(b"Cell_4", b"Cell_\xff4"))
        with pytest.raises(DataError, match=re.escape(f"{path}: row 4: not UTF-8 text")):
            ingest_kpi_csv(path)

    def test_congestion_range_enforced(self):
        bad = io.StringIO(KPI_HEADER + "\nCell_1,2.0,130.5,101.0,5.0,24\n")
        with pytest.raises(DataError):
            ingest_kpi_csv(bad)

    def test_round_trip_preserves_printed_digits(self):
        records = ingest_kpi_csv(sample_kpi_csv())
        out = io.StringIO()
        emit_kpi_csv(records, out)
        assert out.getvalue().splitlines() == [KPI_HEADER] + SAMPLE_KPI_ROWS

    def test_round_trip_random_records(self):
        rng = np.random.default_rng(2)
        records = [
            KpiRecord(f"c{i}", float(np.round(rng.uniform(0, 40), 6)),
                      float(np.round(rng.uniform(50, 200), 6)),
                      float(np.round(rng.uniform(0, 100), 6)),
                      float(np.round(rng.uniform(0, 80), 6)), int(rng.integers(8, 96)))
            for i in range(50)
        ]
        out = io.StringIO()
        emit_kpi_csv(records, out)
        back = ingest_kpi_csv(io.StringIO(out.getvalue()))
        assert back == records


class TestBusyHourAverage:
    def rec(self, erl, cell="c1", ts=24):
        return KpiRecord(cell, erl, 130.0, 0.01, 5.0, ts)

    def test_single_reading_is_identity(self):
        r = self.rec(3.3)
        assert busy_hour_average([r]) == r

    def test_two_readings_mean(self):
        avg = busy_hour_average([self.rec(2.0), self.rec(4.0)])
        assert avg.tch_traffic_erl == 3.0

    def test_ninety_days_matches_summation_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0, 10, size=90)
        readings = [self.rec(float(v)) for v in vals]
        avg = busy_hour_average(readings)
        oracle = math.fsum(float(v) for v in vals) / 90
        assert avg.tch_traffic_erl == pytest.approx(oracle, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        readings = [self.rec(float(v)) for v in rng.uniform(0, 9, size=30)]
        shuffled = list(readings)
        rng.shuffle(shuffled)
        assert busy_hour_average(readings) == busy_hour_average(shuffled)

    def test_mixed_cells_rejected(self):
        with pytest.raises(DataError, match="mixed"):
            busy_hour_average([self.rec(1.0, "a"), self.rec(2.0, "b")])

    def test_changed_ts_count_rejected(self):
        with pytest.raises(DataError, match="ts_count"):
            busy_hour_average([self.rec(1.0, ts=24), self.rec(2.0, ts=32)])

    def test_no_readings_rejected(self):
        with pytest.raises(DataError):
            busy_hour_average([])


class TestTraceToKpis:
    CFG = CellConfig("c1", 3, 3)

    def test_zero_trace_zero_kpis(self):
        trace = TrafficTrace("c1", 10.0, np.zeros(8640))
        rec = trace_to_kpis(trace, self.CFG)
        assert rec.tch_traffic_erl == 0.0
        assert rec.pdch_congestion_pct == 0.0
        assert rec.preempt_pdch == 0.0
        assert rec.ts_count == 24

    def test_constant_trace_busy_hour_equals_level(self):
        trace = TrafficTrace("c1", 10.0, np.full(2 * 8640, 5.0))
        rec = trace_to_kpis(trace, self.CFG)
        assert rec.tch_traffic_erl == 5.0

    def test_busy_hour_picks_peak_window(self):
        samples = np.zeros(8640)
        samples[1000:1360] = 10.0  # one busy hour
        assert busy_hour_erlang(TrafficTrace("c1", 10.0, samples)) == 10.0

    def test_congestion_monotone_in_load(self):
        levels = [0.0, 1.0, 3.0, 8.0, 15.0, 30.0]
        recs = [
            trace_to_kpis(TrafficTrace("c", 10.0, np.full(8640, lv)), self.CFG)
            for lv in levels
        ]
        cong = [r.pdch_congestion_pct for r in recs]
        pre = [r.preempt_pdch for r in recs]
        thr = [r.dl_edge_throughput_kbps for r in recs]
        assert cong == sorted(cong)
        assert pre == sorted(pre)
        assert thr == sorted(thr, reverse=True)


class TestTrafficCsv:
    def test_round_trip(self):
        t1 = generate_diurnal_trace(DiurnalProfileSpec(0.2, 3.0, noise_sigma=0.3, seed=4), "a")
        t2 = generate_diurnal_trace(DiurnalProfileSpec(1.0, 6.0, noise_sigma=0.2, seed=5), "b")
        out = io.StringIO()
        write_traffic_csv([t1, t2], out)
        back = read_traffic_csv(io.StringIO(out.getvalue()), scan_period_s=10.0)
        assert [t.cell_id for t in back] == ["a", "b"]
        assert np.array_equal(back[0].samples, t1.samples)
        assert np.array_equal(back[1].samples, t2.samples)

    def test_non_contiguous_scan_index_rejected(self):
        text = "cell_id,scan_index,offered_erlang\na,0,1.0\na,2,1.0\n"
        with pytest.raises(DataError, match="contiguous"):
            read_traffic_csv(io.StringIO(text))

    def test_negative_erlang_rejected(self):
        text = "cell_id,scan_index,offered_erlang\na,0,-1.0\n"
        with pytest.raises(DataError):
            read_traffic_csv(io.StringIO(text))

    def test_garbage_rejected_with_row(self):
        text = "cell_id,scan_index,offered_erlang\na,0,1.0\na,1,oops\n"
        with pytest.raises(DataError, match="row 2"):
            read_traffic_csv(io.StringIO(text))


    @pytest.mark.parametrize("line_no,where", [(0, "header: "), (2500, "row 2500: ")],
                             ids=["header", "row_2500"])
    def test_non_utf8_byte_names_file_and_row(self, tmp_path, line_no, where):
        # 2,500 rows in, the bad byte sits well past the first decoded chunk
        lines = [b"cell_id,scan_index,offered_erlang"] + [b"a,%d,1.5" % i for i in range(3000)]
        lines[line_no] += b"\xc3"
        path = tmp_path / "traffic.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: {where}not UTF-8 text")):
            read_traffic_csv(path)


class TestReadJson:
    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_bytes(b'{"cells": [], "note": "\xff"}')
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            read_json(path)


class TestFmtNum:
    @pytest.mark.parametrize("value,expected", [
        (16.0, "16"), (2.69845, "2.69845"), (0.00066, "0.00066"),
        (41.95604, "41.95604"), (0.0, "0"), (130.523, "130.523"),
    ])
    def test_formatting(self, value, expected):
        assert fmt_num(value) == expected
        assert float(expected) == value
