import io
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from trxsave import traffic
from trxsave.cell_model import CellConfig
from trxsave.cli import build_demo_fleet
from trxsave.errors import ConfigurationError, DataError
from trxsave.traffic import (
    DiurnalProfileSpec,
    KpiRecord,
    TrafficTrace,
    busy_hour_erlang,
    demand_series,
    emit_kpi_csv,
    fmt_num,
    format_rows,
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


def text_file(tmp_path, text: str, name: str = "kpis.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def sample_kpi_csv(tmp_path):
    return text_file(tmp_path, KPI_HEADER + "\n" + "\n".join(SAMPLE_KPI_ROWS) + "\n")


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


    def test_demand_past_int32_rejected(self):
        largest = np.nextafter(traffic.MAX_ERLANG, 0)
        assert demand_series(np.array([largest]))[0] == traffic.MAX_DEMAND
        TrafficTrace("c9", 10.0, np.array([1.0, largest])).validate()
        trace = TrafficTrace("c9", 10.0, np.array([1.0, largest, traffic.MAX_ERLANG, 3e9]))
        with pytest.raises(DataError, match=r"trace 'c9': scan 2: offered Erlang 2147483647\.5 "):
            trace.validate()


class TestKpiCsv:
    def test_dataset_sample_rows_parse_exactly(self, tmp_path):
        records = ingest_kpi_csv(sample_kpi_csv(tmp_path))
        assert len(records) == 5
        first = records[0]
        assert first == KpiRecord("Cell_1", 2.69845, 130.523, 0.00579, 5.08791, 24)
        third = records[2]
        assert third.cell_id == "Cell_3"
        assert third.tch_traffic_erl == 7.31606
        assert third.ts_count == 32

    def test_row_order_preserved(self, tmp_path):
        records = ingest_kpi_csv(sample_kpi_csv(tmp_path))
        assert [r.cell_id for r in records] == [f"Cell_{i}" for i in range(1, 6)]

    def test_empty_file_after_header(self, tmp_path):
        assert ingest_kpi_csv(text_file(tmp_path, KPI_HEADER + "\n")) == []

    def test_path_source(self, tmp_path):
        path = tmp_path / "kpis.csv"
        path.write_text(KPI_HEADER + "\n" + SAMPLE_KPI_ROWS[0] + "\n")
        assert len(ingest_kpi_csv(path)) == 1

    def test_missing_column_rejected(self, tmp_path):
        bad = text_file(tmp_path, "cell_id,tch_traffic_erl\nCell_1,2.0\n")
        with pytest.raises(DataError, match="header"):
            ingest_kpi_csv(bad)

    def test_non_numeric_field_names_row(self, tmp_path):
        bad = text_file(tmp_path, KPI_HEADER + "\nCell_1,abc,130.5,0.0,5.0,24\n")
        with pytest.raises(DataError, match="row 1"):
            ingest_kpi_csv(bad)

    def test_negative_erlang_names_row(self, tmp_path):
        bad = text_file(tmp_path, KPI_HEADER + "\nCell_1,2.0,130.5,0.0,5.0,24\n"
                        "Cell_2,-1.0,130.5,0.0,5.0,24\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_kpi_csv(bad)

    def test_duplicate_cell_id_names_row(self, tmp_path):
        bad = text_file(tmp_path, KPI_HEADER + "\n"
                        + "\n".join(SAMPLE_KPI_ROWS[:2] + SAMPLE_KPI_ROWS[:1]))
        with pytest.raises(DataError, match="row 3: duplicate cell_id 'Cell_1'"):
            ingest_kpi_csv(bad)

    def test_non_utf8_byte_names_file_and_row(self, tmp_path):
        path = tmp_path / "kpis.csv"
        path.write_bytes((KPI_HEADER + "\n" + "\n".join(SAMPLE_KPI_ROWS) + "\n")
                         .encode().replace(b"Cell_4", b"Cell_\xff4"))
        with pytest.raises(DataError, match=re.escape(f"{path}: row 4: not UTF-8 text")):
            ingest_kpi_csv(path)

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_names_its_row_whatever_the_line_ends(self, tmp_path, line_end):
        path = tmp_path / "kpis.csv"
        rows = [KPI_HEADER.encode(), *(r.encode() for r in SAMPLE_KPI_ROWS)]
        rows[5] = rows[5].replace(b"Cell_5", b"Cell_\xff5")
        path.write_bytes(line_end.join(rows) + line_end)
        with pytest.raises(DataError) as got:
            ingest_kpi_csv(path)
        assert str(got.value) == f"{path}: row 5: not UTF-8 text (invalid start byte)"
        # in the header
        path.write_bytes(line_end.join([b"\xff" + rows[0], *rows[1:]]))
        with pytest.raises(DataError, match=re.escape(f"{path}: header: not UTF-8 text")):
            ingest_kpi_csv(path)

    def test_earlier_bad_row_is_named_before_a_non_utf8_byte(self, tmp_path):
        path = tmp_path / "kpis.csv"
        rows = [KPI_HEADER, *SAMPLE_KPI_ROWS]
        rows[2] += ",7"  # seven fields
        data = ("\n".join(rows) + "\n").encode().replace(b"Cell_5", b"Cell_\xff5")
        path.write_bytes(data)
        message = f"{path}: row 2: expected 6 fields, got 7"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ingest_kpi_csv(path)

    def test_quoted_field_is_rejected_at_its_row(self, tmp_path):
        # a quoted id spanning two lines: rows are physical lines, and the first
        # one names the quote, before a bad value or a bad byte on a later line
        rows = [KPI_HEADER, '"Cell', '1",2.0,130.5,0.0,5.0,24', SAMPLE_KPI_ROWS[1],
                SAMPLE_KPI_ROWS[2]]
        for edit in (lambda r: r.replace("Cell_3,7.31606", "Cell_3,x"),
                     lambda r: r.replace("Cell_3", "Cell_\udcff3")):
            path = tmp_path / "kpis.csv"
            path.write_bytes(edit("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
            with pytest.raises(DataError) as got:
                ingest_kpi_csv(path)
            assert str(got.value) == f"{path}: row 1: a field holds '\"' (fields are never quoted)"

    def test_congestion_range_enforced(self, tmp_path):
        bad = text_file(tmp_path, KPI_HEADER + "\nCell_1,2.0,130.5,101.0,5.0,24\n")
        with pytest.raises(DataError):
            ingest_kpi_csv(bad)

    def test_round_trip_preserves_printed_digits(self, tmp_path):
        records = ingest_kpi_csv(sample_kpi_csv(tmp_path))
        out = tmp_path / "out.csv"
        emit_kpi_csv(records, out)
        assert out.read_text().splitlines() == [KPI_HEADER] + SAMPLE_KPI_ROWS

    def test_round_trip_random_records(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            KpiRecord(f"c{i}", float(np.round(rng.uniform(0, 40), 6)),
                      float(np.round(rng.uniform(50, 200), 6)),
                      float(np.round(rng.uniform(0, 100), 6)),
                      float(np.round(rng.uniform(0, 80), 6)), int(rng.integers(8, 96)))
            for i in range(50)
        ]
        out = tmp_path / "out.csv"
        emit_kpi_csv(records, out)
        assert ingest_kpi_csv(out) == records


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


def traffic_file(tmp_path, text: str):
    return text_file(tmp_path, text, "traffic.csv")


class TestTrafficCsv:
    def test_round_trip(self, tmp_path):
        t1 = generate_diurnal_trace(DiurnalProfileSpec(0.2, 3.0, noise_sigma=0.3, seed=4), "a")
        t2 = generate_diurnal_trace(DiurnalProfileSpec(1.0, 6.0, noise_sigma=0.2, seed=5), "b")
        path = tmp_path / "traffic.csv"
        write_traffic_csv([t1, t2], path)
        back = read_traffic_csv(path, scan_period_s=10.0)
        assert [t.cell_id for t in back] == ["a", "b"]
        assert np.array_equal(back[0].samples, t1.samples)
        assert np.array_equal(back[1].samples, t2.samples)

    def test_non_contiguous_scan_index_rejected(self, tmp_path):
        text = "cell_id,scan_index,offered_erlang\na,0,1.0\na,2,1.0\n"
        with pytest.raises(DataError, match="contiguous"):
            read_traffic_csv(traffic_file(tmp_path, text))

    def test_negative_erlang_rejected(self, tmp_path):
        text = "cell_id,scan_index,offered_erlang\na,0,-1.0\n"
        with pytest.raises(DataError):
            read_traffic_csv(traffic_file(tmp_path, text))

    def test_garbage_rejected_with_row(self, tmp_path):
        text = "cell_id,scan_index,offered_erlang\na,0,1.0\na,1,oops\n"
        with pytest.raises(DataError, match="row 2"):
            read_traffic_csv(traffic_file(tmp_path, text))


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

    @pytest.mark.parametrize("chunk", [16, 64, traffic.PARSE_CHUNK], ids=["16B", "64B", "default"])
    def test_first_bad_row_wins_whatever_the_chunk_size(self, tmp_path, monkeypatch, chunk):
        # rows 13 and 29 share a chunk at the default size, not at 16 B or 64 B
        monkeypatch.setattr(traffic, "PARSE_CHUNK", chunk)
        lines = [b"cell_id,scan_index,offered_erlang"] + [b"a,%d,1.5" % i for i in range(40)]
        lines[13] += b",2"
        lines[29] += b"\xc3"
        path = tmp_path / "traffic.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=re.escape("row 13: expected 3 fields, got 4")):
            read_traffic_csv(path)
        with pytest.raises(DataError, match=re.escape("row 13: expected 3 fields, got 4")):
            oracles.row_loop_traffic(path)

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_header_line_end_is_not_part_of_a_field(self, tmp_path, line_end):
        text = TRAFFIC_HEADER.replace("\n", line_end) + f"a,0,1{line_end}"
        (trace,) = read_traffic_csv(traffic_file(tmp_path, text))
        assert (trace.cell_id, trace.samples.tolist()) == ("a", [1.0])
        # a header that differs is shown without its line end
        text = text.replace("offered_erlang", "erlang", 1)
        path = traffic_file(tmp_path, text)
        expected = (f"{path}: traffic CSV header mismatch: expected "
                    "cell_id,scan_index,offered_erlang, got 'cell_id,scan_index,erlang'")
        with pytest.raises(DataError) as got:
            read_traffic_csv(path)
        assert str(got.value) == expected

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_carriage_return_files_give_the_records_of_lf(self, tmp_path, line_end):
        _, traces, kpis = build_demo_fleet(3, 1, seed=11)
        write_traffic_csv(traces, tmp_path / "traffic.csv")
        emit_kpi_csv(kpis, tmp_path / "kpis.csv")
        for name in ("traffic.csv", "kpis.csv"):
            data = (tmp_path / name).read_bytes()
            (tmp_path / f"other_{name}").write_bytes(data.replace(b"\n", line_end))
        assert (trace_bytes(read_traffic_csv(tmp_path / "other_traffic.csv"))
                == trace_bytes(read_traffic_csv(tmp_path / "traffic.csv")) == trace_bytes(traces))
        assert ingest_kpi_csv(tmp_path / "other_kpis.csv") == ingest_kpi_csv(tmp_path / "kpis.csv")


def fmt_lines(values) -> bytes:
    """The reference: one ``fmt_num`` call per value."""
    return "".join(fmt_num(v) + "\n" for v in np.asarray(values, np.float64).tolist()).encode()


def around(x):
    """x and the doubles one ulp below and above it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestFormatRows:
    def test_every_sample_of_a_generated_fleet(self):
        _, traces, _ = build_demo_fleet(12, 1, seed=11)
        samples = np.concatenate([t.samples for t in traces])
        assert format_rows([samples]) == fmt_lines(samples)

    def test_bursty_noise(self):
        rng = np.random.default_rng(3)
        load = np.repeat(rng.choice([1.0, 28.0], 600), rng.geometric(1 / 40, 600))
        samples = np.round(np.maximum(load + rng.normal(0.0, 1.5, len(load)), 0.0), 6)
        samples[::97] = rng.integers(1, 100, len(samples[::97])) * 1e-6  # exponent form
        assert (samples == 0).any() and (samples < 1e-4).any()
        assert format_rows([samples]) == fmt_lines(samples)

    def test_adversarial_doubles(self):
        rng = np.random.default_rng(4)
        values = [
            *around(1e-4), *around(1e9), *around(1e15), *around(1e16),
            *(float(10**k) for k in range(18)), 1e15 - 1, 1e15 + 2, 2.0**53, 2.0**53 + 2,
            999999999.999999, 123456789.000001, 0.0001005, 0.000999999,
            0.1234567, 1.0000001, 12345.6789012, 1 / 3, math.pi, 2.5e-7,
            5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, -1.5, -1e-5, 1e300,
        ]
        grid = rng.integers(0, 10**15, 2000) / 1e6  # on the 1e-6 grid, up to 15 digits
        raw = rng.random(2000) * 10.0 ** rng.integers(-9, 12, 2000)  # any digits
        for batch in (values, grid, raw, np.concatenate(around(grid[:50]))):
            assert format_rows([np.array(batch)]) == fmt_lines(batch)

    def test_rows_match_the_per_value_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(traffic, "ROW_BLOCK", 1000)  # several blocks per trace
        trace = generate_diurnal_trace(DiurnalProfileSpec(0.0, 3.0, noise_sigma=0.4, seed=9),
                                       "célula 7")
        path = tmp_path / "traffic.csv"
        write_traffic_csv([trace], path)
        assert path.read_bytes().decode() == "cell_id,scan_index,offered_erlang\n" + "".join(
            f"célula 7,{i},{fmt_num(v)}\n" for i, v in enumerate(trace.samples.tolist()))

    def test_integer_samples_print_as_fmt_num(self, tmp_path):
        trace = TrafficTrace("a", 10.0, np.array([0, 3, 10**9, traffic.MAX_DEMAND]))
        path = tmp_path / "traffic.csv"
        write_traffic_csv([trace], path)
        assert path.read_bytes().decode().splitlines()[1:] == [
            f"a,{i},{fmt_num(v)}" for i, v in enumerate(trace.samples.tolist())]
        # from 1e15 up fmt_num prints exponent text, but no valid trace gets there
        with pytest.raises(DataError, match="scan 1"):
            write_traffic_csv([TrafficTrace("a", 10.0, np.array([3, 10**15]))], path)

    def test_negative_integers_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            format_rows([np.array([3, -1])])


TRAFFIC_HEADER = "cell_id,scan_index,offered_erlang\n"

# files for both parse paths: each gives the same traces or the same DataError
PARSE_CORPUS = {
    "plain": "a,0,1.5\na,1,0\na,2,2.25\nb,0,3\nb,1,0.000001\nb,2,7e-05\n",
    "exponent": "a,0,1e-3\na,1,2E2\na,2,.5\na,3,5.\na,4,+1\n",
    "negative_zero": "a,0,-0\na,1,-0.0\n",
    "empty_id": ",0,1\n,1,2\n",
    "long_id": "".join(f"{'x' * 300},{i},{i}.5\n" for i in range(40)) + "b,0,1\n",
    "no_final_newline": "a,0,1.5\na,1,2",
    "header_only": "",
    "blank_rows": "a,0,1.5\n\na,1,2\n\n",
    "crlf_rows": "a,0,1.5\r\na,1,2\r\n",
    "cr_rows": "a,0,1.5\ra,1,2\r",
    "space_value": "a,0, 1.5\n",
    "space_id": "cell 1,0,1.5\ncell 1,1,2\n",
    "tab": "a,0,1\t\n",
    "control_byte": "a,0,1\x1c\n",
    "plus_index": "a,+0,1\n",
    "leading_zero_index": "a,00,1\na,01,2\n",
    "underscore": "a,0,1_0\n",
    "underscore_index": "a,0_0,1\n",
    "float_index": "a,0.0,1\n",
    "wide_index": "a,99999999999999999999,1\n",
    "nan": "a,0,nan\n",
    "inf": "a,0,inf\n",
    "overflow": "a,0,1e999\n",
    "negative": "a,0,1\na,1,-1\n",
    "hash": "a,0,1 # note\n",
    "hash_row": "# note\na,0,1\n",
    "quoted_value": 'a,0,"1.5"\n',
    "quoted_id": '"a",0,1.5\n"a",1,2\n',
    "unicode_id": "célula,0,1\ncélula,1,2\n",
    "space_ids": " a,0,1\n a,1,2\ncell 0001 ,0,3\ncell 0001 ,1,4\ncell 0002,0,5\n",
    "utf8_ids": "célula 1,0,1\n小区 7,0,2\n小区 7,1,3\n\U0001f6f0,0,4\n",
    "line_separator_ids": "a\u2028b,0,1\na\u2028b,1,2\nc\x85,0,3\n",
    "space_index": "a,0 ,1\n",
    "nbsp_value": "a b,0,1\u00a0\n",
    "non_ascii_value": "a,0,1\u00a0\n",
    "non_ascii_digits": "a,0,\u0661\na,\u0661,2\n",
    "tab_id": "a\tb,0,1\n",
    "truncated_utf8_id": b"a b\xc3,0,1\n",
    "non_utf8_id": b"a\xff,0,1\n",
    "non_utf8_value": b"a,0,1\x85\n",
    "interleaved": "a,0,1\nb,0,1\na,1,1\n",
    "repeated_block": "a,0,1\na,1,1\nb,0,1\na,0,1\n",
    "gap": "a,0,1\na,2,1\n",
    "not_from_zero": "a,1,1\n",
    "two_fields": "a,0\n",
    "four_fields": "a,0,1,2\n",
    "empty_value": "a,0,\n",
    "slash_id": "a,0,1\na/b,0,2\na/b,1,3\n",
    "nul_id": "a,0,1\na\0b,0,2\n",
}
FAST_PATH = {"plain", "exponent", "negative_zero", "long_id", "no_final_newline",
             "header_only", "header_no_newline", "space_id", "unicode_id", "space_ids",
             "utf8_ids", "line_separator_ids"}
WHOLE_FILE_CASES = {
    "empty": b"",
    "header_no_newline": TRAFFIC_HEADER.rstrip("\n").encode(),
    "crlf_header": TRAFFIC_HEADER.replace("\n", "\r\n").encode() + b"a,0,1\r\n",
    "bom": "﻿".encode() + TRAFFIC_HEADER.encode() + b"a,0,1\n",
}


def corpus_file(tmp_path, name):
    path = tmp_path / "traffic.csv"
    if name in WHOLE_FILE_CASES:
        path.write_bytes(WHOLE_FILE_CASES[name])
    else:
        rows = PARSE_CORPUS[name]
        path.write_bytes(TRAFFIC_HEADER.encode() + (rows if isinstance(rows, bytes)
                                                    else rows.encode()))
    return path


def sample_bytes(samples: dict) -> dict:
    return {cid: np.frombuffer(block).tobytes() for cid, block in samples.items()}


def trace_bytes(traces) -> dict:
    return {t.cell_id: t.samples.tobytes() for t in traces}


def count_row_loop(monkeypatch) -> list[int]:
    """Record, for each chunk the row loop reads, the rows read before it."""
    chunks = []
    read_rows = traffic._Blocks.read_rows

    def counting(self, lines):
        chunks.append(self.row)
        return read_rows(self, lines)

    monkeypatch.setattr(traffic._Blocks, "read_rows", counting)
    return chunks


def assert_same_as_row_loop(source) -> bool:
    """``read_traffic_csv(source())`` gives the whole-file row loop's traces, or its
    error; True when it gave traces."""
    try:
        rows = oracles.row_loop_traffic(source())
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_traffic_csv(source())
        assert str(got.value) == str(exc)
        return False
    traces = read_traffic_csv(source())
    assert [t.cell_id for t in traces] == list(rows)
    assert trace_bytes(traces) == sample_bytes(rows)
    return True


class TestTrafficParsePaths:
    """The chunked reader, word decoder and row loop mixed, against a whole-file row loop."""

    @pytest.mark.parametrize("chunk", [16, traffic.PARSE_CHUNK], ids=["16B", "default"])
    @pytest.mark.parametrize("name", sorted(PARSE_CORPUS.keys() | WHOLE_FILE_CASES.keys()))
    def test_same_traces_or_same_error(self, tmp_path, monkeypatch, name, chunk):
        monkeypatch.setattr(traffic, "PARSE_CHUNK", chunk)  # 16 B: runs cross chunk edges
        row_loop_chunks = count_row_loop(monkeypatch)
        path = corpus_file(tmp_path, name)
        read_path = assert_same_as_row_loop(lambda: path)
        if read_path:
            assert (row_loop_chunks == []) == (name in FAST_PATH)

    def test_generated_fleet_takes_the_fast_path_bit_identically(self, tmp_path, monkeypatch):
        row_loop_chunks = count_row_loop(monkeypatch)
        _, traces, _ = build_demo_fleet(6, 1, seed=11)
        # ids with spaces or non-ASCII letters keep the file on the fast path
        renamed = [TrafficTrace(name, t.scan_period_s, t.samples)
                   for name, t in zip(["cell 0000", "célula 1", "小区 2", " 3", "4 ", "x y z"],
                                      traces)]
        # fmt_num prints a value below 1e-4 with an exponent; float() reads that field alone
        rng = np.random.default_rng(10)
        tiny = [TrafficTrace(t.cell_id, t.scan_period_s,
                             np.where(rng.random(len(t.samples)) < 0.005,
                                      rng.integers(1, 100, len(t.samples)) * 1e-6, t.samples))
                for t in traces]
        assert sum(np.count_nonzero((0 < t.samples) & (t.samples < 1e-4)) for t in tiny) > 200
        path = tmp_path / "traffic.csv"
        for fleet in (traces, renamed, tiny):
            write_traffic_csv(fleet, path)
            back = read_traffic_csv(path)
            assert trace_bytes(back) == sample_bytes(oracles.row_loop_traffic(path))
            assert trace_bytes(back) == trace_bytes(fleet)
        assert row_loop_chunks == []

    def test_one_odd_row_sends_only_its_chunk_to_the_row_loop(self, tmp_path, monkeypatch):
        row_loop_chunks = count_row_loop(monkeypatch)
        _, fleet, _ = build_demo_fleet(4, 1, seed=11)  # 34,560 rows, about 12 chunks
        path = tmp_path / "traffic.csv"
        write_traffic_csv(fleet, path)
        lines = path.read_text().split("\n")
        lines.insert(20_000, "")  # a blank row 20,000 in
        path.write_text("\n".join(lines))
        assert trace_bytes(read_traffic_csv(path)) == trace_bytes(fleet)
        assert len(row_loop_chunks) == 1 and row_loop_chunks[0] < 20_000

        # rows are counted on across both paths: a bad value later names its own row
        cid, scan, _ = lines[30_000].split(",")
        lines[30_000] = f"{cid},{scan},-1"
        path.write_text("\n".join(lines))
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: row 30000: offered_erlang must be finite")):
            read_traffic_csv(path)
        assert len(row_loop_chunks) == 3

    def test_each_trace_comes_as_soon_as_its_block_ends(self, tmp_path):
        path = tmp_path / "traffic.csv"
        path.write_text(TRAFFIC_HEADER + "a,0,1\na,1,2\nb,0,3\nb,1,oops\n")
        traces = traffic.iter_traffic_csv(path)
        first = next(traces)
        assert (first.cell_id, first.samples.tolist()) == ("a", [1.0, 2.0])
        with pytest.raises(DataError, match="row 4: non-numeric field"):
            next(traces)

    @pytest.mark.parametrize("name,message", [
        ("interleaved", "row 3: cell 'a' again after another cell"),
        ("repeated_block", "row 4: cell 'a' again after another cell"),
    ])
    def test_cell_rows_must_form_one_block(self, tmp_path, name, message):
        with pytest.raises(DataError, match=re.escape(message)):
            read_traffic_csv(corpus_file(tmp_path, name))

    @pytest.mark.parametrize("name,message,fast", [
        ("empty_id", "row 1: empty cell_id", True),
        ("quoted_id", "row 1: cell_id '\"a\"' may not hold '\"'", True),
        ("slash_id", "row 2: cell_id 'a/b' may not hold '/'", True),
        ("nul_id", "row 2: cell_id 'a\\x00b' may not hold '\\x00'", False),
    ])
    def test_bad_cell_id_names_the_file_and_its_row(self, tmp_path, monkeypatch, name,
                                                     message, fast):
        row_loop_chunks = count_row_loop(monkeypatch)
        path = corpus_file(tmp_path, name)
        with pytest.raises(DataError) as got:
            read_traffic_csv(path)
        assert str(got.value) == f"{path}: {message}"
        # checked where a block starts, by the word decoder's path as by the row loop's
        assert (row_loop_chunks == []) == fast

    def test_parse_memory_is_the_samples_plus_a_fixed_budget(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "traffic.csv"
        for n_cells in (2, 8):
            write_traffic_csv([TrafficTrace(f"cell_{i:04d}", 10.0,
                                            np.round(rng.uniform(0, 30, 30_000), 6))
                               for i in range(n_cells)], path)
            tracemalloc.start()
            try:
                read_traffic_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            samples = n_cells * 30_000 * 8  # array("d") over-allocates up to 1/16
            assert peak <= samples * 17 / 16 + 12 * traffic.PARSE_CHUNK, (n_cells, peak)

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_carriage_return_rows_are_cut_into_chunks(self, tmp_path, monkeypatch, line_end):
        monkeypatch.setattr(traffic, "PARSE_CHUNK", 16)
        row_loop_chunks = count_row_loop(monkeypatch)
        rows = [f"c{i // 25},{i % 25},{fmt_num(i * 0.37)}{line_end}" for i in range(100)]
        data = (TRAFFIC_HEADER + "".join(rows)).encode()
        if line_end == "\r\n":  # some \r\n straddles the edge between two reads
            assert any(data[at - 1:at + 1] == b"\r\n" for at in range(16, len(data), 16))
        path = tmp_path / "traffic.csv"
        path.write_bytes(data)
        assert assert_same_as_row_loop(lambda: path)
        assert len(row_loop_chunks) > 50  # one chunk per read or two, not the whole file
        # a byte that is not UTF-8 names its own row, counted across the chunks
        rows[70] = rows[70].replace(",", "\udcff,", 1)
        path.write_bytes((TRAFFIC_HEADER + "".join(rows)).encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError, match=re.escape(f"{path}: row 71: not UTF-8 text")):
            read_traffic_csv(path)
        assert not assert_same_as_row_loop(lambda: path)

    def test_carriage_return_file_parses_in_bounded_memory(self, tmp_path):
        samples = np.round(np.random.default_rng(2).uniform(0, 30, 60_000), 6)
        rows = "".join(f"cell_{i // 30_000},{i % 30_000},{fmt_num(v)}\n"
                       for i, v in enumerate(samples.tolist()))
        files = {"lf": TRAFFIC_HEADER + rows,
                 "cr_rows": TRAFFIC_HEADER + rows.replace("\n", "\r"),
                 "cr_only": (TRAFFIC_HEADER + rows).replace("\n", "\r")}
        peaks = {}
        for name, text in files.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.encode())
            tracemalloc.start()
            try:
                traces = read_traffic_csv(path)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert trace_bytes(traces) == sample_bytes(oracles.row_loop_traffic(path))
        # the file is 1.2 MB: held whole, as bytes and text, it would double the peak
        assert peaks["cr_rows"] <= 1.5 * peaks["lf"], peaks
        assert peaks["cr_only"] <= 1.5 * peaks["lf"], peaks

    def test_truncated_utf8_at_end_of_file_names_its_reason(self, tmp_path):
        # the last row has no newline, so the decoder meets the end of the data
        data = TRAFFIC_HEADER.encode() + b"a,0,1\xc3"
        path = tmp_path / "traffic.csv"
        path.write_bytes(data)
        expected = f"{path}: row 1: not UTF-8 text (unexpected end of data)"
        with pytest.raises(DataError) as got:
            read_traffic_csv(path)
        assert str(got.value) == expected
        assert not assert_same_as_row_loop(lambda: path)  # the oracle decodes row by row


def bits(values) -> bytes:
    return np.asarray(values, np.float64).tobytes()


def decode_values(texts) -> np.ndarray | None:
    """offered_erlang of one row per text, all of one cell, as ``_plain_runs``
    decodes them; None when it leaves the chunk to the row loop."""
    chunk = b"".join(b"a,%d,%s\n" % (i, t.encode()) for i, t in enumerate(texts))
    runs = traffic._plain_runs(chunk)
    if runs is None:
        return None
    assert len(runs) == 1
    return runs[0][3]


EDGE_DECODED = ["0", "0.000001", "0.0001", "999999999.999999", "9007199254740993",
                "12345678.12345678", "1e-05", ".5", "5.", "00.5", "-0", "+1",
                # 2**53 - 1 and 2**53 as all digits; 16 and 17 places; 19 and 20 digits;
                # 24 digits whose integer wraps round a uint64 to below 2**53
                "9.007199254740991", "9.007199254740992", "0.1234567890123456",
                "0.12345678901234567", "123.4567890123456789", "1234.5678901234567890",
                "10001825.0000000000000001",
                "0.1e-456789012345"]  # not digits before the last 8 places
EDGE_ROW_LOOP = [".", "1_0", "1.2.3", "inf", "nan", "0.1.34567890123456", "0.1e3456789012345"]


class TestWordDecoder:
    """``_plain_runs`` against ``float`` and ``int`` on the field text."""

    def test_values_on_and_off_the_grid_are_float_bits(self):
        rng = np.random.default_rng(7)
        grid = rng.integers(0, 10**15, 3000) / 1e6
        texts = [fmt_num(v) for v in grid.tolist()]  # as write_traffic_csv prints them
        anywhere = rng.random(3000) * 10.0 ** rng.integers(-12, 12, 3000)
        texts += [repr(v) for v in anywhere.tolist()]  # 17 digits, exponents
        below_1e9 = rng.random(2000) * 10.0 ** rng.integers(0, 10, 2000)
        places = rng.integers(0, 12, 2000)
        texts += [f"{v:.{k}f}" for v, k in zip(below_1e9.tolist(), places.tolist())]
        for _ in range(2000):  # any digits on either side of the point, leading and trailing zeros
            whole, frac = ("".join(rng.choice(list("0123456789"), rng.integers(0, n)))
                           for n in (11, 19))
            texts.append(f"{whole or '0'}.{frac}" if rng.random() < 0.8 else whole or "0")
        values = decode_values(texts)
        assert values is not None
        assert bits(values) == bits([float(t) for t in texts])

    def test_scan_index_is_int(self):
        rng = np.random.default_rng(8)
        scans = [0, 1, 9, 10, 99_999_999, *rng.integers(0, 10**8, 500).tolist(),
                 *(10 ** rng.integers(0, 8, 100)).tolist()]
        texts = [str(s) for s in scans]
        # one cell per row, so each row is a run of its own
        chunk = b"".join(b"c%d,%s,1\n" % (i, t.encode()) for i, t in enumerate(texts))
        runs = traffic._plain_runs(chunk)
        assert [first_scan for _, _, first_scan, _ in runs] == [int(t) for t in texts]
        for text in ["00", "01", "+1", "-0", "1e3", "", "123456789", "0_1", "1.0"]:
            assert traffic._plain_runs(b"a,%s,1\n" % text.encode()) is None, text

    def test_cell_ids_differing_in_one_byte_are_two_runs(self):
        for length in range(1, 26):
            cid = bytes(range(ord("a"), ord("a") + length))
            assert len(traffic._plain_runs(b"%s,0,1\n%s,1,2\n" % (cid, cid))) == 1
            for at in range(length):
                for byte in (b"A", b" ", "é".encode()):
                    other = cid[:at] + byte + cid[at + 1:]
                    # scan_index steps on by one, so only the ids tell the cells apart
                    runs = traffic._plain_runs(b"%s,0,1\n%s,1,2\n" % (cid, other))
                    assert [run[1] for run in runs] == [cid, other]
            for other in (cid[:-1], cid + b"z", b"z" + cid):  # a byte short or over
                runs = traffic._plain_runs(b"%s,0,1\n%s,1,2\n" % (cid, other))
                assert [run[1] for run in runs] == [cid, other]

    @pytest.mark.parametrize("text", EDGE_DECODED + EDGE_ROW_LOOP)
    def test_edge_text_is_float_bits_or_row_loop(self, tmp_path, text):
        values = decode_values([text])
        if text in EDGE_ROW_LOOP:
            assert values is None
        else:
            assert values is not None and bits(values) == bits([float(text)])
        path = tmp_path / "traffic.csv"
        path.write_text(f"{TRAFFIC_HEADER}a,0,{text}\n")
        if values is not None and values[0] >= traffic.MAX_ERLANG:  # read, then rejected as a trace
            with pytest.raises(DataError, match="rounds to a call demand over"):
                read_traffic_csv(path)
        else:
            assert_same_as_row_loop(lambda: path)

    @pytest.mark.parametrize("chunk", [16, traffic.PARSE_CHUNK], ids=["16B", "default"])
    def test_mutated_plain_rows_read_as_the_row_loop_reads_them(self, tmp_path, monkeypatch,
                                                                 chunk):
        monkeypatch.setattr(traffic, "PARSE_CHUNK", chunk)
        rng = np.random.default_rng(9)
        values = np.round(rng.uniform(0, 40, (3, 12)), 6)
        values[0, 3], values[1, 5], values[2, 0] = 5e-05, 0.0, 12.0  # "5e-05", "0", "12"
        base = "".join(f"{cid},{i},{fmt_num(v)}\n"
                       for cid, row in zip(("cell_0", "cell_0001", "c"), values)
                       for i, v in enumerate(row.tolist()))
        # "é" whole and a stray first byte of it, which must be named only after
        # every row before its own
        alphabet = [*"0123456789012345.,,\n\r eE+-_x".encode(), "é".encode(), b"\xc3"]
        path = tmp_path / "traffic.csv"
        data = base.encode()
        for _ in range(200):
            at = int(rng.integers(0, len(data)))
            byte = alphabet[rng.integers(0, len(alphabet))]
            byte = byte if isinstance(byte, bytes) else bytes([byte])
            mutated = [data[:at] + byte + data[at + 1:],  # replaced
                       data[:at] + byte + data[at:],  # inserted
                       data[:at] + data[at + 1:]][rng.integers(0, 3)]  # deleted
            path.write_bytes(TRAFFIC_HEADER.encode() + mutated)
            assert_same_as_row_loop(lambda: path)


def joined_row_chunks(data: bytes, size: int) -> list[bytes]:
    """The reference: each read joined onto the remainder, cut after its last row
    end that lies in the read: a newline, or a carriage return that is not the
    read's last byte (the next read may begin with its newline)."""
    chunks, rest = [], b""
    for at in range(0, len(data), size):
        joined = rest + data[at:at + size]
        ends = [i + 1 for i in range(len(rest), len(joined))
                if joined[i:i + 1] == b"\n" or (joined[i:i + 1] == b"\r" and i + 1 < len(joined))]
        cut = ends[-1] if ends else 0
        if cut:
            chunks.append(joined[:cut])
        rest = joined[cut:]
    return chunks + [rest] if rest else chunks


class TestRowChunks:
    @pytest.mark.parametrize("size", [1, 7, 16, 64])
    def test_chunks_are_the_joined_reads(self, monkeypatch, size):
        monkeypatch.setattr(traffic, "PARSE_CHUNK", size)
        rng = np.random.default_rng(size)
        for _ in range(50):
            data = bytes(rng.choice(list(b"a,0.\r\n\n"), rng.integers(0, 400)).tolist())
            chunks = list(traffic._row_chunks(io.BytesIO(data)))
            assert chunks == joined_row_chunks(data, size)
            # every chunk but the last ends a row, and no \r\n is split
            assert all(c.endswith((b"\n", b"\r")) for c in chunks[:-1])
            assert not any(a.endswith(b"\r") and b.startswith(b"\n")
                           for a, b in zip(chunks, chunks[1:]))

    def test_a_file_without_newline_is_read_in_linear_time(self, monkeypatch):
        monkeypatch.setattr(traffic, "PARSE_CHUNK", 16)  # 65,536 reads of a 1 MB row

        def seconds(size: int) -> float:
            data = b"a,0,1;" * (size // 6)
            start = time.perf_counter()
            assert list(traffic._row_chunks(io.BytesIO(data))) == [data]
            return time.perf_counter() - start

        # best of five, the sizes interleaved so that a change of CPU speed meets both
        small, large = (min(ts) for ts in zip(*[(seconds(256 << 10), seconds(1 << 20))
                                                for _ in range(5)]))
        # 4x the bytes: about 4x the time, but 25x when every read re-copies the remainder
        assert large < 10 * small, (small, large)


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
