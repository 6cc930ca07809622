"""The documented failures of every command, one case each, as data.

Each case names its command and holds its input files inline (over that
command's defaults), its arguments, the exact line it writes to stderr and its
exit code. ``{dir}`` in an argument or the stderr line stands for the
directory the case's files are written to. ``test_cli.py::test_error_case``
runs every case through ``main`` and, where the command has ``--out``,
checks that ``--out`` is left as it was. A change to a message is a one-line
change here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

FLEET = {"schema_version": 1, "scan_period_s": 10.0, "cells": [
    {"cell_id": "a", "num_trx": 2, "cch_slots": 3},
    {"cell_id": "b", "num_trx": 3, "cch_slots": 1},
]}
TRAFFIC = ("cell_id,scan_index,offered_erlang\n"
           "a,0,1.5\na,1,2\na,2,0\n"
           "b,0,9\nb,1,0.5\nb,2,1\n")
ASSIGNMENT_HEADER = "cell_id,cluster,hysteresis\n"
KPI_HEADER = ("cell_id,tch_traffic_erl,dl_edge_throughput_kbps,pdch_congestion_pct,"
              "preempt_pdch,ts_count\n")
KPI_ROWS = ("a,1.5,138,0.01,1,24", "b,7,130,0.05,10,24", "c,14,122,0.4,35,32",
            "d,2,136,0.02,2,24")
CLUSTERS_HEADER = "cell_id,cluster\n"
CLUSTER_ROWS = ("a,0", "b,1", "c,2", "d,0")  # three clusters, as the default policy needs
ROW = {"cell_id": "a", "ts_before": 24, "max_ts_after": 8, "mean_ts_after": 9.5,
       "blocked_before": 0, "blocked_after": 1}
SUMMARY = {"schema_version": 1, "metadata": {"seed": 7}, "rows": [ROW],
           "trx_scans_without": 30, "trx_scans_with": 20, "ts_scans_without": 240,
           "ts_scans_with": 160, "reduction_pct": 100 / 3, "blocked_without": 2,
           "blocked_with": 3, "blocking_delta": 1}


def fleet(*cells: dict, **fields) -> str:
    """fleet.json text: ``FLEET`` with ``fields`` set, and ``cells`` in place of
    its cells when any are given."""
    doc = {**FLEET, **fields}
    if cells:
        doc["cells"] = list(cells)
    return json.dumps(doc)


def cell(cell_id="a", num_trx=2, cch_slots=3) -> dict:
    return {"cell_id": cell_id, "num_trx": num_trx, "cch_slots": cch_slots}


@dataclass(frozen=True)
class Case:
    id: str
    args: tuple[str, ...]  # after the command's ``INPUT_ARGS``
    stderr: str  # without its "error: " and line end
    code: int
    files: dict[str, Union[str, bytes]] = field(default_factory=dict)  # over the defaults
    command: str = "simulate"

    def inputs(self) -> dict[str, Union[str, bytes]]:
        return {**DEFAULT_FILES[self.command], **self.files}

    def argv(self) -> list[str]:
        return [self.command, *INPUT_ARGS[self.command], *self.args]


def traffic(row: str, new: str) -> dict[str, str]:
    """``TRAFFIC`` with its row ``row`` replaced by ``new``."""
    assert f"\n{row}\n" in TRAFFIC
    return {"traffic.csv": TRAFFIC.replace(f"\n{row}\n", f"\n{new}\n")}


def assignment(*rows: str, header: str = ASSIGNMENT_HEADER) -> dict[str, str]:
    return {"assignment.csv": header + "".join(row + "\n" for row in rows)}


def kpis(*rows: str, header: str = KPI_HEADER) -> dict[str, str]:
    return {"kpis.csv": header + "".join(row + "\n" for row in rows)}


def clusters(*rows: str, header: str = CLUSTERS_HEADER) -> dict[str, str]:
    return {"clusters.csv": header + "".join(row + "\n" for row in rows)}


def summary(drop: str = "", **fields) -> dict[str, str]:
    """summary.json text: ``SUMMARY`` with ``fields`` set and the key ``drop`` left out."""
    return {"summary.json": json.dumps({k: v for k, v in {**SUMMARY, **fields}.items()
                                        if k != drop})}


# each command's input files and the arguments that name them
KPI_FILE = "{dir}/kpis.csv"
CLUSTERS_FILE = "{dir}/clusters.csv"
SUMMARY_FILE = "{dir}/summary.json"
DEFAULT_FILES = {
    "generate": {},
    "cluster": kpis(*KPI_ROWS),
    "assign": {**kpis(*KPI_ROWS), **clusters(*CLUSTER_ROWS)},
    "simulate": {"fleet.json": json.dumps(FLEET), "traffic.csv": TRAFFIC},
    "report": summary(),
}
ASSIGNED = ("--assignment", "{dir}/assignment.csv")
INPUT_ARGS = {
    "generate": (),
    "cluster": ("--kpi", KPI_FILE),
    "assign": ("--clusters", CLUSTERS_FILE, "--kpi", KPI_FILE),
    "simulate": ("--fleet", "{dir}/fleet.json", "--traffic", "{dir}/traffic.csv",
                 "--timelines", "all"),
    "report": ("--summary", SUMMARY_FILE),
}

# each cell_id the dialect forbids: its error in a fleet.json cell, and in a CSV
# row that it starts, where a comma or a line end splits the row (None: as in
# fleet.json)
BAD_IDS = {
    "comma": ("a,b", "cell_id 'a,b' may not hold ','", "expected {n} fields, got {more}"),
    "quote": ('a"b', "cell_id 'a\"b' may not hold '\"'",
              "a field holds '\"' (fields are never quoted)"),
    "cr": ("a\rb", "cell_id 'a\\rb' may not hold '\\r'", "expected {n} fields, got 1"),
    "lf": ("a\nb", "cell_id 'a\\nb' may not hold '\\n'", "expected {n} fields, got 1"),
    "slash": ("a/b", "cell_id 'a/b' may not hold '/'", None),
    "nul": ("a\0b", "cell_id 'a\\x00b' may not hold '\\x00'", None),
    "empty": ("", "empty cell_id", None),
}
# each CSV that a command reads and checks ids in: the command, its arguments,
# the fields per row, and the file's text with the id at row 2
ID_READERS = {
    "kpis.csv": ("cluster", (), 6, lambda cid: kpis(KPI_ROWS[0], cid + KPI_ROWS[1][1:])),
    "clusters.csv": ("assign", (), 2, lambda cid: clusters("a,0", cid + ",1", "c,2")),
    "assignment.csv": ("simulate", ASSIGNED, 3, lambda cid: assignment("a,0,4", cid + ",1,6")),
}


CASES = [
    # option checks: each exits 2 before traffic.csv is read
    Case("negative_timelines", ("--timelines", "-1"),
         "--timelines must be 'all' or a count >= 0, got '-1'", 2),
    Case("text_timelines", ("--timelines", "x"),
         "--timelines must be 'all' or a count >= 0, got 'x'", 2),
    Case("superscript_timelines", ("--timelines", "²"),
         "--timelines must be 'all' or a count >= 0, got '²'", 2),
    Case("low_off_target", ("--off-target", "19"),
         "trx_off_target must be in [20, 100], got 19", 2),
    Case("high_off_target", ("--off-target", "101"),
         "trx_off_target must be in [20, 100], got 101", 2),
    Case("low_on_target", ("--on-target", "19"),
         "trx_on_target must be in [20, 100], got 19", 2),
    Case("high_on_target", ("--on-target", "101"),
         "trx_on_target must be in [20, 100], got 101", 2),
    Case("low_off_delay", ("--off-delay", "5"), "trx_off_delay must be in [6, 90], got 5", 2),
    Case("high_off_delay", ("--off-delay", "91"), "trx_off_delay must be in [6, 90], got 91", 2),
    Case("nan_warmup", ("--warmup-days", "nan"),
         "--warmup-days must be a finite number, got nan", 2),
    Case("inf_warmup", ("--warmup-days", "inf"),
         "--warmup-days must be a finite number, got inf", 2),
    Case("negative_warmup", ("--warmup-days", "-1"), "--warmup-days must be >= 0, got -1.0", 2),
    Case("tiny_negative_warmup", ("--warmup-days", "-0.00001"),
         "--warmup-days must be >= 0, got -1e-05", 2),
    # a traffic.csv that is not one shows the check comes before it is read
    Case("overflowing_warmup", ("--warmup-days", "1e305"),
         "--warmup-days 1e+305 is too many scans to count at 10.0 s a scan", 2,
         {"traffic.csv": "x\n"}),
    Case("overflowing_warmup_at_a_tiny_scan_period", ("--warmup-days", "1"),
         "--warmup-days 1.0 is too many scans to count at 1e-310 s a scan", 2,
         {"fleet.json": fleet(scan_period_s=1e-310), "traffic.csv": "x\n"}),
    Case("zero_hysteresis", ("--hysteresis", "0"), "hysteresis must be in [1, 1014], got 0", 2),
    Case("high_hysteresis", ("--hysteresis", "1015"),
         "hysteresis must be in [1, 1014], got 1015", 2),
    Case("unassigned_cell_without_default", ASSIGNED,
         "cell 'b' has no hysteresis assignment and no default", 2, assignment("a,0,4")),
    Case("zero_hysteresis_with_every_cell_assigned", (*ASSIGNED, "--hysteresis", "0"),
         "hysteresis must be in [1, 1014], got 0", 2, assignment("a,0,4", "b,1,6")),

    # assignment.csv
    Case("assignment_header", ASSIGNED,
         "{dir}/assignment.csv: CSV header mismatch: expected cell_id,cluster,hysteresis, "
         "got cell_id,hysteresis", 3, assignment("a,4", header="cell_id,hysteresis\n")),
    Case("assignment_field_count", ASSIGNED,
         "{dir}/assignment.csv: row 2: expected 3 fields, got 2", 3,
         assignment("a,0,4", "b,6")),
    Case("assignment_non_integer", ASSIGNED,
         "{dir}/assignment.csv: row 1: non-integer cluster or hysteresis", 3,
         assignment("a,0,x")),
    Case("assignment_hysteresis_zero", ASSIGNED,
         "{dir}/assignment.csv: row 2: hysteresis 0 outside [1, 1014]", 3,
         assignment("a,0,4", "b,1,0")),
    Case("assignment_hysteresis_high", ASSIGNED,
         "{dir}/assignment.csv: row 1: hysteresis 1015 outside [1, 1014]", 3,
         assignment("a,0,1015")),
    Case("assignment_duplicate_cell", ASSIGNED,
         "{dir}/assignment.csv: row 2: duplicate cell_id 'a'", 3,
         assignment("a,0,4", "a,1,6")),
    Case("assignment_not_utf8", ASSIGNED,
         "{dir}/assignment.csv: row 2: not UTF-8 text (invalid start byte)", 3,
         {"assignment.csv": ASSIGNMENT_HEADER.encode() + b"a,0,4\r\n\xff,1,6\r\n"}),
    Case("assignment_stray_cell", ASSIGNED,
         "{dir}/assignment.csv: cell 'c' is not in {dir}/fleet.json", 3,
         assignment("a,0,4", "c,1,6")),

    # fleet.json
    Case("fleet_invalid_json", (),
         "{dir}/fleet.json: invalid JSON (Expecting value: line 1 column 1 (char 0))", 3,
         {"fleet.json": "cells"}),
    Case("fleet_not_utf8", (),
         "{dir}/fleet.json: not UTF-8 text (invalid start byte)", 3,
         {"fleet.json": b'{"cells": ["\xff"]}'}),
    Case("fleet_without_cells", (), "{dir}/fleet.json: missing 'cells' list", 3,
         {"fleet.json": json.dumps({"scan_period_s": 10.0})}),
    Case("fleet_zero_scan_period", (),
         "{dir}/fleet.json: scan_period_s must be a finite number > 0, got 0", 3,
         {"fleet.json": fleet(scan_period_s=0)}),
    Case("fleet_text_scan_period", (),
         "{dir}/fleet.json: scan_period_s must be a finite number > 0, got '10'", 3,
         {"fleet.json": fleet(scan_period_s="10")}),
    Case("fleet_bool_scan_period", (),
         "{dir}/fleet.json: scan_period_s must be a finite number > 0, got True", 3,
         {"fleet.json": fleet(scan_period_s=True)}),
    Case("fleet_cell_without_id", (), "{dir}/fleet.json: cells[1] has no string 'cell_id'", 3,
         {"fleet.json": fleet(cell(), {"num_trx": 2, "cch_slots": 3})}),
    Case("fleet_duplicate_cell", (), "{dir}/fleet.json: duplicate cell_id 'a'", 3,
         {"fleet.json": fleet(cell(), cell())}),
    Case("fleet_text_num_trx", (),
         "{dir}/fleet.json: cell 'a': num_trx must be an integer, got '2'", 3,
         {"fleet.json": fleet(cell(num_trx="2"))}),
    Case("fleet_bool_cch_slots", (),
         "{dir}/fleet.json: cell 'a': cch_slots must be an integer, got True", 3,
         {"fleet.json": fleet(cell(cch_slots=True))}),
    Case("fleet_num_trx_out_of_range", (),
         "{dir}/fleet.json: cell 'a': num_trx must be in [1, 12], got 13", 3,
         {"fleet.json": fleet(cell(num_trx=13))}),
    Case("fleet_cch_slots_out_of_range", (),
         "{dir}/fleet.json: cell 'a': cch_slots must be in [1, 3], got 0", 3,
         {"fleet.json": fleet(cell(cch_slots=0))}),
    Case("fleet_cell_without_num_trx", (),
         "{dir}/fleet.json: cell 'a': num_trx must be an integer, got None", 3,
         {"fleet.json": fleet({"cell_id": "a", "cch_slots": 3})}),
    Case("fleet_float_num_trx", (),
         "{dir}/fleet.json: cell 'a': num_trx must be an integer, got 3.5", 3,
         {"fleet.json": fleet(cell(num_trx=3.5))}),
    Case("fleet_cell_without_cch_slots", (),
         "{dir}/fleet.json: cell 'a': cch_slots must be an integer, got None", 3,
         {"fleet.json": fleet({"cell_id": "a", "num_trx": 2})}),
    Case("fleet_zero_num_trx", (),
         "{dir}/fleet.json: cell 'a': num_trx must be in [1, 12], got 0", 3,
         {"fleet.json": fleet(cell(num_trx=0))}),
    Case("fleet_cch_slots_above_3", (),
         "{dir}/fleet.json: cell 'a': cch_slots must be in [1, 3], got 4", 3,
         {"fleet.json": fleet(cell(cch_slots=4))}),
    Case("fleet_negative_scan_period", (),
         "{dir}/fleet.json: scan_period_s must be a finite number > 0, got -10.0", 3,
         {"fleet.json": fleet(scan_period_s=-10.0)}),
    Case("fleet_nan_scan_period", (),
         "{dir}/fleet.json: scan_period_s must be a finite number > 0, got nan", 3,
         {"fleet.json": fleet(scan_period_s=float("nan"))}),
    Case("fleet_cell_id_climbing_out", (),
         "{dir}/fleet.json: cells[0]: cell_id '../../escaped' may not hold '/'", 3,
         {"fleet.json": fleet(cell("../../escaped"), cell("b", 3, 1))}),
    *(Case(f"fleet_{name}_cell_id", (), f"{{dir}}/fleet.json: cells[1]: {error}", 3,
           {"fleet.json": fleet(cell(), cell(cell_id, 3, 1))})
      for name, (cell_id, error, _) in BAD_IDS.items()),

    # traffic.csv
    Case("traffic_stray_cell", (), "{dir}/traffic.csv: cell 'c' is not in the fleet", 3,
         {"traffic.csv": TRAFFIC + "c,0,1\n"}),
    Case("traffic_untraced_cell", (), "{dir}/traffic.csv: no trace for fleet cell 'c'", 3,
         {"fleet.json": fleet(cell(), cell("b", 3, 1), cell("c"))}),
    Case("traffic_second_block", (),
         "{dir}/traffic.csv: row 7: cell 'a' again after another cell; each cell's rows "
         "must form one contiguous block", 3, {"traffic.csv": TRAFFIC + "a,3,1\n"}),
    Case("traffic_block_repeated", (),
         "{dir}/traffic.csv: row 7: cell 'a' again after another cell; each cell's rows "
         "must form one contiguous block", 3, {"traffic.csv": TRAFFIC + "a,0,1\n"}),
    Case("traffic_header", (),
         "{dir}/traffic.csv: traffic CSV header mismatch: expected "
         "cell_id,scan_index,offered_erlang, got 'cell_id,scan,offered_erlang'", 3,
         {"traffic.csv": TRAFFIC.replace("scan_index", "scan")}),
    Case("traffic_empty_file", (),
         "{dir}/traffic.csv: traffic CSV header mismatch: expected "
         "cell_id,scan_index,offered_erlang, got ''", 3, {"traffic.csv": ""}),
    Case("traffic_header_not_utf8", (),
         "{dir}/traffic.csv: header: not UTF-8 text (invalid start byte)", 3,
         {"traffic.csv": TRAFFIC.encode().replace(b"offered", b"\xffoffered")}),
    Case("traffic_two_fields", (), "{dir}/traffic.csv: row 5: expected 3 fields, got 2", 3,
         traffic("b,1,0.5", "b,1")),
    Case("traffic_four_fields", (), "{dir}/traffic.csv: row 2: expected 3 fields, got 4", 3,
         traffic("a,1,2", "a,1,2,3")),
    Case("traffic_non_numeric_scan_index", (),
         "{dir}/traffic.csv: row 2: non-numeric field (invalid literal for int() with base 10: "
         "'x')", 3, traffic("a,1,2", "a,x,2")),
    Case("traffic_non_numeric_erlang", (),
         "{dir}/traffic.csv: row 5: non-numeric field (could not convert string to float: "
         "'oops')", 3, traffic("b,1,0.5", "b,1,oops")),
    *(Case(f"traffic_{name}_erlang", (),
           "{dir}/traffic.csv: row 5: offered_erlang must be finite and >= 0", 3,
           traffic("b,1,0.5", f"b,1,{value}"))
      for name, value in (("negative", "-1"), ("nan", "nan"), ("inf", "inf"))),
    Case("traffic_scan_index_gap", (),
         "{dir}/traffic.csv: row 3: cell 'a' scan_index 3 not contiguous (expected 2)", 3,
         traffic("a,2,0", "a,3,0")),
    Case("traffic_block_not_from_zero", (),
         "{dir}/traffic.csv: row 4: cell 'b' scan_index 1 not contiguous (expected 0)", 3,
         traffic("b,0,9", "b,1,9")),
    Case("traffic_cell_id_with_slash", (),
         "{dir}/traffic.csv: row 4: cell_id 'b/c' may not hold '/'", 3,
         traffic("b,0,9", "b/c,0,9")),
    Case("traffic_empty_cell_id", (), "{dir}/traffic.csv: row 4: empty cell_id", 3,
         traffic("b,0,9", ",0,9")),
    Case("traffic_not_utf8", (),
         "{dir}/traffic.csv: row 4: not UTF-8 text (invalid start byte)", 3,
         {"traffic.csv": TRAFFIC.encode().replace(b"\nb,0,", b"\nb\xff,0,")}),
    Case("traffic_not_utf8_with_cr_line_ends", (),
         "{dir}/traffic.csv: row 4: not UTF-8 text (invalid start byte)", 3,
         {"traffic.csv": TRAFFIC.replace("\n", "\r").encode().replace(b"\rb,0,", b"\rb\xff,0,")}),
    # the first 64 KB of rows are decoded as plain rows, the bad one by the row loop
    Case("traffic_bad_row_after_plain_rows", (),
         "{dir}/traffic.csv: row 10001: offered_erlang must be finite and >= 0", 3,
         {"traffic.csv": "cell_id,scan_index,offered_erlang\n"
          + "".join(f"a,{i},1.5\n" for i in range(10_000)) + "a,10000,-1\nb,0,9\n"}),
    Case("traffic_demand_past_int32", (),
         "{dir}/traffic.csv: row 5: offered_erlang 3000000000 rounds to a call demand over "
         "2147483647", 3, traffic("b,1,0.5", "b,1,3e9")),
    Case("warmup_longer_than_a_trace", ("--warmup-days", "0.0003"),
         "warmup_scans 3 consumes the whole 3-scan trace of cell 'a'", 2),
    Case("warmup_longer_than_a_later_trace", ("--warmup-days", "0.0003"),
         "warmup_scans 3 consumes the whole 2-scan trace of cell 'b'", 2,
         {"traffic.csv": TRAFFIC.replace("a,2,0\n", "a,2,0\na,3,1\n").replace("b,2,1\n", "")}),

    # cluster's option checks: --restarts before kpis.csv is read, the k range
    # against its cell count, each before --out is touched
    Case("zero_restarts", ("--restarts", "0"), "--restarts must be >= 1, got 0", 2,
         {"kpis.csv": "x\n"}, command="cluster"),
    Case("zero_k", ("--k", "0"), "--k 0 must be in [1, 4]", 2, command="cluster"),
    Case("k_above_cells", ("--k", "5"), "--k 5 must be in [1, 4]", 2, command="cluster"),
    Case("k_min_below_two", ("--k-min", "1"),
         "--k-min 1 and --k-max 9 need 2 <= --k-min <= min(--k-max, 4 cells)", 2,
         command="cluster"),
    Case("k_min_above_k_max", ("--k-min", "3", "--k-max", "2"),
         "--k-min 3 and --k-max 2 need 2 <= --k-min <= min(--k-max, 4 cells)", 2,
         command="cluster"),
    Case("k_min_above_cells", ("--k-min", "5"),
         "--k-min 5 and --k-max 9 need 2 <= --k-min <= min(--k-max, 4 cells)", 2,
         command="cluster"),

    # kpis.csv
    Case("kpi_header", (),
         f"{KPI_FILE}: CSV header mismatch: expected {KPI_HEADER.strip()}, got cell_id,erl", 3,
         kpis("a,1", header="cell_id,erl\n"), command="cluster"),
    Case("kpi_empty_file", (),
         f"{KPI_FILE}: CSV header mismatch: expected {KPI_HEADER.strip()}, got an empty file",
         3, {"kpis.csv": ""}, command="cluster"),
    Case("kpi_field_count", (), f"{KPI_FILE}: row 1: expected 6 fields, got 5", 3,
         kpis("a,1.5,138,0.01,1"), command="cluster"),
    Case("kpi_duplicate_cell", (), f"{KPI_FILE}: row 3: duplicate cell_id 'a'", 3,
         kpis(*KPI_ROWS[:2], KPI_ROWS[0]), command="cluster"),
    Case("kpi_not_utf8", (), f"{KPI_FILE}: row 2: not UTF-8 text (invalid start byte)", 3,
         {"kpis.csv": KPI_HEADER.encode() + b"a,1.5,138,0.01,1,24\n\xff,7,130,0.05,10,24\n"},
         command="cluster"),
    Case("kpi_not_utf8_with_cr_line_ends", (),
         f"{KPI_FILE}: row 2: not UTF-8 text (invalid start byte)", 3,
         {"kpis.csv": KPI_HEADER.replace("\n", "\r").encode()
          + b"a,1.5,138,0.01,1,24\rb,\xff,130,0.05,10,24\r"}, command="cluster"),
    Case("kpi_not_utf8_with_crlf_line_ends", (),
         f"{KPI_FILE}: row 2: not UTF-8 text (invalid start byte)", 3,
         {"kpis.csv": KPI_HEADER.replace("\n", "\r\n").encode()
          + b"a,1.5,138,0.01,1,24\r\nb,\xff,130,0.05,10,24\r\n"}, command="cluster"),
    Case("kpi_header_not_utf8", (), f"{KPI_FILE}: header: not UTF-8 text (invalid start byte)",
         3, {"kpis.csv": b"\xff" + KPI_HEADER.encode()}, command="cluster"),
    Case("kpi_non_numeric", (),
         f"{KPI_FILE}: row 1: non-numeric field (could not convert string to float: 'oops')",
         3, kpis("a,oops,138,0.01,1,24", *KPI_ROWS[1:]), command="cluster"),
    Case("kpi_negative", (),
         f"{KPI_FILE}: row 2: cell 'b': preempt_pdch must be finite and >= 0, got -1.0", 3,
         kpis(KPI_ROWS[0], "b,7,130,0.05,-1,24"), command="cluster"),
    Case("kpi_negative_erlang", (),
         f"{KPI_FILE}: row 2: cell 'b': tch_traffic_erl must be finite and >= 0, got -1.0", 3,
         kpis(KPI_ROWS[0], "b,-1,130,0.05,10,24"), command="cluster"),
    Case("kpi_congestion_above_100", (),
         f"{KPI_FILE}: row 1: cell 'a': pdch_congestion_pct must be in [0, 100], got 100.5",
         3, kpis("a,1.5,138,100.5,1,24"), command="cluster"),
    Case("kpi_zero_ts_count", (), f"{KPI_FILE}: row 1: cell 'a': ts_count must be > 0, got 0",
         3, kpis("a,1.5,138,0.01,1,0"), command="cluster"),
    Case("kpi_overflowing_column", (),
         f"{KPI_FILE}: feature tch_traffic_erl: mean or standard deviation overflows a "
         "float64", 3, kpis(*(f"c{i},1e308,{100 + i},0.1,1,24" for i in range(3))),
         command="cluster"),
    Case("kpi_one_row", (), f"{KPI_FILE}: standardize needs at least 2 rows, got 1", 3,
         kpis(KPI_ROWS[0]), command="cluster"),
    Case("kpi_header_only", (), f"{KPI_FILE}: standardize needs at least 2 rows, got 0", 3,
         kpis(), command="cluster"),

    # a forbidden cell_id at row 2 of each CSV reader that checks ids
    *(Case(f"{file[:-4]}_{name}_cell_id", args, f"{{dir}}/{file}: row 2: "
           + (error if csv_error is None else csv_error.format(n=n, more=n + 1)), 3,
           files(cell_id), command)
      for file, (command, args, n, files) in ID_READERS.items()
      for name, (cell_id, error, csv_error) in BAD_IDS.items()),

    # generate's option checks: each exits 2 before --out is touched
    Case("zero_cells", ("--cells", "0"), "need at least 1 cell, got 0", 2, command="generate"),
    Case("zero_days", ("--days", "0"), "need at least 1 day, got 0", 2, command="generate"),
    *(Case(f"{name}_scan_period", ("--scan-period", value),
           f"scan_period_s must divide one hour evenly, got {float(value)}", 2,
           command="generate")
      for name, value in (("zero", "0"), ("negative", "-10"), ("uneven", "7"), ("nan", "nan"),
                          ("inf", "inf"))),

    # clusters.csv, as assign reads it
    Case("clusters_header", (),
         f"{CLUSTERS_FILE}: CSV header mismatch: expected cell_id,cluster, got cell_id,k", 3,
         clusters("a,0", header="cell_id,k\n"), command="assign"),
    Case("clusters_field_count", (), f"{CLUSTERS_FILE}: row 2: expected 2 fields, got 3", 3,
         clusters("a,0", "b,1,2"), command="assign"),
    Case("clusters_non_integer", (), f"{CLUSTERS_FILE}: row 2: non-integer cluster 'x'", 3,
         clusters("a,0", "b,x"), command="assign"),
    Case("clusters_negative", (), f"{CLUSTERS_FILE}: row 2: cluster -1 is below 0", 3,
         clusters("a,0", "b,-1", "c,1"), command="assign"),
    Case("clusters_duplicate_cell", (), f"{CLUSTERS_FILE}: row 3: duplicate cell_id 'a'", 3,
         clusters("a,0", "b,1", "a,2"), command="assign"),
    Case("clusters_not_utf8", (),
         f"{CLUSTERS_FILE}: row 2: not UTF-8 text (invalid start byte)", 3,
         {"clusters.csv": CLUSTERS_HEADER.encode() + b"a,0\n\xff,1\n"}, command="assign"),
    Case("clusters_gap", (), f"{CLUSTERS_FILE}: cluster 1 has no members", 3,
         clusters("a,0", "b,2", "c,2"), command="assign"),
    Case("clusters_cell_not_in_kpis", (), f"{CLUSTERS_FILE}: cell 'e' is not in {KPI_FILE}",
         3, clusters(*CLUSTER_ROWS, "e,1"), command="assign"),
    Case("assign_kpi_duplicate_cell", (), f"{KPI_FILE}: row 3: duplicate cell_id 'a'", 3,
         kpis(*KPI_ROWS[:2], KPI_ROWS[0]), command="assign"),

    # assign --policy
    Case("text_policy", ("--policy", "4,x"),
         "bad --policy '4,x': expected comma-separated integers", 2, command="assign"),
    Case("zero_policy", ("--policy", "0,6,12"), "hysteresis 0 outside [1, 1014]", 2,
         command="assign"),
    Case("high_policy", ("--policy", "4,6,1015"), "hysteresis 1015 outside [1, 1014]", 2,
         command="assign"),
    Case("decreasing_policy", ("--policy", "12,6,4"),
         "policy values must be non-decreasing (busier clusters never get a smaller margin)",
         2, command="assign"),
    Case("policy_size", ("--policy", "4,12"), "policy has 2 values but there are 3 clusters",
         2, command="assign"),

    # summary.json, as report reads it
    Case("summary_invalid_json", (),
         f"{SUMMARY_FILE}: invalid JSON (Expecting value: line 1 column 32 (char 31))", 3,
         {"summary.json": '{"schema_version": 1, "rows": ['}, command="report"),
    Case("summary_not_utf8", (), f"{SUMMARY_FILE}: not UTF-8 text (invalid start byte)", 3,
         {"summary.json": b'{"rows": ["\xff"]}'}, command="report"),
    *(Case(f"summary_{name}", (), f"{SUMMARY_FILE}: expected a JSON object", 3,
           {"summary.json": text}, command="report")
      for name, text in (("list", "[1, 2]"), ("null", "null"))),
    Case("summary_empty_object", (), f"{SUMMARY_FILE}: missing key 'schema_version'", 3,
         {"summary.json": "{}"}, command="report"),
    Case("summary_missing_key", (), f"{SUMMARY_FILE}: missing key 'trx_scans_with'", 3,
         summary(drop="trx_scans_with"), command="report"),
    Case("summary_unknown_key", (), f"{SUMMARY_FILE}: unknown key 'extra'", 3,
         summary(extra=1), command="report"),
    Case("summary_text_number", (), f"{SUMMARY_FILE}: reduction_pct must be a number, got 'x'",
         3, summary(reduction_pct="x"), command="report"),
    Case("summary_bool_number", (),
         f"{SUMMARY_FILE}: blocking_delta must be a number, got True", 3,
         summary(blocking_delta=True), command="report"),
    Case("summary_list_metadata", (), f"{SUMMARY_FILE}: metadata must be an object, got []",
         3, summary(metadata=[]), command="report"),
    Case("summary_rows_not_a_list", (), SUMMARY_FILE + ": rows must be a list, got {{}}", 3,
         summary(rows={}), command="report"),
    Case("summary_row_not_an_object", (), f"{SUMMARY_FILE}: rows[0] must be an object, got 1",
         3, summary(rows=[1]), command="report"),
    Case("summary_row_missing_key", (), f"{SUMMARY_FILE}: missing key 'rows[0].ts_before'", 3,
         summary(rows=[{"cell_id": "a"}]), command="report"),
    Case("summary_int_cell_id", (), f"{SUMMARY_FILE}: rows[0].cell_id must be a string, got 7",
         3, summary(rows=[{**ROW, "cell_id": 7}]), command="report"),
    Case("summary_null_number", (),
         f"{SUMMARY_FILE}: rows[0].ts_before must be a number, got None", 3,
         summary(rows=[{**ROW, "ts_before": None}]), command="report"),
]
