"""The documented failures of ``simulate`` and ``cluster``, one case each, as data.

Each case names its command and holds its input files inline (over that
command's defaults), its arguments, the exact line it writes to stderr and its
exit code. ``{dir}`` in an argument or the stderr line stands for the
directory the case's files are written to. ``test_cli.py::test_error_case``
runs every case through ``main`` and checks that ``--out`` is left as it was.
A change to a message is a one-line change here.
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


# each command's input files and the arguments that name them
KPI_FILE = "{dir}/kpis.csv"
DEFAULT_FILES = {
    "simulate": {"fleet.json": json.dumps(FLEET), "traffic.csv": TRAFFIC},
    "cluster": kpis(*KPI_ROWS),
}
INPUT_ARGS = {
    "simulate": ("--fleet", "{dir}/fleet.json", "--traffic", "{dir}/traffic.csv",
                 "--timelines", "all"),
    "cluster": ("--kpi", KPI_FILE),
}


ASSIGNED = ("--assignment", "{dir}/assignment.csv")

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
    Case("assignment_quote", ASSIGNED,
         "{dir}/assignment.csv: row 1: a field holds '\"' (fields are never quoted)", 3,
         assignment('"a",0,4')),
    Case("assignment_empty_cell_id", ASSIGNED,
         "{dir}/assignment.csv: row 1: empty cell_id", 3, assignment(",0,4")),
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
    Case("fleet_cell_id_with_slash", (),
         "{dir}/fleet.json: cells[0]: cell_id 'a/b' may not hold '/'", 3,
         {"fleet.json": fleet(cell("a/b"))}),
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

    # traffic.csv
    Case("traffic_stray_cell", (), "{dir}/traffic.csv: cell 'c' is not in the fleet", 3,
         {"traffic.csv": TRAFFIC + "c,0,1\n"}),
    Case("traffic_untraced_cell", (), "{dir}/traffic.csv: no trace for fleet cell 'c'", 3,
         {"fleet.json": fleet(cell(), cell("b", 3, 1), cell("c"))}),
    Case("traffic_second_block", (),
         "{dir}/traffic.csv: row 7: cell 'a' again after another cell; each cell's rows "
         "must form one contiguous block", 3, {"traffic.csv": TRAFFIC + "a,3,1\n"}),
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
    Case("kpi_quote", (),
         f"{KPI_FILE}: row 2: a field holds '\"' (fields are never quoted)", 3,
         kpis(KPI_ROWS[0], '"b",7,130,0.05,10,24'), command="cluster"),
    Case("kpi_field_count", (), f"{KPI_FILE}: row 1: expected 6 fields, got 5", 3,
         kpis("a,1.5,138,0.01,1"), command="cluster"),
    Case("kpi_cell_id_with_slash", (), f"{KPI_FILE}: row 1: cell_id 'a/b' may not hold '/'",
         3, kpis("a/b,1.5,138,0.01,1,24"), command="cluster"),
    Case("kpi_empty_cell_id", (), f"{KPI_FILE}: row 2: empty cell_id", 3,
         kpis(KPI_ROWS[0], ",7,130,0.05,10,24"), command="cluster"),
    Case("kpi_duplicate_cell", (), f"{KPI_FILE}: row 3: duplicate cell_id 'a'", 3,
         kpis(*KPI_ROWS[:2], KPI_ROWS[0]), command="cluster"),
    Case("kpi_not_utf8", (), f"{KPI_FILE}: row 2: not UTF-8 text (invalid start byte)", 3,
         {"kpis.csv": KPI_HEADER.encode() + b"a,1.5,138,0.01,1,24\n\xff,7,130,0.05,10,24\n"},
         command="cluster"),
    Case("kpi_not_utf8_with_cr_line_ends", (),
         f"{KPI_FILE}: row 2: not UTF-8 text (invalid start byte)", 3,
         {"kpis.csv": KPI_HEADER.replace("\n", "\r").encode()
          + b"a,1.5,138,0.01,1,24\rb,\xff,130,0.05,10,24\r"}, command="cluster"),
    Case("kpi_non_numeric", (),
         f"{KPI_FILE}: row 1: non-numeric field (could not convert string to float: 'oops')",
         3, kpis("a,oops,138,0.01,1,24", *KPI_ROWS[1:]), command="cluster"),
    Case("kpi_negative", (),
         f"{KPI_FILE}: row 2: cell 'b': preempt_pdch must be finite and >= 0, got -1.0", 3,
         kpis(KPI_ROWS[0], "b,7,130,0.05,-1,24"), command="cluster"),
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
]
