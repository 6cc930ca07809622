"""Small tables and JSON documents: KPIs, clusters, assignments, reports.

Every CSV the package reads or writes has one dialect, and only paths go in
or out. A line ends at ``\n``, ``\r\n`` or a bare ``\r`` and its end is
never part of a field; rows are physical lines, counted from 1 after the
header; fields are split on a bare ``,`` and never quoted. A ``cell_id`` is
non-empty and holds no ``,``, ``"``, ``\r``, ``\n``, ``/`` or NUL
(``cell_model.check_cell_id``); a reader rejects any other with a
``DataError`` naming the file and the row.

Small tables are read and written only through
``read_csv``/``write_csv``/``read_json``/``write_json``, which own the
framing and the strictness checks. This module needs only the standard
library, so a stage that reads and writes small tables alone does not load
numpy; the per-scan CSVs are in ``trxsave.traffic``.

``_lines`` is the one line splitter: it serves ``read_csv``, the
``traffic.csv`` header and its row loop. It yields the lines before the
first one that holds a byte that is not UTF-8, and only then names that
line, so the earliest bad row wins whatever the line ends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, Union

from .cell_model import check_cell_id
from .errors import DataError

KPI_CSV_HEADER = [
    "cell_id",
    "tch_traffic_erl",
    "dl_edge_throughput_kbps",
    "pdch_congestion_pct",
    "preempt_pdch",
    "ts_count",
]

CLUSTERS_CSV_HEADER = ["cell_id", "cluster"]


def fmt_num(value: float) -> str:
    """Shortest decimal text that round-trips; integral values print bare."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class KpiRecord:
    """One cell's busy-hour KPI row (the five clustering features plus id),
    checked when built; the ``cell_id`` is checked where a file names it."""

    cell_id: str
    tch_traffic_erl: float
    dl_edge_throughput_kbps: float
    pdch_congestion_pct: float
    preempt_pdch: float
    ts_count: int

    def __post_init__(self) -> None:
        for name in ("tch_traffic_erl", "dl_edge_throughput_kbps", "preempt_pdch"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DataError(f"cell {self.cell_id!r}: {name} must be finite and >= 0, got {v}")
        c = self.pdch_congestion_pct
        if not math.isfinite(c) or not 0 <= c <= 100:
            raise DataError(f"cell {self.cell_id!r}: pdch_congestion_pct must be in [0, 100], got {c}")
        if self.ts_count <= 0:
            raise DataError(f"cell {self.cell_id!r}: ts_count must be > 0, got {self.ts_count}")


def _lines(data: bytes, where: Union[str, Path], lines_before: int) -> Iterator[str]:
    """The lines of ``data`` without their ends, then the ``DataError`` that names
    the first line holding a byte that is not UTF-8, if there is one.

    A line ends at ``\\n``, ``\\r\\n`` or a bare ``\\r``. ``lines_before`` lines of
    the file come before ``data``; line 0 is the header and data rows count
    from 1, as in every other row error. The good lines come first, so a
    reader names an earlier bad row first.
    """
    try:
        text, error = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        good = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        text, error = data[:good].decode("utf-8"), exc
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":  # the text ends with a line end, or is empty
        lines.pop()
    yield from lines
    if error is not None:
        line = lines_before + len(lines)
        row = "header" if line == 0 else f"row {line}"
        raise DataError(f"{where}: {row}: not UTF-8 text ({error.reason})")


def read_csv(path: Union[str, Path], header: Sequence[str]) -> list[tuple[int, list[str]]]:
    """Data rows of a table keyed by a ``cell_id`` in its first column, with 1-based
    row numbers.

    The first line must equal ``header``. Blank rows are skipped but still
    counted; a ``"``, a row of another width, a bad or a repeated ``cell_id``
    is a ``DataError`` naming the file and the row. The rows before the first
    line that is not UTF-8 are checked before that line is named.
    """
    lines = _lines(Path(path).read_bytes(), path, 0)
    got = next(lines, None)
    if got != ",".join(header):
        raise DataError(f"{path}: CSV header mismatch: expected {','.join(header)}, "
                        f"got {got or 'an empty file'}")
    rows = []
    seen: set[str] = set()
    for row_no, line in enumerate(lines, start=1):
        if not line:
            continue
        where = f"{path}: row {row_no}"
        if '"' in line:
            raise DataError(f"{where}: a field holds '\"' (fields are never quoted)")
        row = line.split(",")
        if len(row) != len(header):
            raise DataError(f"{where}: expected {len(header)} fields, got {len(row)}")
        if check_cell_id(row[0], where) in seen:
            raise DataError(f"{where}: duplicate cell_id {row[0]!r}")
        seen.add(row[0])
        rows.append((row_no, row))
    return rows


def write_csv(path: Union[str, Path], header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` then ``rows``, fields joined by "," and each row ended by "\\n"."""
    Path(path).write_bytes(
        "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]).encode())


def read_json(path: Union[str, Path]) -> Any:
    """Parse a JSON document; text that is not UTF-8 or not JSON is a ``DataError``
    naming the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def write_json(doc: Any, path: Union[str, Path]) -> None:
    """Two-space indented JSON with a trailing newline."""
    Path(path).write_bytes((json.dumps(doc, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# KPI records and cluster labels


def ingest_kpi_csv(path: Union[str, Path]) -> list[KpiRecord]:
    """Parse a KPI CSV into records; errors name the file and the 1-based data row."""
    records = []
    for row_no, row in read_csv(path, KPI_CSV_HEADER):
        try:
            erl, thr, cong, pre = (float(v) for v in row[1:5])
            ts = int(row[5])
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: non-numeric field ({exc})") from None
        try:
            records.append(KpiRecord(row[0], erl, thr, cong, pre, ts))
        except DataError as exc:
            raise DataError(f"{path}: row {row_no}: {exc}") from None
    return records


def emit_kpi_csv(records: Sequence[KpiRecord], path: Union[str, Path]) -> None:
    """Write records in the documented schema, preserving printed digits; every
    ``cell_id`` is checked before the file is opened."""
    write_csv(path, KPI_CSV_HEADER, [
        [
            check_cell_id(r.cell_id, str(path)),
            fmt_num(r.tch_traffic_erl),
            fmt_num(r.dl_edge_throughput_kbps),
            fmt_num(r.pdch_congestion_pct),
            fmt_num(r.preempt_pdch),
            r.ts_count,
        ]
        for r in records
    ])


def read_clusters_csv(path: Union[str, Path]) -> dict[str, int]:
    """cell_id -> cluster of each row of a ``clusters.csv``, in file order; every
    cluster is an integer >= 0."""
    out: dict[str, int] = {}
    for row_no, (cell_id, cluster) in read_csv(path, CLUSTERS_CSV_HEADER):
        try:
            out[cell_id] = int(cluster)
        except ValueError:
            raise DataError(f"{path}: row {row_no}: non-integer cluster {cluster!r}") from None
        if out[cell_id] < 0:
            raise DataError(f"{path}: row {row_no}: cluster {out[cell_id]} is below 0")
    return out
