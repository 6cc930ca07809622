"""Network-level evaluation: run every cell with power saving, fold each run
and its always-on counterpart into active-slot statistics, and emit
comparison reports.

The headline number is the active-TRX reduction: summing each cell's active
TRX count over every measured scan, with saving versus always-on, on the same
traffic. Per-cell rows mirror the operator view (total slots before, maximum
active slots after). An optional warmup window excludes the cold-start ramp,
during which every TRX is still on, from the statistics; a live network would
already be converged.

Each value in a ``NetworkScenario`` checks itself when built, each
``cell_id`` included, so no timeline file name can hold "/" or NUL; that the
ids are unique and the warm-up >= 0 is checked only by ``cli``.
``simulate_network`` reads the traces once, in file order: each cell runs
once, with saving on, as its trace arrives, and ``summarize`` reduces the
timeline to the cell's (off, on) statistics. Saving off needs no run: every
TRX stays on, so its statistics are arithmetic on the timeline, its blocked
calls folded from those of saving on. The trace is then dropped, so memory
holds one trace and one timeline, never the fleet. ``compare`` folds the
pairs once into the summary. Timeline CSVs are staged and moved into place
only after the last check (no fleet cell untraced) passes, so a failed run
leaves no output.

``simulate_csv`` does the same for a traffic CSV on every usable CPU: the
file is cut between cell blocks into one span per CPU, and each span is
read and run by its own process, which holds one trace and one timeline at
a time. Statistics, timelines and errors do not depend on the CPU count.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Mapping, Optional, Sequence, Union

# traffic, the largest module, before numpy: compiled from source (no bytecode
# cached), its parser's freed memory is then reused by numpy's import; the other
# order left bursty-churn's simulate peak about 0.4 MB higher
from .traffic import TrafficTrace, iter_traffic_span, traffic_spans, write_rows

import numpy as np

from . import parts
from .cell_model import SLOTS_PER_TRX, CellConfig
from .errors import ConfigurationError, DataError
from .saving_engine import CellTimeline, PowerSavingParams, run_cell
from .tables import read_json, write_csv, write_json

SCHEMA_VERSION = 1

COMPARISON_CSV_HEADER = ["cell_id", "ts_before", "max_ts_after"]
TIMELINE_CSV_HEADER = ["scan", "erlang", "active_ts"]


@dataclass(frozen=True)
class NetworkScenario:
    """Everything needed to run a fleet but its traffic: the cells, each cell's
    parameters by ``cell_id``, and the warm-up.

    When built it checks that every cell has parameters, so a run fails before
    reading any trace. That the ids are unique and the warm-up >= 0 only
    ``cli`` checks, before it builds one; a scenario built in code must keep
    both rules itself.
    """

    cells: Sequence[CellConfig]
    params: Mapping[str, PowerSavingParams]
    warmup_scans: int = 0

    def __post_init__(self) -> None:
        for config in self.cells:
            if config.cell_id not in self.params:
                raise ConfigurationError(
                    f"cell {config.cell_id!r} has no hysteresis assignment and no default"
                )

    def check_trace(self, trace: TrafficTrace) -> None:
        """A trace must be longer than the warm-up, so every cell has a measured scan."""
        n_scans = len(trace.samples)
        if self.warmup_scans >= n_scans:
            raise ConfigurationError(
                f"warmup_scans {self.warmup_scans} consumes the whole "
                f"{n_scans}-scan trace of cell {trace.cell_id!r}"
            )


@dataclass(frozen=True)
class CellStats:
    """What ``compare`` reads of one cell's run, over its measured scans."""

    cell_id: str
    max_ts: int
    mean_ts: float
    blocked: int
    trx_scans: int


def summarize(timeline: CellTimeline, config: CellConfig,
              warmup_scans: int = 0) -> tuple[CellStats, CellStats]:
    """One cell's (off, on) statistics over scans >= warmup_scans
    (``NetworkScenario.check_trace`` checks the trace is longer).

    The on side reads the timeline. Saving off keeps every TRX on, so every
    scan has ``8 * num_trx`` slots and blocks the calls above the full
    capacity. Those are folded from the on side's blocked calls: a scan that
    blocked calls on E enabled TRXs blocks ``8 * (num_trx - E)`` fewer at
    full capacity, or none, and a scan that blocked none blocks none.
    """
    ts = timeline.active_ts[warmup_scans:]
    full_ts = SLOTS_PER_TRX * config.num_trx
    first = max(warmup_scans, 1)  # scan 0 places its calls on every TRX, so blocks the same
    blocked_off = timeline.blocked[first:] - full_ts
    # scan i places its calls on the TRXs scan i - 1 left enabled
    blocked_off += SLOTS_PER_TRX * timeline.active_trx[first - 1:-1]
    np.maximum(blocked_off, 0, out=blocked_off)
    blocked_off_total = int(blocked_off.sum()) + int(timeline.blocked[warmup_scans:first].sum())
    return (
        CellStats(cell_id=timeline.cell_id, max_ts=full_ts, mean_ts=float(full_ts),
                  blocked=blocked_off_total, trx_scans=config.num_trx * len(ts)),
        CellStats(cell_id=timeline.cell_id, max_ts=int(ts.max()), mean_ts=float(ts.mean()),
                  blocked=int(timeline.blocked[warmup_scans:].sum()),
                  trx_scans=int(timeline.active_trx[warmup_scans:].sum())),
    )


def simulate_network(
    scenario: NetworkScenario,
    traces: Iterable[TrafficTrace],
    timeline_dir: Union[str, Path, None] = None,
    n_timelines: int = 0,
) -> list[tuple[CellStats, CellStats]]:
    """Run each cell with saving on as its trace arrives; each cell's (off, on)
    statistics, in cell_id order. ``traces`` is read once, in its own
    order, and must trace exactly the scenario's cells; memory holds one trace
    and one timeline.

    The first ``n_timelines`` cells by cell_id get ``<cell_id>_<mode>.csv``
    timelines. They are staged in a new directory beside ``timeline_dir`` and
    moved into it only after the last check passes, so a failed run leaves
    ``timeline_dir`` as it was.
    """
    # a generator, so each part's traces can be closed the same way
    return _simulate(scenario, [traces], lambda part: (trace for trace in part),
                     timeline_dir, n_timelines, "")


def simulate_csv(
    scenario: NetworkScenario,
    path: Union[str, Path],
    scan_period_s: float,
    timeline_dir: Union[str, Path, None] = None,
    n_timelines: int = 0,
) -> list[tuple[CellStats, CellStats]]:
    """``simulate_network`` of the traffic CSV ``path``, its cell blocks cut into
    one span per usable CPU (``traffic_spans``), each span run in its own
    process (``parts.run_parts``).

    Statistics and timelines are byte for byte those of one process. If any span
    fails, or a cell is traced in two spans, the file is run again as one
    span, so every error, with its row number, is the one a single process
    raises. Every ``DataError`` about the traffic starts with ``path``.
    """
    spans = traffic_spans(path, min(parts.cpus(), len(scenario.cells)))
    return parts.serial_on_failure(
        lambda spans: _simulate(scenario, spans,
                                lambda span: iter_traffic_span(path, scan_period_s, span),
                                timeline_dir, n_timelines, f"{path}: "),
        spans, (0, None))


def _simulate(scenario: NetworkScenario, sources: Sequence[Any],
              read: Callable[[Any], Generator[TrafficTrace, None, None]],
              timeline_dir: Union[str, Path, None], n_timelines: int,
              where: str) -> list[tuple[CellStats, CellStats]]:
    """Run the traces ``read(source)`` of each source of the scenario, each
    source in its own process; ``where`` starts each error about the traces."""
    configs = {c.cell_id: c for c in scenario.cells}
    kept = set(sorted(configs)[:n_timelines])
    staging = _staging_dir(Path(timeline_dir)) if kept else None

    def run(source: Any) -> list[tuple[CellStats, CellStats]]:
        """Each traced cell's (off, on) statistics, in trace order."""
        traces = read(source)
        ran: dict[str, tuple[CellStats, CellStats]] = {}
        try:
            for trace in traces:
                config = configs.get(trace.cell_id)
                if config is None:
                    raise DataError(f"{where}cell {trace.cell_id!r} is not in the fleet")
                if trace.cell_id in ran:
                    raise DataError(f"{where}cell {trace.cell_id!r} has a second trace")
                scenario.check_trace(trace)
                timeline = run_cell(config, scenario.params[config.cell_id], trace)
                # before the timelines: the other order raised bursty-churn's peak RSS 0.4 MB
                ran[trace.cell_id] = summarize(timeline, config, scenario.warmup_scans)
                if config.cell_id in kept:
                    write_timeline_csv(timeline, config, staging)
                # freed before the next trace is read, so memory holds one of each: on
                # 2 vCPUs the simulate peak fell about 1 MB on the 100-cell x 6-day
                # fleet and 0.15-0.2 MB on bursty-churn
                del trace, timeline
        finally:
            traces.close()  # closes a traffic file when a part stops early
        return list(ran.values())

    try:
        done = parts.run_parts(run, sources)
        ran: set[str] = set()
        for part in done:
            ids = {off.cell_id for off, _ in part}
            twice = ran & ids
            if twice:
                raise DataError(f"{where}cell {min(twice)!r} has a second trace")
            ran |= ids
        untraced = next((c.cell_id for c in scenario.cells if c.cell_id not in ran), None)
        if untraced is not None:
            raise DataError(f"{where}no trace for fleet cell {untraced!r}")
        if staging is not None:
            Path(timeline_dir).mkdir(parents=True, exist_ok=True)
            for name in sorted(os.listdir(staging)):
                os.replace(staging / name, Path(timeline_dir) / name)
    finally:
        if staging is not None:
            shutil.rmtree(staging)
    return sorted((cell for part in done for cell in part), key=lambda cell: cell[0].cell_id)


def _staging_dir(timeline_dir: Path) -> Path:
    """A new directory in the nearest existing parent of ``timeline_dir``, so its
    files move in by rename."""
    parent = next(p for p in (timeline_dir.parent, *timeline_dir.parent.parents) if p.is_dir())
    return Path(tempfile.mkdtemp(prefix=f".{timeline_dir.name}.staging-", dir=parent))


@dataclass(frozen=True)
class CellComparison:
    cell_id: str
    ts_before: int
    max_ts_after: int
    mean_ts_after: float
    blocked_before: int
    blocked_after: int


@dataclass(frozen=True)
class ComparisonSummary:
    schema_version: int
    metadata: dict
    rows: tuple[CellComparison, ...]
    trx_scans_without: int
    trx_scans_with: int
    ts_scans_without: int
    ts_scans_with: int
    reduction_pct: float
    blocked_without: int
    blocked_with: int
    blocking_delta: int


def compare(
    cells: Sequence[tuple[CellStats, CellStats]],
    metadata: Optional[dict] = None,
) -> ComparisonSummary:
    """Build the before/after comparison from each cell's (off, on) statistics;
    the rows keep the cells' order."""
    rows = []
    trx_off = trx_on = blocked_off = blocked_on = 0
    for off, on in cells:
        rows.append(CellComparison(
            cell_id=off.cell_id,
            ts_before=off.max_ts,
            max_ts_after=on.max_ts,
            mean_ts_after=on.mean_ts,
            blocked_before=off.blocked,
            blocked_after=on.blocked,
        ))
        trx_off += off.trx_scans
        trx_on += on.trx_scans
        blocked_off += off.blocked
        blocked_on += on.blocked
    reduction = 0.0
    if trx_off > 0:
        reduction = (trx_off - trx_on) / trx_off * 100.0
    return ComparisonSummary(
        schema_version=SCHEMA_VERSION,
        metadata=dict(metadata or {}),
        rows=tuple(rows),
        trx_scans_without=trx_off,
        trx_scans_with=trx_on,
        ts_scans_without=trx_off * SLOTS_PER_TRX,
        ts_scans_with=trx_on * SLOTS_PER_TRX,
        reduction_pct=reduction,
        blocked_without=blocked_off,
        blocked_with=blocked_on,
        blocking_delta=blocked_on - blocked_off,
    )


def summary_to_dict(summary: ComparisonSummary) -> dict:
    out = dataclasses.asdict(summary)
    out["rows"] = [dataclasses.asdict(r) for r in summary.rows]
    return out


# JSON types a summary field may hold, by its annotation; a bool is no number
_JSON_KINDS = {"str": (str, "a string"), "dict": (dict, "an object"),
               "int": ((int, float), "a number"), "float": ((int, float), "a number"),
               "tuple[CellComparison, ...]": (list, "a list")}


def _json_fields(cls: type, data: dict, where: str, key: str) -> dict:
    """``data`` if it holds exactly the fields of ``cls``, each of its JSON type;
    else an error after ``where`` about the first missing key in field order,
    unknown key or field of a wrong type, each name after ``key``."""
    names = [f.name for f in dataclasses.fields(cls)]
    missing = [name for name in names if name not in data]
    unknown = [name for name in data if name not in names]
    if missing or unknown:
        raise DataError(f"{where}missing key {key + missing[0]!r}" if missing
                        else f"{where}unknown key {key + unknown[0]!r}")
    for f in dataclasses.fields(cls):
        kinds, noun = _JSON_KINDS[f.type]
        if not isinstance(data[f.name], kinds) or isinstance(data[f.name], bool):
            raise DataError(f"{where}{key}{f.name} must be {noun}, got {data[f.name]!r}")
    return data


def write_summary_json(summary: ComparisonSummary, path: Union[str, Path]) -> None:
    write_json(summary_to_dict(summary), path)


def read_summary_json(path: Union[str, Path]) -> ComparisonSummary:
    """Inverse of ``write_summary_json``; a document that is not an object, a
    missing or unknown key, or a value of the wrong JSON type is a
    ``DataError`` that starts with ``path``."""
    data, where = read_json(path), f"{path}: "
    if not isinstance(data, dict):
        raise DataError(f"{where}expected a JSON object")
    rows = []
    for index, row in enumerate(_json_fields(ComparisonSummary, data, where, "")["rows"]):
        if not isinstance(row, dict):
            raise DataError(f"{where}rows[{index}] must be an object, got {row!r}")
        rows.append(CellComparison(**_json_fields(CellComparison, row, where,
                                                  f"rows[{index}].")))
    return ComparisonSummary(**{**data, "rows": tuple(rows)})


def write_comparison_csv(summary: ComparisonSummary, path: Union[str, Path]) -> None:
    """Per-cell table in the operator shape: cell_id,ts_before,max_ts_after."""
    write_csv(path, COMPARISON_CSV_HEADER,
              [(row.cell_id, row.ts_before, row.max_ts_after) for row in summary.rows])


def emit_report(summary: ComparisonSummary, out_dir: Union[str, Path]) -> list[Path]:
    """Write comparison.csv and summary.json; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "comparison.csv", out / "summary.json"
    write_comparison_csv(summary, csv_path)
    write_summary_json(summary, json_path)
    return [csv_path, json_path]


def write_timeline_csv(timeline: CellTimeline, config: CellConfig, out_dir: Path) -> None:
    """Plot-ready per-scan series of one cell, ``<cell_id>_off.csv`` and
    ``<cell_id>_on.csv`` in ``out_dir``: scan index, offered Erlang, active
    slots. Saving off has every slot of the cell active at every scan. The
    two files differ only in the last field, so ``write_rows`` writes them as
    one table with two last columns, the scan and Erlang text formatted once
    for both."""
    write_rows(
        [out_dir / f"{timeline.cell_id}_off.csv", out_dir / f"{timeline.cell_id}_on.csv"],
        TIMELINE_CSV_HEADER,
        [([range(timeline.n_scans), np.asarray(timeline.offered, np.float64)],
          [str(SLOTS_PER_TRX * config.num_trx), timeline.active_ts])])
