"""Network-level evaluation: run every cell with and without power saving,
aggregate active-slot statistics, and emit comparison reports.

The headline number is the active-TRX reduction: summing each cell's active
TRX count over every measured scan, with saving versus always-on, on the same
traffic. Per-cell rows mirror the operator view (total slots before, maximum
active slots after). An optional warmup window excludes the cold-start ramp,
during which every TRX is still on, from the statistics; a live network would
already be converged.

``simulate_network`` first checks everything that needs no trace, each
``cell_id`` included, so no timeline file name can hold "/" or NUL. It then
reads the traces once, in file order: each cell runs with saving off and on
as its trace arrives, each timeline folds into its mode's report, and the
trace is dropped, so memory holds one trace and one timeline, never the
fleet. Timeline CSVs are staged and moved into place only after the last
check (no fleet cell untraced) passes, so a failed run leaves no output.

``simulate_csv`` does the same for a traffic CSV on every usable CPU: the
file is cut between cell blocks into one span per CPU, and each span is
read and run by its own process, which holds one trace and one timeline at
a time. Reports, timelines and errors do not depend on the CPU count.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import parts
from .cell_model import CellConfig
from .errors import ConfigurationError, DataError
from .saving_engine import CellTimeline, PowerSavingParams, run_cell, validate_params
from .traffic import (TrafficTrace, iter_traffic_span, read_json, traffic_spans, write_csv,
                      write_json, write_rows)

SCHEMA_VERSION = 1

COMPARISON_CSV_HEADER = ["cell_id", "ts_before", "max_ts_after"]
TIMELINE_CSV_HEADER = ["scan", "erlang", "active_ts"]


@dataclass(frozen=True)
class NetworkScenario:
    """Everything needed to run a fleet but its traffic: cells, hysteresis, knobs."""

    cells: Sequence[CellConfig]
    base_params: PowerSavingParams
    hysteresis: Mapping[str, int] = field(default_factory=dict)
    default_hysteresis: Optional[int] = None
    warmup_scans: int = 0

    def validate(self) -> "NetworkScenario":
        """Check every cell's inputs but its trace, so a run fails before reading any trace."""
        if self.warmup_scans < 0:
            raise ConfigurationError(f"warmup_scans must be >= 0, got {self.warmup_scans}")
        if self.default_hysteresis is not None:
            validate_params(replace(self.base_params, hysteresis=self.default_hysteresis))
        seen = set()
        for config in self.cells:
            config.validate()
            if config.cell_id in seen:
                raise ConfigurationError(f"duplicate cell_id {config.cell_id!r}")
            seen.add(config.cell_id)
            if config.cell_id not in self.hysteresis and self.default_hysteresis is None:
                raise ConfigurationError(
                    f"cell {config.cell_id!r} has no hysteresis assignment and no default"
                )
            validate_params(self.params_for(config.cell_id))
        return self

    def check_trace(self, trace: TrafficTrace) -> None:
        """A trace must be longer than the warm-up, so every cell has a measured scan."""
        n_scans = len(trace.samples)
        if self.warmup_scans >= n_scans:
            raise ConfigurationError(
                f"warmup_scans {self.warmup_scans} consumes the whole "
                f"{n_scans}-scan trace of cell {trace.cell_id!r}"
            )

    def params_for(self, cell_id: str) -> PowerSavingParams:
        h = self.hysteresis.get(cell_id, self.default_hysteresis)
        return replace(self.base_params, hysteresis=h)


@dataclass(frozen=True)
class CellStats:
    cell_id: str
    num_trx: int
    hysteresis: Optional[int]
    max_ts: int
    mean_ts: float
    max_trx: int
    mean_trx: float
    blocked: int
    n_scans: int


@dataclass(frozen=True)
class NetworkReport:
    """Aggregated view of one run mode (saving on or off)."""

    ps_enabled: bool
    warmup_scans: int
    per_cell: dict[str, CellStats]
    trx_scans: int
    ts_scans: int
    blocked: int


def summarize(
    timelines: Iterable[CellTimeline],
    ps_enabled: bool,
    warmup_scans: int = 0,
) -> NetworkReport:
    """Fold timelines, in the order given, into per-cell and aggregate statistics
    over scans >= warmup_scans (``NetworkScenario.check_trace`` checks each is longer)."""
    per_cell: dict[str, CellStats] = {}
    trx_scans = 0
    ts_scans = 0
    blocked_total = 0
    for tl in timelines:
        trx = tl.active_trx[warmup_scans:]
        ts = tl.active_ts[warmup_scans:]
        blk = tl.blocked[warmup_scans:]
        stats = CellStats(
            cell_id=tl.cell_id,
            num_trx=tl.config.num_trx,
            hysteresis=tl.params.hysteresis if ps_enabled else None,
            max_ts=int(ts.max()),
            mean_ts=float(ts.mean()),
            max_trx=int(trx.max()),
            mean_trx=float(trx.mean()),
            blocked=int(blk.sum()),
            n_scans=len(trx),
        )
        per_cell[tl.cell_id] = stats
        trx_scans += int(trx.sum())
        ts_scans += int(ts.sum())
        blocked_total += stats.blocked
    return NetworkReport(
        ps_enabled=ps_enabled,
        warmup_scans=warmup_scans,
        per_cell=per_cell,
        trx_scans=trx_scans,
        ts_scans=ts_scans,
        blocked=blocked_total,
    )


def _merge(reports: Sequence[NetworkReport], ps_enabled: bool,
           warmup_scans: int) -> NetworkReport:
    """One report over the cells of ``reports``, per_cell in cell_id order."""
    stats = sorted((s for r in reports for s in r.per_cell.values()), key=lambda s: s.cell_id)
    return NetworkReport(
        ps_enabled=ps_enabled,
        warmup_scans=warmup_scans,
        per_cell={s.cell_id: s for s in stats},
        trx_scans=sum(r.trx_scans for r in reports),
        ts_scans=sum(r.ts_scans for r in reports),
        blocked=sum(r.blocked for r in reports),
    )


def simulate_network(
    scenario: NetworkScenario,
    traces: Iterable[TrafficTrace],
    modes: Sequence[str] = ("off", "on"),
    timeline_dir: Union[str, Path, None] = None,
    n_timelines: int = 0,
) -> dict[str, NetworkReport]:
    """Run each cell once per mode ("off", "on") as its trace arrives and fold each
    timeline into its mode's report. ``traces`` is read once, in its own order, and
    must trace exactly the scenario's cells; memory holds one trace and one timeline.

    The first ``n_timelines`` cells by cell_id get ``<cell_id>_<mode>.csv``
    timelines. They are staged in a new directory beside ``timeline_dir`` and
    moved into it only after the last check passes, so a failed run leaves
    ``timeline_dir`` as it was.
    """
    # a generator, so each part's traces can be closed the same way
    return _simulate(scenario, [traces], lambda part: (trace for trace in part), modes,
                     timeline_dir, n_timelines, "")


def simulate_csv(
    scenario: NetworkScenario,
    path: Union[str, Path],
    scan_period_s: float,
    modes: Sequence[str] = ("off", "on"),
    timeline_dir: Union[str, Path, None] = None,
    n_timelines: int = 0,
) -> dict[str, NetworkReport]:
    """``simulate_network`` of the traffic CSV ``path``, its cell blocks cut into
    one span per usable CPU (``traffic_spans``), each span run in its own
    process (``parts.run_parts``).

    Reports and timelines are byte for byte those of one process. If any span
    fails, or a cell is traced in two spans, the file is run again as one
    span, so every error, with its row number, is the one a single process
    raises. Every ``DataError`` about the traffic starts with ``path``.
    """
    scenario.validate()  # before the cut reads the file, as a single process does
    spans = traffic_spans(path, min(parts.cpus(), len(scenario.cells)))
    return parts.serial_on_failure(
        lambda spans: _simulate(scenario, spans,
                                lambda span: iter_traffic_span(path, scan_period_s, span),
                                modes, timeline_dir, n_timelines, f"{path}: "),
        spans, (0, None))


def _simulate(scenario: NetworkScenario, sources: Sequence[Any],
              read: Callable[[Any], Generator[TrafficTrace, None, None]], modes: Sequence[str],
              timeline_dir: Union[str, Path, None], n_timelines: int,
              where: str) -> dict[str, NetworkReport]:
    """Run the traces ``read(source)`` of each source, each source in its own
    process; ``where`` starts each error about the traces."""
    scenario.validate()
    configs = {c.cell_id: c for c in scenario.cells}
    kept = set(sorted(configs)[:n_timelines])
    staging = _staging_dir(Path(timeline_dir)) if kept else None

    def run(source: Any) -> tuple[dict[str, NetworkReport], list[str]]:
        """Each mode's report over the traces of ``source``, and their cell ids."""
        traces = read(source)
        reports: dict[str, list[NetworkReport]] = {mode: [] for mode in modes}
        ran: dict[str, None] = {}  # in trace order
        try:
            for trace in traces:
                config = configs.get(trace.cell_id)
                if config is None:
                    raise DataError(f"{where}cell {trace.cell_id!r} is not in the fleet")
                if trace.cell_id in ran:
                    raise DataError(f"{where}cell {trace.cell_id!r} has a second trace")
                ran[trace.cell_id] = None
                scenario.check_trace(trace)
                for mode in modes:
                    timeline = run_cell(config, scenario.params_for(config.cell_id), trace,
                                        ps_enabled=mode == "on")
                    if config.cell_id in kept:
                        write_timeline_csv(timeline, staging / f"{config.cell_id}_{mode}.csv")
                    reports[mode].append(summarize([timeline], mode == "on",
                                                   scenario.warmup_scans))
        finally:
            traces.close()  # closes a traffic file when a part stops early
        return ({mode: _merge(reports[mode], mode == "on", scenario.warmup_scans)
                 for mode in modes}, list(ran))

    try:
        done = parts.run_parts(run, sources)
        ran: set[str] = set()
        for _, ids in done:
            twice = ran.intersection(ids)
            if twice:
                raise DataError(f"{where}cell {min(twice)!r} has a second trace")
            ran.update(ids)
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
    return {mode: _merge([reports[mode] for reports, _ in done], mode == "on",
                         scenario.warmup_scans) for mode in modes}


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
    report_on: NetworkReport,
    report_off: NetworkReport,
    metadata: Optional[dict] = None,
) -> ComparisonSummary:
    """Build the before/after comparison from the two run modes."""
    if set(report_on.per_cell) != set(report_off.per_cell):
        raise DataError("comparison needs the same cell set in both reports")
    for cell_id, off_stats in report_off.per_cell.items():
        if report_on.per_cell[cell_id].n_scans != off_stats.n_scans:
            raise DataError(f"cell {cell_id!r}: scan counts differ between runs")

    rows = []
    for cell_id in sorted(report_off.per_cell):
        off_stats = report_off.per_cell[cell_id]
        on_stats = report_on.per_cell[cell_id]
        rows.append(CellComparison(
            cell_id=cell_id,
            ts_before=off_stats.max_ts,
            max_ts_after=on_stats.max_ts,
            mean_ts_after=on_stats.mean_ts,
            blocked_before=off_stats.blocked,
            blocked_after=on_stats.blocked,
        ))
    reduction = 0.0
    if report_off.trx_scans > 0:
        reduction = (report_off.trx_scans - report_on.trx_scans) / report_off.trx_scans * 100.0
    return ComparisonSummary(
        schema_version=SCHEMA_VERSION,
        metadata=dict(metadata or {}),
        rows=tuple(rows),
        trx_scans_without=report_off.trx_scans,
        trx_scans_with=report_on.trx_scans,
        ts_scans_without=report_off.ts_scans,
        ts_scans_with=report_on.ts_scans,
        reduction_pct=reduction,
        blocked_without=report_off.blocked,
        blocked_with=report_on.blocked,
        blocking_delta=report_on.blocked - report_off.blocked,
    )


def summary_to_dict(summary: ComparisonSummary) -> dict:
    out = dataclasses.asdict(summary)
    out["rows"] = [dataclasses.asdict(r) for r in summary.rows]
    return out


# JSON types a parsed summary field may hold, by its annotation; a bool is no number
_JSON_KINDS = {"str": (str, "a string"), "dict": (dict, "an object"),
               "int": ((int, float), "a number"), "float": ((int, float), "a number")}


def _check_json_types(record: Any, where: str) -> None:
    for f in dataclasses.fields(record):
        if f.type not in _JSON_KINDS:
            continue
        kinds, noun = _JSON_KINDS[f.type]
        value = getattr(record, f.name)
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise DataError(f"summary: {where}{f.name} must be {noun}, got {value!r}")


def summary_from_dict(data: dict) -> ComparisonSummary:
    """Inverse of ``summary_to_dict``; a missing or unknown key, or a value of
    the wrong JSON type, is a ``DataError``."""
    try:
        rows = tuple(CellComparison(**r) for r in data["rows"])
        fields = {k: v for k, v in data.items() if k != "rows"}
        summary = ComparisonSummary(rows=rows, **fields)
    except KeyError as exc:
        raise DataError(f"summary: missing key {exc}") from None
    except TypeError as exc:
        raise DataError(f"summary: {exc}") from None
    _check_json_types(summary, "")
    for index, row in enumerate(rows):
        _check_json_types(row, f"rows[{index}].")
    return summary


def write_summary_json(summary: ComparisonSummary, path: Union[str, Path]) -> None:
    write_json(summary_to_dict(summary), path)


def read_summary_json(path: Union[str, Path]) -> ComparisonSummary:
    return summary_from_dict(read_json(path))


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


def write_timeline_csv(timeline: CellTimeline, dest: Union[str, Path]) -> None:
    """Plot-ready per-scan series: scan index, offered Erlang, active slots."""
    offered = np.asarray(timeline.offered, np.float64)
    write_rows(dest, TIMELINE_CSV_HEADER,
               [[np.arange(timeline.n_scans), offered, timeline.active_ts]])
