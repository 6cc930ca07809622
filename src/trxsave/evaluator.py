"""Network-level evaluation: run every cell with and without power saving,
aggregate active-slot statistics, and emit comparison reports.

The headline number is the active-TRX reduction: summing each cell's active
TRX count over every measured scan, with saving versus always-on, on the same
traffic. Per-cell rows mirror the operator view (total slots before, maximum
active slots after). An optional warmup window excludes the cold-start ramp,
during which every TRX is still on, from the statistics; a live network would
already be converged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Mapping, Optional, Sequence, Union

from .cell_model import CellConfig
from .errors import ConfigurationError, DataError
from .saving_engine import CellTimeline, PowerSavingParams, run_cell, validate_params
from .traffic import TrafficTrace, fmt_num, open_text, read_json, write_csv, write_json

SCHEMA_VERSION = 1

COMPARISON_CSV_HEADER = ["cell_id", "ts_before", "max_ts_after"]
TIMELINE_CSV_HEADER = ["scan", "erlang", "active_ts"]


@dataclass(frozen=True)
class NetworkScenario:
    """Everything needed to run a fleet: cells, traffic, hysteresis, knobs."""

    cells: Sequence[CellConfig]
    traces: Mapping[str, TrafficTrace]
    base_params: PowerSavingParams
    hysteresis: Mapping[str, int] = field(default_factory=dict)
    default_hysteresis: Optional[int] = None
    warmup_scans: int = 0

    def validate(self) -> "NetworkScenario":
        validate_params(self.base_params)
        if self.warmup_scans < 0:
            raise ConfigurationError(f"warmup_scans must be >= 0, got {self.warmup_scans}")
        seen = set()
        for config in self.cells:
            config.validate()
            if config.cell_id in seen:
                raise ConfigurationError(f"duplicate cell_id {config.cell_id!r}")
            seen.add(config.cell_id)
            if config.cell_id not in self.traces:
                raise ConfigurationError(f"cell {config.cell_id!r} has no traffic trace")
            if config.cell_id not in self.hysteresis and self.default_hysteresis is None:
                raise ConfigurationError(
                    f"cell {config.cell_id!r} has no hysteresis assignment and no default"
                )
        return self

    def params_for(self, cell_id: str) -> PowerSavingParams:
        h = self.hysteresis.get(cell_id, self.default_hysteresis)
        return replace(self.base_params, hysteresis=h)


def simulate_network(
    scenario: NetworkScenario, ps_enabled: bool
) -> dict[str, CellTimeline]:
    """Run every cell independently; with saving off the assignment is ignored."""
    scenario.validate()
    timelines: dict[str, CellTimeline] = {}
    for config in scenario.cells:
        params = scenario.params_for(config.cell_id) if ps_enabled else scenario.base_params
        trace = scenario.traces[config.cell_id]
        if scenario.warmup_scans >= len(trace.samples):
            raise ConfigurationError(
                f"warmup_scans {scenario.warmup_scans} consumes the whole "
                f"{len(trace.samples)}-scan trace of cell {config.cell_id!r}"
            )
        timelines[config.cell_id] = run_cell(config, params, trace, ps_enabled=ps_enabled)
    return timelines


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
    timelines: Mapping[str, CellTimeline],
    ps_enabled: bool,
    warmup_scans: int = 0,
) -> NetworkReport:
    """Reduce timelines to per-cell and aggregate statistics.

    Statistics cover scans at index >= warmup_scans; cells reduce in cell_id
    order so aggregation is deterministic.
    """
    per_cell: dict[str, CellStats] = {}
    trx_scans = 0
    ts_scans = 0
    blocked_total = 0
    for cell_id in sorted(timelines):
        tl = timelines[cell_id]
        if warmup_scans >= tl.n_scans:
            raise ConfigurationError(
                f"warmup_scans {warmup_scans} >= trace length {tl.n_scans} for {cell_id!r}"
            )
        trx = tl.active_trx[warmup_scans:]
        ts = tl.active_ts[warmup_scans:]
        blk = tl.blocked[warmup_scans:]
        stats = CellStats(
            cell_id=cell_id,
            num_trx=tl.config.num_trx,
            hysteresis=tl.params.hysteresis if ps_enabled else None,
            max_ts=int(ts.max()),
            mean_ts=float(ts.mean()),
            max_trx=int(trx.max()),
            mean_trx=float(trx.mean()),
            blocked=int(blk.sum()),
            n_scans=len(trx),
        )
        per_cell[cell_id] = stats
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


def summary_from_dict(data: dict) -> ComparisonSummary:
    """Inverse of ``summary_to_dict``; a missing or unknown key is a ``DataError``."""
    try:
        rows = tuple(CellComparison(**r) for r in data["rows"])
        fields = {k: v for k, v in data.items() if k != "rows"}
        return ComparisonSummary(rows=rows, **fields)
    except KeyError as exc:
        raise DataError(f"summary: missing key {exc}") from None
    except TypeError as exc:
        raise DataError(f"summary: {exc}") from None


def write_summary_json(summary: ComparisonSummary, dest: Union[str, Path, IO[str]]) -> None:
    write_json(summary_to_dict(summary), dest)


def read_summary_json(source: Union[str, Path, IO[str]]) -> ComparisonSummary:
    return summary_from_dict(read_json(source))


def write_comparison_csv(summary: ComparisonSummary, dest: Union[str, Path, IO[str]]) -> None:
    """Per-cell table in the operator shape: cell_id,ts_before,max_ts_after."""
    write_csv(dest, COMPARISON_CSV_HEADER,
              [(row.cell_id, row.ts_before, row.max_ts_after) for row in summary.rows])


def emit_report(summary: ComparisonSummary, out_dir: Union[str, Path]) -> list[Path]:
    """Write comparison.csv and summary.json; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "comparison.csv", out / "summary.json"
    write_comparison_csv(summary, csv_path)
    write_summary_json(summary, json_path)
    return [csv_path, json_path]


def write_timeline_csv(timeline: CellTimeline, dest: Union[str, Path, IO[str]]) -> None:
    """Plot-ready per-scan series: scan index, offered Erlang, active slots."""
    with open_text(dest, "w") as stream:
        stream.write(",".join(TIMELINE_CSV_HEADER) + "\n")
        offered = timeline.offered.tolist()
        active = timeline.active_ts.tolist()
        lines = [f"{i},{fmt_num(e)},{t}" for i, (e, t) in enumerate(zip(offered, active))]
        stream.write("\n".join(lines) + "\n")
