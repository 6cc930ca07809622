"""Traffic traces and KPI records.

Synthetic diurnal traces follow the familiar daily shape: a raised-cosine
between a trough hour and a peak hour, sampled at hourly marks, linearly
interpolated per scan, with optional Gaussian noise truncated at zero.

Erlang semantics: one Erlang is one continuously busy channel, so the call
demand at a scan is the offered Erlang rounded to the nearest integer
(half up).

Small tables (KPIs, clusters, assignments, reports) are read and written only
through ``read_csv``/``write_csv``/``read_json``/``write_json``, which own the
framing and the strictness checks.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence, Union

import numpy as np

from .cell_model import CellConfig
from .errors import ConfigurationError, DataError

KPI_CSV_HEADER = [
    "cell_id",
    "tch_traffic_erl",
    "dl_edge_throughput_kbps",
    "pdch_congestion_pct",
    "preempt_pdch",
    "ts_count",
]

TRAFFIC_CSV_HEADER = ["cell_id", "scan_index", "offered_erlang"]


def fmt_num(value: float) -> str:
    """Shortest decimal text that round-trips; integral values print bare."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class TrafficTrace:
    """Offered Erlang per scan for one cell."""

    cell_id: str
    scan_period_s: float
    samples: np.ndarray

    def validate(self) -> "TrafficTrace":
        if self.scan_period_s <= 0:
            raise DataError(f"trace {self.cell_id!r}: scan_period_s must be > 0")
        if len(self.samples) == 0:
            raise DataError(f"trace {self.cell_id!r}: no samples")
        if not np.all(np.isfinite(self.samples)):
            raise DataError(f"trace {self.cell_id!r}: non-finite sample")
        if np.any(self.samples < 0):
            raise DataError(f"trace {self.cell_id!r}: negative offered Erlang")
        return self


@dataclass(frozen=True)
class KpiRecord:
    """One cell's busy-hour KPI row (the five clustering features plus id)."""

    cell_id: str
    tch_traffic_erl: float
    dl_edge_throughput_kbps: float
    pdch_congestion_pct: float
    preempt_pdch: float
    ts_count: int

    def validate(self) -> "KpiRecord":
        for name in ("tch_traffic_erl", "dl_edge_throughput_kbps", "preempt_pdch"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DataError(f"cell {self.cell_id!r}: {name} must be finite and >= 0, got {v}")
        c = self.pdch_congestion_pct
        if not math.isfinite(c) or not 0 <= c <= 100:
            raise DataError(f"cell {self.cell_id!r}: pdch_congestion_pct must be in [0, 100], got {c}")
        if self.ts_count <= 0:
            raise DataError(f"cell {self.cell_id!r}: ts_count must be > 0, got {self.ts_count}")
        return self


@dataclass(frozen=True)
class DiurnalProfileSpec:
    """Shape parameters for a synthetic daily traffic profile."""

    base_erlang: float
    peak_erlang: float
    peak_hour: float = 14.0
    trough_hour: float = 4.0
    noise_sigma: float = 0.0
    days: int = 1
    seed: int = 0
    scan_period_s: float = 10.0

    def validate(self) -> "DiurnalProfileSpec":
        if not 0 <= self.base_erlang <= self.peak_erlang:
            raise ConfigurationError(
                f"need 0 <= base <= peak, got base={self.base_erlang} peak={self.peak_erlang}"
            )
        for name in ("peak_hour", "trough_hour"):
            h = getattr(self, name)
            if not 0 <= h < 24:
                raise ConfigurationError(f"{name} must be in [0, 24), got {h}")
        if self.peak_hour == self.trough_hour:
            raise ConfigurationError("peak_hour and trough_hour must differ")
        if self.noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.days < 1:
            raise ConfigurationError(f"days must be >= 1, got {self.days}")
        if self.scan_period_s <= 0 or 3600 % self.scan_period_s != 0:
            raise ConfigurationError(
                f"scan_period_s must divide one hour evenly, got {self.scan_period_s}"
            )
        return self


def _hourly_template(spec: DiurnalProfileSpec) -> np.ndarray:
    """Raised-cosine template evaluated at the 24 hourly marks."""
    hours = np.arange(24, dtype=np.float64)
    rise = (spec.peak_hour - spec.trough_hour) % 24.0
    fall = 24.0 - rise
    d = (hours - spec.trough_hour) % 24.0
    amp = spec.peak_erlang - spec.base_erlang
    vals = np.empty(24)
    rising = d <= rise
    vals[rising] = spec.base_erlang + amp * (1 - np.cos(np.pi * d[rising] / rise)) / 2
    f = (d[~rising] - rise) / fall
    vals[~rising] = spec.base_erlang + amp * (1 + np.cos(np.pi * f)) / 2
    return vals


def generate_diurnal_trace(spec: DiurnalProfileSpec, cell_id: str = "cell") -> TrafficTrace:
    """Build a deterministic trace for ``spec.days`` whole days.

    Samples are quantized to 6 decimals so CSV output stays compact and the
    in-memory series matches the emitted file exactly.
    """
    spec.validate()
    period = spec.scan_period_s
    scans_per_day = int(round(86400 / period))
    template = _hourly_template(spec)

    t_hours = (np.arange(scans_per_day, dtype=np.float64) * period / 3600.0) % 24.0
    lo = np.floor(t_hours).astype(int) % 24
    hi = (lo + 1) % 24
    frac = t_hours - np.floor(t_hours)
    day = template[lo] * (1 - frac) + template[hi] * frac

    samples = np.tile(day, spec.days)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        samples = samples + rng.normal(0.0, spec.noise_sigma, size=len(samples))
    samples = np.maximum(samples, 0.0)
    samples = np.round(samples, 6)
    return TrafficTrace(cell_id=cell_id, scan_period_s=period, samples=samples).validate()


def demand_series(samples: np.ndarray) -> np.ndarray:
    """Convert offered Erlang per scan into integer call demand, rounding half up."""
    return np.floor(np.asarray(samples, dtype=np.float64) + 0.5).astype(np.int32)


# ---------------------------------------------------------------------------
# Table files


@contextlib.contextmanager
def open_text(target: Union[str, Path, IO], mode: str = "r") -> Iterator[IO]:
    """Open a path as UTF-8 text without newline translation and close it after.

    A stream the caller passes is yielded as is and left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield target


def read_csv(
    source: Union[str, Path, IO[str]], header: Sequence[str]
) -> list[tuple[int, list[str]]]:
    """Data rows of a table keyed by its first column, with 1-based row numbers.

    The first line must equal ``header``. Blank rows are skipped but still
    counted; a row of another width or a repeated key is a ``DataError``.
    """
    with open_text(source) as stream:
        reader = csv.reader(stream)
        got = next(reader, None)
        if got != list(header):
            raise DataError(
                f"CSV header mismatch: expected {','.join(header)}, "
                f"got {','.join(got) if got else 'an empty file'}"
            )
        rows = []
        seen: set[str] = set()
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
            if row[0] in seen:
                raise DataError(f"row {row_no}: duplicate cell_id {row[0]!r}")
            seen.add(row[0])
            rows.append((row_no, row))
        return rows


def write_csv(
    dest: Union[str, Path, IO[str]], header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write ``header`` then ``rows`` with ``\\n`` line ends."""
    with open_text(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_json(source: Union[str, Path, IO[str]]) -> Any:
    """Parse a JSON document; malformed text is a ``DataError`` naming the source."""
    with open_text(source) as stream:
        try:
            return json.load(stream)
        except json.JSONDecodeError as exc:
            raise DataError(f"{source}: invalid JSON ({exc})") from None


def write_json(doc: Any, dest: Union[str, Path, IO[str]]) -> None:
    """Two-space indented JSON with a trailing newline."""
    with open_text(dest, "w") as stream:
        json.dump(doc, stream, indent=2)
        stream.write("\n")


# ---------------------------------------------------------------------------
# KPI records


def ingest_kpi_csv(source: Union[str, Path, IO[str]]) -> list[KpiRecord]:
    """Parse a KPI CSV into records; errors carry 1-based data row numbers."""
    records = []
    for row_no, row in read_csv(source, KPI_CSV_HEADER):
        try:
            erl, thr, cong, pre = (float(v) for v in row[1:5])
            ts = int(row[5])
        except ValueError as exc:
            raise DataError(f"row {row_no}: non-numeric field ({exc})") from None
        try:
            records.append(KpiRecord(row[0], erl, thr, cong, pre, ts).validate())
        except DataError as exc:
            raise DataError(f"row {row_no}: {exc}") from None
    return records


def emit_kpi_csv(records: Sequence[KpiRecord], dest: Union[str, Path, IO[str]]) -> None:
    """Write records in the documented schema, preserving printed digits."""
    write_csv(dest, KPI_CSV_HEADER, [
        [
            r.cell_id,
            fmt_num(r.tch_traffic_erl),
            fmt_num(r.dl_edge_throughput_kbps),
            fmt_num(r.pdch_congestion_pct),
            fmt_num(r.preempt_pdch),
            r.ts_count,
        ]
        for r in (rec.validate() for rec in records)
    ])


def busy_hour_average(daily_readings: Sequence[KpiRecord]) -> KpiRecord:
    """Average per-day busy-hour readings of one cell into a single record.

    Averaging damps single-day outliers from impulse traffic. Uses exact
    summation, so the result is independent of reading order.
    """
    if not daily_readings:
        raise DataError("busy_hour_average needs at least one reading")
    first = daily_readings[0]
    for r in daily_readings[1:]:
        if r.cell_id != first.cell_id:
            raise DataError(f"mixed cell_ids: {first.cell_id!r} vs {r.cell_id!r}")
        if r.ts_count != first.ts_count:
            raise DataError(f"cell {first.cell_id!r}: ts_count changed across readings")
    n = len(daily_readings)

    def mean(field: str) -> float:
        return math.fsum(getattr(r, field) for r in daily_readings) / n

    return KpiRecord(
        cell_id=first.cell_id,
        tch_traffic_erl=mean("tch_traffic_erl"),
        dl_edge_throughput_kbps=mean("dl_edge_throughput_kbps"),
        pdch_congestion_pct=mean("pdch_congestion_pct"),
        preempt_pdch=mean("preempt_pdch"),
        ts_count=first.ts_count,
    )


def busy_hour_erlang(trace: TrafficTrace) -> float:
    """Mean offered Erlang of each day's busiest contiguous hour, averaged.

    The busy hour is the sliding one-hour window with the highest mean. Traces
    shorter than one day are treated as a single day; shorter than one hour,
    the whole series is the window.
    """
    trace.validate()
    period = trace.scan_period_s
    per_hour = max(1, int(round(3600 / period)))
    per_day = max(per_hour, int(round(86400 / period)))
    x = trace.samples
    day_maxima = []
    for start in range(0, len(x), per_day):
        day = x[start:start + per_day]
        if len(day) < per_hour:
            if not day_maxima:
                day_maxima.append(float(np.mean(day)))
            continue
        csum = np.concatenate(([0.0], np.cumsum(day)))
        window_means = (csum[per_hour:] - csum[:-per_hour]) / per_hour
        day_maxima.append(float(window_means.max()))
    return math.fsum(day_maxima) / len(day_maxima)


@dataclass(frozen=True)
class SynthKpiMaps:
    """Coefficients of the synthetic load->KPI maps (all monotone in load).

    These exist so a generated fleet exercises the clustering pipeline; the
    emitted metadata marks such KPI files as synthetic.
    """

    throughput_base_kbps: float = 140.0
    throughput_slope_kbps: float = 18.0
    congestion_coeff: float = 12.0
    preempt_coeff: float = 60.0


def trace_to_kpis(
    trace: TrafficTrace, config: CellConfig, maps: SynthKpiMaps = SynthKpiMaps()
) -> KpiRecord:
    """Derive a KPI record from a trace via documented monotone maps.

    Throughput falls linearly with load; congestion grows cubically and
    preemption quadratically. Load is busy-hour Erlang over TCH capacity.
    """
    config.validate()
    erl = busy_hour_erlang(trace)
    load = erl / config.total_tch
    throughput = max(0.0, maps.throughput_base_kbps - maps.throughput_slope_kbps * load)
    congestion = min(100.0, maps.congestion_coeff * load ** 3)
    preempt = maps.preempt_coeff * load ** 2
    return KpiRecord(
        cell_id=trace.cell_id,
        tch_traffic_erl=erl,
        dl_edge_throughput_kbps=throughput,
        pdch_congestion_pct=congestion,
        preempt_pdch=preempt,
        ts_count=config.total_slots,
    ).validate()


# ---------------------------------------------------------------------------
# Traffic CSV (one row per scan per cell, 0-based contiguous scan_index)


def write_traffic_csv(traces: Sequence[TrafficTrace], dest: Union[str, Path, IO[str]]) -> None:
    with open_text(dest, "w") as stream:
        stream.write(",".join(TRAFFIC_CSV_HEADER) + "\n")
        for trace in traces:
            trace.validate()
            cid = trace.cell_id
            lines = [
                f"{cid},{i},{fmt_num(v)}" for i, v in enumerate(trace.samples.tolist())
            ]
            stream.write("\n".join(lines) + "\n")


def read_traffic_csv(
    source: Union[str, Path, IO[str]], scan_period_s: float = 10.0
) -> list[TrafficTrace]:
    """Read traces grouped by cell; validates contiguous 0-based scan indices."""
    with open_text(source) as stream:
        header = stream.readline().rstrip("\n")
        if header.split(",") != TRAFFIC_CSV_HEADER:
            raise DataError(
                f"traffic CSV header mismatch: expected {','.join(TRAFFIC_CSV_HEADER)}, got {header}"
            )
        order: list[str] = []
        samples: dict[str, array] = {}
        for row_no, line in enumerate(stream, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"row {row_no}: expected 3 fields, got {len(parts)}")
            cid, idx_s, val_s = parts
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError as exc:
                raise DataError(f"row {row_no}: non-numeric field ({exc})") from None
            if cid not in samples:
                samples[cid] = array("d")
                order.append(cid)
            if idx != len(samples[cid]):
                raise DataError(
                    f"row {row_no}: cell {cid!r} scan_index {idx} not contiguous "
                    f"(expected {len(samples[cid])})"
                )
            if not math.isfinite(val) or val < 0:
                raise DataError(f"row {row_no}: offered_erlang must be finite and >= 0")
            samples[cid].append(val)
        return [
            TrafficTrace(cid, scan_period_s, np.frombuffer(samples[cid])).validate()
            for cid in order
        ]
