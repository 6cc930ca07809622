"""Traffic traces, their synthetic KPIs, and the per-scan CSVs.

Synthetic diurnal traces follow the familiar daily shape: a raised-cosine
between a trough hour and a peak hour, sampled at hourly marks, linearly
interpolated per scan, with optional Gaussian noise truncated at zero.

Erlang semantics: one Erlang is one continuously busy channel, so the call
demand at a scan is the offered Erlang rounded to the nearest integer
(half up).

Every CSV follows the one dialect of ``trxsave.tables``, which also reads
and writes the small tables (KPIs, clusters, assignments, reports) and
JSON, and whose ``_lines`` splits the lines of ``traffic.csv`` too.

Per-scan CSVs (``traffic.csv`` and the timelines) are bytes, and
``write_rows`` writes every one of them: the UTF-8 rows ``format_row_variants``
builds, to one file opened ``"wb"`` per variant of the last field (one for
``traffic.csv``, two for a cell's saving-off and saving-on timelines).
``iter_traffic_span`` reads a ``traffic.csv``, whole or a byte span of it, in
chunks of whole rows; ``traffic_spans`` cuts one between cell blocks into the
spans that separate processes read, and ``append_traffic_rows`` joins traffic
CSVs written by separate processes.
"""

from __future__ import annotations

import math
import os
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .cell_model import CellConfig, check_cell_id
from .errors import ConfigurationError, DataError
# emit_kpi_csv and ingest_kpi_csv stay reachable here for bench/workloads.py
from .tables import KpiRecord, _lines, emit_kpi_csv, fmt_num, ingest_kpi_csv

TRAFFIC_CSV_HEADER = ["cell_id", "scan_index", "offered_erlang"]

# call demand is an int32; an offered Erlang from MAX_ERLANG up would round past it
MAX_DEMAND = int(np.iinfo(np.int32).max)
MAX_ERLANG = MAX_DEMAND + 0.5


@dataclass(frozen=True)
class TrafficTrace:
    """Offered Erlang per scan for one cell, checked when built; the ``cell_id``
    is checked where a file names it."""

    cell_id: str
    scan_period_s: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.scan_period_s <= 0:
            raise DataError(f"trace {self.cell_id!r}: scan_period_s must be > 0")
        if len(self.samples) == 0:
            raise DataError(f"trace {self.cell_id!r}: no samples")
        if not np.all(np.isfinite(self.samples)):
            raise DataError(f"trace {self.cell_id!r}: non-finite sample")
        if np.any(self.samples < 0):
            raise DataError(f"trace {self.cell_id!r}: negative offered Erlang")
        if self.samples.max() >= MAX_ERLANG:
            scan = int(np.argmax(self.samples >= MAX_ERLANG))
            raise DataError(
                f"trace {self.cell_id!r}: scan {scan}: offered Erlang "
                f"{fmt_num(self.samples[scan])} rounds to a call demand over {MAX_DEMAND}"
            )


@dataclass(frozen=True)
class DiurnalProfileSpec:
    """Shape parameters for a synthetic daily traffic profile, checked when built."""

    base_erlang: float
    peak_erlang: float
    peak_hour: float = 14.0
    trough_hour: float = 4.0
    noise_sigma: float = 0.0
    days: int = 1
    seed: int = 0
    scan_period_s: float = 10.0

    def __post_init__(self) -> None:
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

    One day is synthesized and tiled. Its scan times need no ``% 24``: the
    last scan starts one period before midnight, so every hour is below 24,
    and the mark after hour 23 is read from the template with its first
    value appended. The noise, the clip at zero and the rounding are done in
    place on the tiled samples.
    """
    period = spec.scan_period_s
    scans_per_day = int(round(86400 / period))
    template = _hourly_template(spec)

    t = np.arange(scans_per_day, dtype=np.float64) * period / 3600.0
    lo = np.floor(t)
    frac = t - lo
    lo = lo.astype(int)
    day = template[lo] * (1 - frac) + np.append(template, template[0])[lo + 1] * frac

    samples = np.tile(day, spec.days)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        samples += rng.normal(0.0, spec.noise_sigma, size=len(samples))
    np.maximum(samples, 0.0, out=samples)
    np.round(samples, 6, out=samples)
    return TrafficTrace(cell_id=cell_id, scan_period_s=period, samples=samples)


def demand_series(samples: np.ndarray) -> np.ndarray:
    """Convert offered Erlang per scan into integer call demand, rounding half up."""
    return np.floor(np.asarray(samples, dtype=np.float64) + 0.5).astype(np.int32)


# ---------------------------------------------------------------------------
# Synthetic KPI records


def busy_hour_erlang(trace: TrafficTrace) -> float:
    """Mean offered Erlang of each day's busiest contiguous hour, averaged.

    The busy hour is the sliding one-hour window with the highest mean. Traces
    shorter than one day are treated as a single day; shorter than one hour,
    the whole series is the window.
    """
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


# Coefficients of the synthetic load->KPI maps (all monotone in load). They exist
# so a generated fleet exercises the clustering pipeline; the emitted metadata
# marks such KPI files as synthetic.
THROUGHPUT_BASE_KBPS = 140.0
THROUGHPUT_SLOPE_KBPS = 18.0
CONGESTION_COEFF = 12.0
PREEMPT_COEFF = 60.0


def trace_to_kpis(trace: TrafficTrace, config: CellConfig) -> KpiRecord:
    """Derive a KPI record from a trace via documented monotone maps.

    Throughput falls linearly with load; congestion grows cubically and
    preemption quadratically. Load is busy-hour Erlang over TCH capacity.
    """
    erl = busy_hour_erlang(trace)
    load = erl / config.total_tch
    throughput = max(0.0, THROUGHPUT_BASE_KBPS - THROUGHPUT_SLOPE_KBPS * load)
    congestion = min(100.0, CONGESTION_COEFF * load ** 3)
    preempt = PREEMPT_COEFF * load ** 2
    return KpiRecord(
        cell_id=trace.cell_id,
        tch_traffic_erl=erl,
        dl_edge_throughput_kbps=throughput,
        pdch_congestion_pct=congestion,
        preempt_pdch=preempt,
        ts_count=config.total_slots,
    )


# ---------------------------------------------------------------------------
# Per-scan rows: one array-built formatter for traffic.csv and timeline CSVs

# Rows formatted at a time. ``format_row_variants`` holds about 80 bytes per
# ``traffic.csv`` row (the byte matrix, its mask, the compacted text and the
# digit temporaries), so a block of 8,192 rows peaks at 0.66 MB traced whatever
# the trace's length, and a cell's two timelines share one matrix. ``generate``
# on the 100-cell x 6-day fleet (51,840 scans a cell, 2 vCPUs, 8 alternating
# runs each) peaked at 40.94, 40.81, 40.95 and 45.02 MB RSS with 4,096, 8,192,
# 16,384 and 65,536 rows, in 0.73, 0.67, 0.65 and 0.72 s. In process, a
# 51,840-row trace writes in 5-9 ms and both of its timeline files in 9-11 ms
# at 4,096, 8,192 and 65,536 rows alike.
ROW_BLOCK = 1 << 13


def _unsigned(values: np.ndarray) -> np.ndarray:
    """Integers >= 0 as the narrowest of uint32 and uint64, whose division is fastest."""
    return values.astype(np.uint32 if values.max() < 2**32 else np.uint64)


def _put_digits(values: np.ndarray, out: np.ndarray, keep: Optional[np.ndarray] = None) -> None:
    """Write unsigned integers as zero-padded decimal digits into the byte columns of
    ``out``; ``keep`` marks each value's digits without the leading zeros."""
    width = out.shape[1]
    rest = values
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        out[:, col] = rest - quot * 10 + ord("0")
        rest = quot
        if keep is not None:
            keep[:, col] = values >= 10 ** (width - 1 - col) if col < width - 1 else True


def _int_field(values: np.ndarray) -> tuple[int, Callable[[np.ndarray, np.ndarray], None]]:
    """Width and filler of integers >= 0 printed in decimal."""
    values = _unsigned(values)
    return len(str(values.max())), lambda out, keep: _put_digits(values, out, keep)


def _number_field(values: np.ndarray) -> tuple[int, Callable[[np.ndarray, np.ndarray], None]]:
    """Width and filler of ``fmt_num(v)`` for each value.

    ``repr`` prints a value in [1e-4, 1e16) positionally. When the value is
    also the double nearest a multiple of 1e-6 below 1e9
    (``rint(v * 1e6) / 1e6 == v``), that decimal has at most 15 significant
    digits, so it is the shortest text that round-trips: the 6-decimal digits
    with trailing zeros cut, and an integral value bare. Those values and 0
    are built from integers; ``fmt_num`` prints the rest.

    Only a fraction whose last digit is 0 loses digits, so the point and all
    six fraction digits stay kept and only those rows are masked, digit j
    staying while ``frac % 10**(6 - j)`` is not 0, and the point with the
    first. The rows ``fmt_num`` prints then overwrite their own bytes and mask.
    """
    with np.errstate(over="ignore"):
        micros = np.rint(values * 1e6)
    fast = (values == 0) | ((micros / 1e6 == values) & (values >= 1e-4) & (values < 1e9))
    micros = _unsigned(np.where(fast, micros, 0))
    whole = micros // 10**6
    frac = micros - whole * 10**6
    digits = len(str(whole.max()))
    slow = np.flatnonzero(~fast)
    texts = [fmt_num(v).encode() for v in values[slow].tolist()]
    width = max([digits + 7, *map(len, texts)])

    def fill(out: np.ndarray, keep: np.ndarray) -> None:
        _put_digits(whole, out[:, :digits], keep[:, :digits])
        out[:, digits] = ord(".")
        _put_digits(frac, out[:, digits + 1:digits + 7])
        keep[:, digits + 7:] = False
        cut = np.flatnonzero(out[:, digits + 6] == ord("0"))
        tail = frac[cut]
        for j in range(6):
            keep[cut, digits + 1 + j] = tail % 10 ** (6 - j) != 0
        keep[cut, digits] = keep[cut, digits + 1]
        if texts:
            padded = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8)
            out[slow] = padded.reshape(len(texts), width)
            keep[slow] = out[slow] != 0

    return width, fill


def _text_field(text: str) -> tuple[int, Callable[[np.ndarray, np.ndarray], None]]:
    """Width and filler of the same text on every row."""
    data = np.frombuffer(text.encode(), np.uint8)

    def fill(out: np.ndarray, keep: np.ndarray) -> None:
        out[:] = data

    return len(data), fill


Column = Union[str, range, np.ndarray]


def _field(column: Column) -> tuple[int, Callable[[np.ndarray, np.ndarray], None]]:
    if isinstance(column, str):
        return _text_field(column)
    if isinstance(column, range):
        return _int_field(np.arange(column.start, column.stop, column.step))
    if column.dtype.kind in "iu":
        return _int_field(column)
    return _number_field(np.asarray(column, np.float64))


def _length(columns: Sequence[Column]) -> int:
    return next(len(c) for c in columns if not isinstance(c, str))


def format_row_variants(columns: Sequence[Column],
                        lasts: Sequence[Column]) -> Iterator[np.ndarray]:
    """CSV rows of ``[*columns, last]`` for each column of ``lasts``, in turn, as
    UTF-8 bytes (a ``uint8`` array), fields joined by "," and each row ended by
    "\\n".

    A ``str`` column repeats its text on every row, an integer array or a
    ``range`` prints its values (>= 0) in decimal, and a float array prints
    each value as ``fmt_num`` does.

    The rows are one byte matrix, and a mask keeps the bytes of the text: it
    starts all True, and each field's filler clears the bytes it drops.
    ``columns`` are formatted into it once; the last field, as wide as the
    widest of ``lasts``, is filled again for each variant, and the unused end
    of a narrower one is masked out.
    """
    n = _length([*columns, *lasts])
    fields = [_field(c) for c in columns]
    ends = [_field(c) for c in lasts]
    last_width = max(width for width, _ in ends)
    rows = np.empty((n, sum(width + 1 for width, _ in fields) + last_width + 1), np.uint8)
    keep = np.ones(rows.shape, bool)
    at = 0
    for width, fill in fields:
        fill(rows[:, at:at + width], keep[:, at:at + width])
        rows[:, at + width] = ord(",")
        at += width + 1
    fields = fill = None  # free their digits before the rows are compacted
    rows[:, -1] = ord("\n")
    for width, fill in ends:
        fill(rows[:, at:at + width], keep[:, at:at + width])
        keep[:, at + width:-1] = False
        yield rows.ravel()[keep.ravel()]  # as rows[keep], and faster
        keep[:, at:-1] = True  # as a filler finds it


def _block(columns: Sequence[Column], start: int) -> list[Column]:
    return [c if isinstance(c, str) else c[start:start + ROW_BLOCK] for c in columns]


def write_rows(dests: Sequence[Union[str, Path]], header: Sequence[str],
               tables: Iterable[tuple[Sequence[Column], Sequence[Column]]]) -> None:
    """Write ``header`` to each file of ``dests``, then the rows of each table
    ``(columns, lasts)``, file i taking ``[*columns, lasts[i]]``.

    Each ``ROW_BLOCK`` rows are formatted once for every file
    (``format_row_variants``), and each file's bytes are written as they are
    formatted, without a copy. A ``range`` column is built a block at a time,
    so a row index costs no array as long as the table. ``tables`` is read
    once, as it is written.
    """
    with ExitStack() as stack:
        outs = [stack.enter_context(open(dest, "wb")) for dest in dests]
        for out in outs:
            out.write(",".join(header).encode() + b"\n")
        for columns, lasts in tables:
            for start in range(0, _length([*columns, *lasts]), ROW_BLOCK):
                variants = format_row_variants(_block(columns, start), _block(lasts, start))
                for out in outs:
                    out.write(next(variants))  # each file's rows are freed before the next's
                variants.close()  # and the block's matrix before the next block or table


# ---------------------------------------------------------------------------
# Traffic CSV (one row per scan per cell, 0-based contiguous scan_index)

# Bytes of whole rows decoded at a time. Larger chunks decode a little faster but
# leave more freed memory resident: 256 KB chunks raised the peak RSS of
# ``simulate`` by about 1 MiB over 64 KB ones.
PARSE_CHUNK = 1 << 16


def write_traffic_csv(traces: Iterable[TrafficTrace], dest: Union[str, Path]) -> None:
    """One ``cell_id,scan_index,offered_erlang`` row per scan, each cell's rows
    one block; values print as ``fmt_num`` prints them. ``traces`` is read once,
    so a generator's cells are written as it builds them; each ``cell_id`` is
    checked before its rows are written."""
    write_rows([dest], TRAFFIC_CSV_HEADER, (
        # integer samples print as fmt_num does
        ([check_cell_id(t.cell_id, str(dest)), range(len(t.samples))],
         [np.asarray(t.samples, np.float64)])
        for t in traces))


def append_traffic_rows(dest: Union[str, Path], sources: Iterable[Union[str, Path]]) -> None:
    """Append to the traffic CSV ``dest`` the rows of each traffic CSV of
    ``sources``, in order, without their header lines. The bytes are copied
    in the kernel (``os.copy_file_range``), at explicit offsets."""
    skip = len(",".join(TRAFFIC_CSV_HEADER)) + 1
    with open(dest, "r+b") as out:
        at = out.seek(0, os.SEEK_END)
        for source in sources:
            with open(source, "rb") as src:
                offset, size = skip, os.fstat(src.fileno()).st_size
                while offset < size:
                    copied = os.copy_file_range(src.fileno(), out.fileno(), size - offset,
                                                offset, at)
                    if not copied:
                        raise DataError(f"{source}: ended at byte {offset} of {size}")
                    offset += copied
                    at += copied


def read_traffic_csv(
    source: Union[str, Path], scan_period_s: float = 10.0
) -> list[TrafficTrace]:
    """Every trace of ``iter_traffic_span`` over the whole file, in file order."""
    return list(iter_traffic_span(source, scan_period_s))


def iter_traffic_span(
    source: Union[str, Path], scan_period_s: float,
    span: tuple[int, Optional[int]] = (0, None),
) -> Iterator[TrafficTrace]:
    """Each cell's trace in the bytes ``span`` = (start, end) of ``source``, in
    file order, as soon as its block of rows ends; an end of None reads to the
    end of the file, so the default span is the whole file.

    Each cell's rows form one contiguous block with scan_index 0, 1, 2, ...,
    and every offered_erlang is finite, >= 0 and below ``MAX_ERLANG``. The
    bytes are read in chunks of whole rows: a chunk of plain rows is decoded
    eight digits at a time (see ``_plain_runs``) and the row loop reads any
    other chunk, naming its first bad row. Memory holds the current cell's
    samples and one chunk. Every ``DataError`` starts with ``source``; each
    trace then passes ``TrafficTrace``'s checks if ``scan_period_s`` > 0.

    A span from 0 starts with the header. A span from a cut of
    ``traffic_spans`` starts at a row and numbers its rows from 1, so only
    the errors of a span from 0 name the rows of the file.
    """
    for cid, samples in _Blocks(source, *span).read():
        yield TrafficTrace(cid, scan_period_s, np.frombuffer(samples))


def traffic_spans(path: Union[str, Path], count: int) -> list[tuple[int, Optional[int]]]:
    """At most ``count`` byte spans (start, end) of the traffic CSV ``path``, in
    file order, that hold whole cell blocks; the last one ends at None, the
    end of the file.

    The i-th cut is found reading forward from ``size * i / count``: it falls
    just after the first ``\n`` there whose next row does not start with the
    cell id and comma of the row before it. A span with no such row merges
    into the next one, so a file of very uneven blocks gets fewer spans. A row
    longer than ``SPLIT_READ`` where the search starts gets no cut either: the
    file gets fewer spans, and the outputs stay the same. In a file whose rows
    break the block rules a cut may split a block; the spans' readers then
    fail or trace a cell twice.
    """
    cuts: list[int] = []
    if count > 1:
        with open(path, "rb") as raw:
            size = os.fstat(raw.fileno()).st_size
            for i in range(1, count):
                cut = _block_start(raw.fileno(), max([size * i // count, *cuts[-1:]]), size)
                if cut is None:
                    break
                cuts.append(cut)
    bounds = [0, *cuts, None]
    return list(zip(bounds, bounds[1:]))


# Bytes read at a time while looking for a cut. Two reads are held at once, and a
# cut further on takes more reads, not larger ones.
SPLIT_READ = 1 << 16


def _block_start(fd: int, pos: int, size: int) -> Optional[int]:
    """Offset of the first row that starts after a ``\n`` and does not start
    with the cell id and comma of the row before it, searched from the second
    row that starts after ``pos``; None if the file ends first, or if the
    first row after ``pos`` holds no comma or does not end within one read."""
    chunk = os.pread(fd, SPLIT_READ, pos)
    first = chunk.find(b"\n")
    end = chunk.find(b"\n", first + 1) if first >= 0 else -1
    comma = chunk.find(b",", first + 1, end)
    if end < 0 or comma < 0:
        return None
    key = chunk[first:comma + 1]  # b"\n" + the id and comma of the row after pos
    pos += end
    while pos < size:
        chunk = os.pread(fd, SPLIT_READ, pos)
        last = len(chunk) < SPLIT_READ
        # the "\n"s followed by len(key) - 1 bytes in this read, or in the last
        # read by at least one
        whole = len(chunk) - 1 if last else len(chunk) - len(key) + 1
        if chunk.count(key) < chunk.count(b"\n", 0, whole):
            at = chunk.find(b"\n")
            while chunk.startswith(key, at):
                at = chunk.find(b"\n", at + 1)
            return pos + at + 1
        if last:
            return None
        pos += whole
    return None


class _Blocks:
    """Splits the traffic rows of ``path`` into each cell's block of samples.

    ``row`` counts the data rows read so far, blank ones too. Rows arrive a
    run at a time, a run being rows of one cell with scan_index stepping by
    one, so a run can break the block rules only at its first row.
    """

    def __init__(self, path: Union[str, Path], start: int, end: Optional[int]) -> None:
        self.path = path
        self.start, self.end = start, end
        self.cid: Optional[str] = None
        self.samples = array("d")
        self.seen: set[str] = set()
        self.row = 0

    def read(self) -> Iterator[tuple[str, array]]:
        """(cell id, samples) of each block, as soon as the block ends."""
        with open(self.path, "rb") as raw:
            raw.seek(self.start)
            chunks = _row_chunks(raw, None if self.end is None else self.end - self.start)
            if self.start == 0:
                chunks = self.after_header(chunks)
            for chunk in chunks:
                runs = _plain_runs(chunk)
                if runs is None:
                    # the header and self.row rows come before the chunk
                    yield from self.read_rows(_lines(chunk, self.path, self.row + 1))
                    continue
                for offset, cid, first_scan, values in runs:
                    # _plain_runs took only UTF-8
                    ended = self.start_run(self.row + 1 + offset, cid.decode("utf-8"), first_scan)
                    if ended is not None:
                        yield ended
                    self.samples.frombytes(values.tobytes())
                self.row += offset + len(values)  # the last run ends the chunk
        if self.cid is not None:
            yield self.cid, self.samples

    def after_header(self, chunks: Iterator[bytes]) -> Iterator[bytes]:
        """The chunks of rows after the header line, which is checked first."""
        first = next(chunks, b"")
        # the header is the first line, ended by \n, \r\n or a bare \r
        line = first[:first.find(b"\n") + 1] or first
        line = line.splitlines(keepends=True)[0] if line else b""
        header = next(_lines(line, self.path, 0), "")
        if header != ",".join(TRAFFIC_CSV_HEADER):
            raise DataError(f"{self.path}: traffic CSV header mismatch: expected "
                            f"{','.join(TRAFFIC_CSV_HEADER)}, got {header!r}")
        rest = first[len(line):]
        del first, line  # no name holds a chunk past its turn
        if rest:
            yield rest
        del rest
        yield from chunks

    def read_rows(self, lines: Iterable[str]) -> Iterator[tuple[str, array]]:
        """The row loop: one line at a time; a bad row raises a ``DataError`` naming it."""
        for line in lines:
            self.row += 1
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{self.path}: row {self.row}: expected 3 fields, "
                                f"got {len(parts)}")
            cid, idx_s, val_s = parts
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError as exc:
                raise DataError(f"{self.path}: row {self.row}: non-numeric field ({exc})") from None
            ended = self.start_run(self.row, cid, idx)
            if ended is not None:
                yield ended
            if not math.isfinite(val) or val < 0:
                raise DataError(f"{self.path}: row {self.row}: offered_erlang must be "
                                f"finite and >= 0")
            if val >= MAX_ERLANG:
                raise DataError(f"{self.path}: row {self.row}: offered_erlang {fmt_num(val)} "
                                f"rounds to a call demand over {MAX_DEMAND}")
            self.samples.append(val)

    def start_run(self, row: int, cid: str, first_scan: int) -> Optional[tuple[str, array]]:
        """Check that a run of ``cid`` from ``first_scan`` on, starting at ``row``,
        continues the current block or opens a new one with a valid cell_id;
        returns the block it ends."""
        ended = None
        if cid != self.cid:
            if cid in self.seen:
                raise DataError(f"{self.path}: row {row}: cell {cid!r} again after another "
                                f"cell; each cell's rows must form one contiguous block")
            check_cell_id(cid, f"{self.path}: row {row}")
            if self.cid is not None:
                ended = self.cid, self.samples
            self.cid, self.samples = cid, array("d")
            self.seen.add(cid)
        if first_scan != len(self.samples):
            raise DataError(f"{self.path}: row {row}: cell {cid!r} scan_index {first_scan} "
                            f"not contiguous (expected {len(self.samples)})")
        return ended


def _row_chunks(raw: IO[bytes], left: Optional[int] = None) -> Iterator[bytes]:
    """Whole rows, about ``PARSE_CHUNK`` bytes at a time, as they are in the file,
    from its position on: ``left`` bytes, or to its end when None.

    A row ends at ``\\n``, ``\\r\\n`` or a bare ``\\r``, as ``_lines`` splits rows.
    A read's last ``\\r`` may be the first half of ``\\r\\n``, so no cut
    falls right after it.
    """
    rest: list[bytes] = []  # the reads since the last row end, joined once one comes
    while data := raw.read(PARSE_CHUNK if left is None else min(PARSE_CHUNK, left)):
        if left is not None:
            left -= len(data)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            yield b"".join([*rest, data[:cut]])
            rest = []
        rest.append(data[cut:])
    if tail := b"".join(rest):
        yield tail


# A chunk is read as 8-byte little-endian words, one at each byte offset: words[e]
# holds the 8 bytes before byte e, the first in its low byte. A field of n <= 8
# bytes that ends before e is the high n bytes of words[e]. XOR with '0' bytes and
# the low 8 - n bytes cleared, a field of digits becomes eight digit values with
# leading zeros, which Lemire's SWAR steps turn into its integer.
_U64 = np.uint64
_HIGH = np.array([(2**64 - 1) ^ ((1 << 8 * (8 - n)) - 1) for n in range(9)], _U64)  # n bytes
_ZEROS = _U64(0x3030303030303030)  # eight '0' bytes
_POW10 = 10 ** np.arange(17, dtype=_U64)  # exact as doubles too
_EXACT = _U64(1 << 53)  # integers below this are exact doubles
_NUMBER_BYTES = b"0123456789.eE+-"  # a value the words do not read may hold only these


def _digits(words: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For fields of ``lengths`` <= 8 bytes that end ``words``: whether each is all
    digits, and the integer it spells where it is."""
    w = words ^ _ZEROS
    w &= _HIGH[lengths]  # digit values 0-9 with leading zeros
    ok = ((w + _U64(0x7676767676767676)) | w) & _U64(0x8080808080808080) == 0
    pairs = w * _U64(10)
    pairs += w >> _U64(8)  # 10 * digit + next digit, in the even bytes
    low = _U64(0x000000FF000000FF)
    w = (pairs & low) * _U64(100 + (1000000 << 32))
    pairs >>= _U64(16)
    pairs &= low
    pairs *= _U64(1 + (10000 << 32))
    w += pairs
    w >>= _U64(32)
    return ok, w


def _plain_runs(chunk: bytes) -> Optional[list[tuple[int, bytes, int, np.ndarray]]]:
    """Split whole rows into runs of one cell id: (index of the run's first row in
    the chunk, id bytes, first scan_index, values).

    None unless every row is plain: UTF-8 with exactly two commas and no
    control byte, a scan_index of 1-8 digits without a leading zero that
    steps by one within a run, and an offered_erlang that ``float`` reads as
    >= 0 and below ``MAX_ERLANG``, so the row loop names the row of any other.
    Spaces and non-ASCII bytes may stand only in the cell id, before the
    row's first comma.

    Fields are read as words (see above). An offered_erlang of at most 8
    digits, a point and at most 16 digits, k of them after the point, is N /
    10**k with N the integer of all its digits: for N < 2**53 both are exact
    doubles, so their correctly rounded quotient is ``float(text)`` bit for
    bit. The other offered_erlang fields of a chunk, if they hold only
    ``0-9 . e E + -``, are gathered into one bytes object and read by
    ``float``, as the row loop reads them.
    """
    if not chunk.endswith(b"\n"):  # a last row without one, or rows ending in \r (never plain)
        chunk += b"\n"
    text = np.frombuffer(chunk, np.uint8)
    marks = np.flatnonzero(text < ord("0"))  # row ends, commas, points, signs, spaces
    kinds = text[marks]
    at_comma = np.flatnonzero(kinds == ord(","))
    ends, commas = marks[np.flatnonzero(kinds == ord("\n"))], marks[at_comma]
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = commas[0::2], commas[1::2]
    if len(commas) != 2 * len(ends) or (first < starts).any() or (second > ends).any():
        return None
    # a space or a non-ASCII byte may stand only in a cell id; most files hold neither
    non_ascii = text.max() > 0x7F
    if non_ascii or np.count_nonzero(kinds <= ord(" ")) != len(ends):
        loose = np.flatnonzero((text == ord(" ")) | (text > 0x7F))
        if (np.count_nonzero(kinds < ord(" ")) != len(ends)
                or (loose > first[np.searchsorted(ends, loose)]).any()):
            return None
        if non_ascii:
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError:
                return None

    # offered_erlang is cut at a point right after its comma, else at its end
    after = at_comma[1::2] + 1  # the mark after each second comma
    point = np.where(kinds[after] == ord("."), marks[after], ends)
    del marks, kinds, at_comma, after  # freed here to keep the peak memory of a chunk down

    n = len(ends)
    padded = np.zeros(len(chunk) + 16, np.uint8)
    padded[8:-8] = text
    words = np.ndarray((len(chunk) + 9,), "<u8", padded, 0, (1,))
    scan_len = second - first - 1
    scan_ok, scans = _digits(words[second], np.minimum(scan_len, 8))
    if not (scan_ok & (scan_len > 0) & (scan_len <= 8)
            & ((text[first + 1] != ord("0")) | (scan_len == 1))).all():  # no leading zero
        return None
    scans = scans.view(np.int64)

    whole_len = point - second - 1
    frac_len = np.maximum(ends - point - 1, 0)
    # at most 19 digits in all, so that their integer fits one uint64
    plain = ((whole_len <= 8) & (frac_len <= 16) & (whole_len + frac_len > 0)
             & (whole_len + frac_len <= 19))
    frac_len = np.minimum(frac_len, 16)
    whole_ok, whole = _digits(words[point], np.minimum(whole_len, 8))
    frac_ok, frac = _digits(words[ends], np.minimum(frac_len, 8))
    plain &= whole_ok & frac_ok
    long = np.flatnonzero(plain & (frac_len > 8))  # the digits before the last 8
    if len(long):
        high_ok, high = _digits(words[ends[long] - 8], frac_len[long] - 8)
        plain[long] = high_ok
        frac[long] += high * _POW10[8]
    whole *= _POW10[frac_len]
    whole += frac  # every digit as one integer
    plain &= whole < _EXACT
    values = whole.astype(np.float64)
    values /= _POW10[frac_len].astype(np.float64)
    odd = np.flatnonzero(~plain)
    if len(odd):  # each such field with its newline, gathered and split in one go
        edges = np.zeros(len(chunk) + 1, np.int8)
        edges[second[odd] + 1], edges[ends[odd] + 1] = 1, -1
        fields = text[np.cumsum(edges[:-1], dtype=np.int8).view(bool)].tobytes()
        if fields.translate(None, _NUMBER_BYTES + b"\n"):
            return None
        try:
            odd_values = np.fromiter(map(float, fields.split(b"\n")[:-1]), np.float64, len(odd))
        except ValueError:
            return None
        if not ((odd_values >= 0) & (odd_values < MAX_ERLANG)).all():
            return None
        values[odd] = odd_values

    # each row's cell_id against the row before, a word at a time: word j holds id
    # bytes 8j to 8j + 8, or to the id's comma if that comes first
    id_len = first - starts
    longest = int(id_len.max())
    if n * longest > 8 * len(chunk):  # a few very long ids among short ones
        return None
    same = np.zeros(n, bool)
    same[1:] = id_len[1:] == id_len[:-1]
    for at in range(0, longest, 8):
        word = words[np.minimum(starts + (at + 8), first)]
        word &= _HIGH[np.clip(id_len - at, 0, 8)]
        same[1:] &= word[1:] == word[:-1]
    if not ((np.diff(scans) == 1) | ~same[1:]).all():
        return None
    bounds = [*np.flatnonzero(~same).tolist(), n]
    return [(a, chunk[starts[a]:first[a]], int(scans[a]), values[a:b])
            for a, b in zip(bounds, bounds[1:])]
