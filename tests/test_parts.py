"""Stages split over CPUs: ``trxsave.parts`` and the cut of ``traffic.csv``.

``generate`` and ``simulate`` run one part per usable CPU. Their files must
be byte for byte those of one part, and a failing input must give the same
exit code and message at every part count, leaving no child process, part
file or staging directory behind. The CPU count is set by patching
``parts.cpus``.
"""

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from trxsave import parts, traffic
from trxsave.cli import main, write_fleet_json
from trxsave.traffic import TrafficTrace

import oracles


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_leftovers(root: Path) -> None:
    """No child process is left, and no part file or staging directory under ``root``."""
    no_children()
    left = [p for p in root.rglob("*") if ".part-" in p.name or ".staging-" in p.name]
    assert left == []


@pytest.fixture
def part_counts(monkeypatch):
    """The part counts ``run_parts`` is called with, in call order."""
    counts = []
    real = parts.run_parts

    def counting(fn, split):
        counts.append(len(split))
        return real(fn, split)

    monkeypatch.setattr(parts, "run_parts", counting)
    return counts


# ---------------------------------------------------------------------------
# run_parts


def square_or_fail(n):
    if n < 0:
        raise ValueError(f"part {n} failed")
    return n * n


class TestRunParts:
    def test_results_come_in_part_order_from_distinct_processes(self):
        pids = parts.run_parts(lambda part: (part, os.getpid()), [0, 1, 2, 3])
        assert [part for part, _ in pids] == [0, 1, 2, 3]
        assert pids[0][1] == os.getpid()
        assert len({pid for _, pid in pids}) == 4
        no_children()

    @pytest.mark.parametrize("split,message", [
        ([1, -2, -3], "part -2 failed"),  # the first failed part, in part order
        ([-1, 2, -3], "part -1 failed"),  # part 0 fails in this process
    ])
    def test_the_first_failure_is_raised_and_every_child_reaped(self, split, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parts.run_parts(square_or_fail, split)
        no_children()

    def test_a_child_that_dies_without_a_result_is_a_failure(self):
        def die(part):
            if part:
                os._exit(7)
            return part

        with pytest.raises(ChildProcessError, match="ended without a result"):
            parts.run_parts(die, [0, 1])
        no_children()

    def test_an_interrupt_in_part_0_kills_and_reaps_the_children(self):
        def slow(part):
            if part == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            parts.run_parts(slow, [0, 1, 2])
        assert time.perf_counter() - started < 30
        no_children()

    def test_a_child_exits_when_its_stage_process_has_died(self, tmp_path):
        pid_file = tmp_path / "pid"

        def part(k):
            if k == 0:
                while not pid_file.exists():
                    time.sleep(0.01)
                os._exit(0)  # the stage process dies before it reads a result
            pid_file.write_text(str(os.getpid()))
            return b"x" * (1 << 20)  # more than a pipe holds

        stage = os.fork()
        if stage == 0:
            try:
                parts.run_parts(part, [0, 1])
            finally:
                os._exit(1)
        os.waitpid(stage, 0)
        child = int(pid_file.read_text())
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and running(child):
            time.sleep(0.05)
        assert not running(child)

    def test_serial_on_failure_runs_one_part_after_a_failed_split(self):
        calls = []

        def attempt(split):
            calls.append(list(split))
            if len(split) > 1:
                raise OSError("a part failed")
            return split[0]

        assert parts.serial_on_failure(attempt, [1, 2], "whole") == "whole"
        assert calls == [[1, 2], ["whole"]]
        with pytest.raises(KeyError):  # the one-part run's own error
            parts.serial_on_failure(lambda split: {}[split[0]], ["a", "b"], "whole")

    @pytest.mark.parametrize("n,count", [(1, 2), (5, 2), (100, 3), (7, 7), (3, 8)])
    def test_ranges_are_contiguous_and_even(self, n, count):
        got = parts.ranges(n, count)
        assert len(got) == min(n, count)
        assert [i for r in got for i in r] == list(range(n))
        assert max(map(len, got)) - min(map(len, got)) <= 1


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie waiting to be reaped is not)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


# ---------------------------------------------------------------------------
# Cutting traffic.csv between cell blocks


def naive_spans(data: bytes, count: int, read: int):
    """``traffic_spans`` by its definition, one row at a time; a cut is looked for
    only after a row that ends within ``read`` bytes of where the search starts."""
    starts = [i + 1 for i, b in enumerate(data) if b == ord("\n") and i + 1 < len(data)]

    def row(start):
        end = data.find(b"\n", start)
        return data[start:end if end >= 0 else len(data)]

    cuts = []
    for i in range(1, count):
        pos = max([len(data) * i // count, *cuts[-1:]])
        after = [s for s in starts if s > pos]
        ends = data.find(b"\n", after[0]) if after else -1
        if ends < 0 or ends >= pos + read or b"," not in row(after[0]):
            break
        key = row(after[0]).split(b",")[0] + b","
        cut = next((s for s in starts if s > after[0] and not data.startswith(key, s)), None)
        if cut is None:
            break
        cuts.append(cut)
    bounds = [0, *cuts, None]
    return list(zip(bounds, bounds[1:]))


def random_traffic(rng) -> bytes:
    """A traffic CSV of random blocks, ids that prefix each other, odd line ends,
    blank rows and a last row with or without its line end."""
    lines = [b"cell_id,scan_index,offered_erlang"]
    for block in range(rng.integers(1, 8)):
        cid = b"c" * int(rng.integers(1, 4)) + str(rng.integers(0, 3)).encode()
        for scan in range(rng.integers(1, 40)):
            lines.append(cid + b",%d,%d.5" % (scan, rng.integers(0, 10**rng.integers(1, 6))))
            if rng.random() < 0.03:
                lines.append(b"")
    ends = [b"\n", b"\r\n", b"\r"]
    data = b"".join(line + ends[rng.choice(3, p=[0.9, 0.08, 0.02])] for line in lines)
    return data if rng.random() < 0.8 else data.rstrip(b"\r\n")


class TestTrafficSpans:
    @pytest.mark.parametrize("read", [16, 64, traffic.SPLIT_READ], ids=["16B", "64B", "default"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cuts_are_those_of_the_definition(self, tmp_path, monkeypatch, read, seed):
        monkeypatch.setattr(traffic, "SPLIT_READ", read)
        rng = np.random.default_rng(seed)
        for i in range(40):
            data = random_traffic(rng)
            path = tmp_path / f"{i}.csv"
            path.write_bytes(data)
            for count in (1, 2, 3, 5):
                assert traffic.traffic_spans(path, count) == naive_spans(data, count, read), \
                    (i, count)

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_spans_of_a_good_file_read_the_traces_of_the_whole(self, tmp_path, count):
        rng = np.random.default_rng(5)
        traces = [TrafficTrace(f"c{i}", 10.0, np.round(rng.uniform(0, 9, n), 6))
                  for i, n in enumerate(rng.integers(900, 1100, size=9))]
        path = tmp_path / "traffic.csv"
        traffic.write_traffic_csv(traces, path)
        spans = traffic.traffic_spans(path, count)
        assert len(spans) == count
        got = [t for span in spans for t in traffic.iter_traffic_span(path, 10.0, span)]
        assert [t.cell_id for t in got] == [t.cell_id for t in traces]
        assert all(np.array_equal(a.samples, b.samples) for a, b in zip(got, traces))

    def test_one_cell_of_most_rows_gives_fewer_spans_than_cpus(self, tmp_path):
        sizes = [1_500, 27_000, 1_500]  # cell b holds 90 % of the rows
        traces = [TrafficTrace(cid, 10.0, np.full(n, 1.5)) for cid, n in zip("abc", sizes)]
        path = tmp_path / "traffic.csv"
        traffic.write_traffic_csv(traces, path)
        spans = traffic.traffic_spans(path, 4)
        assert [[t.cell_id for t in traffic.iter_traffic_span(path, 10.0, span)]
                for span in spans] == [["a", "b"], ["c"]]

    def test_a_file_without_line_feeds_is_one_span(self, tmp_path):
        path = tmp_path / "traffic.csv"
        path.write_bytes(b"cell_id,scan_index,offered_erlang\ra,0,1\rb,0,2\r")
        assert traffic.traffic_spans(path, 4) == [(0, None)]


# ---------------------------------------------------------------------------
# The CLI stages at every part count

CPU_COUNTS = [1, 2, 3]


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Three cells of one day, 8,640 rows each: at 2 or 3 parts the last cell is
    read by the last part."""
    out = tmp_path_factory.mktemp("fleet")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parts, "cpus", lambda: 1)
        assert run("generate", "--cells", 3, "--days", 1, "--seed", 4,
                   "--out", out).exit_code == 0
    return out


def uneven_fleet(root: Path) -> Path:
    """A fleet whose cell_0001 holds 90 % of the traffic rows."""
    root.mkdir()
    rng = np.random.default_rng(9)
    sizes = {"cell_0000": 3_000, "cell_0001": 54_000, "cell_0002": 3_000}
    traces = [TrafficTrace(cid, 10.0, np.round(rng.uniform(0, 30, n), 6))
              for cid, n in sizes.items()]
    write_fleet_json(root / "fleet.json",
                     [{"cell_id": cid, "num_trx": 4, "cch_slots": 3} for cid in sizes], 9, 1, 10.0)
    traffic.write_traffic_csv(traces, root / "traffic.csv")
    return root


def simulate_args(inputs: Path, out: Path, *extra):
    return ("simulate", "--fleet", inputs / "fleet.json", "--traffic", inputs / "traffic.csv",
            "--hysteresis", 2, "--off-delay", 6, "--timelines", "all", "--out", out, *extra)


def files_of(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSameFilesAtEveryPartCount:
    def test_uneven_blocks_simulate_alike_with_fewer_parts(self, tmp_path, monkeypatch,
                                                           part_counts):
        inputs = uneven_fleet(tmp_path / "in")
        outputs = {}
        for cpus in (1, 3):
            monkeypatch.setattr(parts, "cpus", lambda: cpus)
            part_counts.clear()
            result = run(*simulate_args(inputs, tmp_path / f"out{cpus}"))
            assert result.exit_code == 0, result.output
            outputs[cpus] = files_of(tmp_path / f"out{cpus}")
            assert part_counts == [1 if cpus == 1 else 2]  # one run, of fewer parts than CPUs
        assert outputs[3] == outputs[1]
        assert len(outputs[1]) == 2 + 6
        no_leftovers(tmp_path)

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_generate_writes_the_files_of_one_part(self, fleet, tmp_path, monkeypatch,
                                                   part_counts, cpus):
        monkeypatch.setattr(parts, "cpus", lambda: cpus)
        out = tmp_path / "out"
        result = run("generate", "--cells", 3, "--days", 1, "--seed", 4, "--out", out)
        assert result.exit_code == 0, result.output
        assert part_counts == [min(cpus, 3)]
        assert files_of(out) == files_of(fleet)
        no_leftovers(tmp_path)


# ---------------------------------------------------------------------------
# Error parity: one message and exit code whatever the part count


def edit_rows(old: str, new: str):
    def edit(fleet, rows):
        assert old in rows
        return fleet, rows.replace(old, new, 1)
    return edit


def repeat_first_block(fleet, rows):
    """cell_0000's block again, whole, after cell_0002: the two parts each trace it."""
    block = "".join(line + "\n" for line in rows.split("\n")[1:8641])
    return fleet, rows + block


def drop_fleet_cell(fleet, rows):
    return {**fleet, "cells": fleet["cells"][:2]}, rows


def add_fleet_cell(fleet, rows):
    return {**fleet, "cells": [*fleet["cells"], {**fleet["cells"][0], "cell_id": "cell_0003"}]}, rows


def short_last_trace(fleet, rows):
    lines = rows.split("\n")
    return fleet, "\n".join(lines[:17281 + 100]) + "\n"  # cell_0002 keeps 100 scans


ERROR_CASES = {
    "bad_row_in_last_part": (edit_rows("cell_0002,8639,", "cell_0002,8639,x"), (), 3,
                             "row 25920: non-numeric field"),
    "cell_on_both_sides_of_a_cut": (repeat_first_block, (), 3,
                                    "row 25921: cell 'cell_0000' again after another cell"),
    "cell_not_in_fleet": (drop_fleet_cell, (), 3, "cell 'cell_0002' is not in the fleet"),
    "warmup_past_a_trace_in_part_2": (short_last_trace, ("--warmup-days", "0.5"), 2,
                                      "warmup_scans 4320 consumes the whole 100-scan trace "
                                      "of cell 'cell_0002'"),
    "untraced_fleet_cell": (add_fleet_cell, (), 3, "no trace for fleet cell 'cell_0003'"),
    "non_utf8_byte_in_part_2": (edit_rows("cell_0002,17,", "cell_0002,17,\udcff"), (), 3,
                                "row 17298: not UTF-8 text"),
}


class TestErrorParity:
    @pytest.mark.parametrize("name", ERROR_CASES)
    def test_simulate_fails_alike_at_every_part_count(self, fleet, tmp_path, monkeypatch,
                                                      part_counts, name):
        edit, extra, code, message = ERROR_CASES[name]
        doc, rows = edit(json.loads((fleet / "fleet.json").read_text()),
                         (fleet / "traffic.csv").read_text())
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "fleet.json").write_text(json.dumps(doc))
        (inputs / "traffic.csv").write_bytes(rows.encode("utf-8", "surrogateescape"))
        results = {}
        for cpus in CPU_COUNTS:
            monkeypatch.setattr(parts, "cpus", lambda: cpus)
            part_counts.clear()
            out = tmp_path / f"out{cpus}"
            result = run(*simulate_args(inputs, out, *extra))
            results[cpus] = (result.exit_code, result.output)
            assert not out.exists()
            no_leftovers(tmp_path)
            # the split ran first, then one part gave the error
            split = len(traffic.traffic_spans(inputs / "traffic.csv",
                                              min(cpus, len(doc["cells"]))))
            assert part_counts == ([1] if cpus == 1 else [split, 1]) and split >= min(cpus, 2)
        assert results[1][0] == code, results[1]
        assert message in results[1][1]
        assert results[2] == results[1]
        assert results[3] == results[1]

    def test_generate_fails_alike_at_every_part_count(self, tmp_path, monkeypatch):
        outputs = set()
        for cpus in CPU_COUNTS:
            monkeypatch.setattr(parts, "cpus", lambda: cpus)
            out = tmp_path / f"out{cpus}"
            (out / "traffic.csv").mkdir(parents=True)  # part 0 cannot write its file
            result = run("generate", "--cells", 4, "--days", 1, "--out", out)
            assert result.exit_code == 3, result.output
            outputs.add(result.output.replace(str(out), "OUT"))
            assert sorted(p.name for p in out.iterdir()) == ["traffic.csv"]
            no_leftovers(tmp_path)
        assert len(outputs) == 1, outputs


def test_oracle_reads_what_the_parts_read(fleet):
    """The whole-file row loop agrees with the spans' traces on the fleet file."""
    path = fleet / "traffic.csv"
    rows = oracles.row_loop_traffic(path)
    got = [t for span in traffic.traffic_spans(path, 3)
           for t in traffic.iter_traffic_span(path, 10.0, span)]
    assert {t.cell_id: t.samples.tobytes() for t in got} == \
        {cid: np.frombuffer(block).tobytes() for cid, block in rows.items()}
