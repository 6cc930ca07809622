"""One CSV dialect and one ``cell_id`` rule across every file of the pipeline.

A ``cell_id`` is non-empty and holds no ``,``, ``"``, CR, LF, ``/`` or NUL.
Every reader rejects any other id with a data error naming the file and the
row, every reader accepts the same ids, and every file the program writes
reads back, by its own readers and by Python's ``csv.reader``, to exactly the
fields it wrote.
"""

import csv
import json
import re
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from trxsave import analytics, evaluator, tables, traffic, tuner
from trxsave.cell_model import CellConfig
from trxsave.cli import main, read_fleet_json, write_fleet_json
from trxsave.errors import DataError
from trxsave.tables import KpiRecord
from trxsave.traffic import TrafficTrace

import error_cases

BAD_IDS = {name: cell_id for name, (cell_id, _, _) in error_cases.BAD_IDS.items()}
CELL = "cell_0001"  # the second cell of the fleet: its first traffic row is row 8641


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """fleet.json, traffic.csv, kpis.csv, clusters.csv and assignment.csv of three cells."""
    out = tmp_path_factory.mktemp("pipeline")
    for args in (("generate", "--cells", 3, "--days", 1, "--seed", 4, "--out", out),
                 ("cluster", "--kpi", out / "kpis.csv", "--k", 2, "--out", out),
                 ("assign", "--clusters", out / "clusters.csv", "--kpi", out / "kpis.csv",
                  "--policy", "4,12", "--out", out)):
        assert run(*args).exit_code == 0
    return out


class TestEveryReaderRejectsABadId:
    @pytest.mark.parametrize("bad", BAD_IDS, ids=list(BAD_IDS))
    def test_traffic_csv_names_the_file_and_the_row(self, pipeline, tmp_path, bad):
        """Each other reader meets each bad id in ``error_cases.py``; ``traffic.csv``
        meets it here, at row 8641, after a whole cell of plain rows."""
        shutil.copy(pipeline / "fleet.json", tmp_path / "fleet.json")
        path = tmp_path / "traffic.csv"
        cell_id, error, csv_error = error_cases.BAD_IDS[bad]
        path.write_bytes((pipeline / "traffic.csv").read_bytes()
                         .replace(f"{CELL},".encode(), f"{cell_id},".encode()))
        result = run("simulate", "--fleet", tmp_path / "fleet.json", "--traffic", path,
                     "--hysteresis", 4, "--timelines", "all", "--out", tmp_path / "out")
        if bad in ("comma", "cr", "lf"):  # the id splits its row; a quote is a forbidden id byte
            error = csv_error.format(n=3, more=4)
        assert (result.exit_code, result.stderr) == (3, f"error: {path}: row 8641: {error}\n")
        assert not (tmp_path / "out").exists()

    def test_the_rule_holds_in_library_calls(self):
        for cell_id in ("a/b", "a\0b", "", 'a"b', "a,b", "a\nb"):
            with pytest.raises(DataError, match="^cell config: "):
                CellConfig(cell_id, 2)


# writer -> a call that writes one row of the id to a path
WRITERS = {
    "kpis.csv": lambda cell_id, path: tables.emit_kpi_csv([kpi_row(cell_id)], path),
    "traffic.csv": lambda cell_id, path: traffic.write_traffic_csv(
        [TrafficTrace("a", 10.0, np.ones(3)), TrafficTrace(cell_id, 10.0, np.ones(3))], path),
    "clusters.csv": lambda cell_id, path: analytics.write_clusters_csv(
        [cell_id], np.array([0]), path),
    "assignment.csv": lambda cell_id, path: tuner.write_assignment_csv(
        {cell_id: 0}, {cell_id: 4}, path),
    "param_push.csv": lambda cell_id, path: tuner.write_push_csv({cell_id: 4}, path),
}


class TestEveryWriterRefusesABadId:
    @pytest.mark.parametrize("bad", BAD_IDS, ids=list(BAD_IDS))
    @pytest.mark.parametrize("name", WRITERS)
    def test_data_error_naming_the_file_and_no_row_written(self, tmp_path, name, bad):
        path = tmp_path / name
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            WRITERS[name](BAD_IDS[bad], path)
        if name == "traffic.csv":  # written as its traces come: the good cell only
            assert path.read_text() == "cell_id,scan_index,offered_erlang\na,0,1\na,1,1\na,2,1\n"
        else:  # checked before the file is opened
            assert not path.exists()

    def test_a_line_end_in_a_kpi_id_writes_no_file(self, tmp_path):
        # "\r-0" would read back as the id "-0"
        with pytest.raises(DataError, match=re.escape("may not hold '\\r'")):
            tables.emit_kpi_csv([kpi_row("\r-0")], tmp_path / "kpis.csv")
        assert not (tmp_path / "kpis.csv").exists()


def kpi_row(cell_id):
    return KpiRecord(cell_id, 1.5, 130.0, 0.5, 2.0, 24)


def read_back(cell_id, root):
    """The ids each reader reads from a file holding ``cell_id``, or None where the
    program's writer of the file refuses the id or the reader rejects the file."""
    root.mkdir()
    got = {}
    readers = {
        "fleet.json": (lambda p: write_fleet_json(p, [{"cell_id": cell_id, "num_trx": 2,
                                                        "cch_slots": 3}], 0, 1, 10.0),
                       lambda p: [c.cell_id for c in read_fleet_json(p)[1]]),
        "kpis.csv": (lambda p: tables.emit_kpi_csv([kpi_row(cell_id)], p),
                     lambda p: [r.cell_id for r in tables.ingest_kpi_csv(p)]),
        "clusters.csv": (lambda p: analytics.write_clusters_csv([cell_id], np.array([0]), p),
                         lambda p: list(tables.read_clusters_csv(p))),
        "assignment.csv": (lambda p: tuner.write_assignment_csv({cell_id: 0}, {cell_id: 4}, p),
                           lambda p: list(tuner.read_assignment_csv(p))),
        "traffic.csv": (lambda p: traffic.write_traffic_csv(
                            [TrafficTrace(cell_id, 10.0, np.array([1.0, 2.5]))], p),
                        lambda p: [t.cell_id for t in traffic.read_traffic_csv(p)]),
    }
    for name, (write, read) in readers.items():
        path = root / name
        try:
            write(path)
            got[name] = read(path)
        except DataError:
            got[name] = None
    try:
        CellConfig(cell_id, 2)
        got["CellConfig"] = [cell_id]
    except DataError:
        got["CellConfig"] = None
    return got


def random_ids(n, seed):
    alphabet = ["a", "Z", "0", "_", "-", ".", " ", "\t", "'", ";", "\\", "é", "小",
                "\U0001f6f0", "\x85", "\u2028", "\x0b", "\ufeff",
                ",", '"', "\r", "\n", "/", "\0"]
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(alphabet, rng.integers(0, 5))) for _ in range(n)]


class TestOneIdRuleEverywhere:
    @pytest.mark.parametrize("seed", range(3))
    def test_an_id_one_reader_accepts_every_reader_accepts_and_reads_back(self, tmp_path,
                                                                          seed):
        accepted = 0
        for i, cell_id in enumerate(random_ids(40, seed)):
            got = read_back(cell_id, tmp_path / str(i))
            # every reader reads the id back, or none does: it rejects the file, or a
            # line end in the id splits the row and it reads the rows that makes
            read = {name for name, ids in got.items() if ids == [cell_id]}
            assert read in (set(), set(got)), (cell_id, got)
            valid = cell_id != "" and not any(c in cell_id for c in ',"\r\n/\0')
            assert bool(read) == valid, repr(cell_id)
            accepted += valid
        assert 0 < accepted < 40

    def test_every_written_table_is_what_csv_reader_reads(self, pipeline, tmp_path):
        """bench/workloads.py reads the small tables with csv.reader."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        assert run("simulate", "--fleet", tmp_path / "fleet.json",
                   "--traffic", tmp_path / "traffic.csv",
                   "--assignment", tmp_path / "assignment.csv", "--timelines", 1,
                   "--out", tmp_path).exit_code == 0
        names = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv"))
        assert names == ["assignment.csv", "clusters.csv", "comparison.csv", "elbow.csv",
                         "kpis.csv", "param_push.csv", "silhouette.csv",
                         "timelines/cell_0000_off.csv", "timelines/cell_0000_on.csv",
                         "traffic.csv"]
        # odd ids the dialect allows: spaces, "'", a tab, ";" and non-ASCII letters
        odd = ["a b", " x'", "t\tu", "é;小"]
        tuner.write_assignment_csv(dict.fromkeys(odd, 1), dict.fromkeys(odd, 4),
                                   tmp_path / "odd_assignment.csv")
        tables.emit_kpi_csv([kpi_row(c) for c in odd], tmp_path / "odd_kpis.csv")
        summary = evaluator.read_summary_json(tmp_path / "summary.json")
        rows = tuple(evaluator.CellComparison(c, 24, 16, 12.5, 0, 0) for c in odd)
        evaluator.write_comparison_csv(evaluator.ComparisonSummary(
            **{**evaluator.summary_to_dict(summary), "rows": rows}), tmp_path / "odd_cmp.csv")
        for name in [*names, "odd_assignment.csv", "odd_kpis.csv", "odd_cmp.csv"]:
            data = (tmp_path / name).read_bytes()
            written = [line.split(",") for line in data.decode().split("\n")[:-1]]
            with open(tmp_path / name, newline="", encoding="utf-8") as stream:
                assert list(csv.reader(stream)) == written, name
            if name.startswith("odd_"):
                assert [row[0] for row in written[1:]] == odd
