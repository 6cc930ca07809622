import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import error_cases
import trxsave
from trxsave import analytics, parts
from trxsave.cli import build_demo_fleet, main
from trxsave.errors import ConfigurationError
from trxsave.tables import (CLUSTERS_CSV_HEADER, KPI_CSV_HEADER, KpiRecord, emit_kpi_csv,
                            write_csv)
from trxsave.traffic import read_traffic_csv, write_traffic_csv

from test_startup import ENV


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def blob_kpi_csv(path: Path, per_blob=12, seed=3):
    """KPI file whose rows form three obvious groups."""
    groups = [
        dict(erl=1.5, thr=138.0, cong=0.01, pre=1.0, ts=24),
        dict(erl=7.0, thr=130.0, cong=0.05, pre=10.0, ts=24),
        dict(erl=14.0, thr=122.0, cong=0.40, pre=35.0, ts=32),
    ]
    rng = np.random.default_rng(seed)
    records = []
    i = 0
    for g in groups:
        for _ in range(per_blob):
            records.append(KpiRecord(
                f"cell_{i:03d}",
                round(g["erl"] + rng.normal(0, 0.1), 5),
                round(g["thr"] + rng.normal(0, 0.3), 5),
                round(max(0.0, g["cong"] + rng.normal(0, 0.002)), 5),
                round(max(0.0, g["pre"] + rng.normal(0, 0.3)), 5),
                g["ts"],
            ))
            i += 1
    emit_kpi_csv(records, path)
    return records


def test_version(runner):
    result = run_ok(runner, ["--version"])
    assert result.output.split()[-1] == trxsave.__version__ == "0.1.0"


class TestGenerate:
    def test_writes_expected_row_counts(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["generate", "--cells", "10", "--days", "1",
                        "--seed", "7", "--out", str(out)])
        fleet = json.loads((out / "fleet.json").read_text())
        assert len(fleet["cells"]) == 10
        traffic_lines = (out / "traffic.csv").read_text().splitlines()
        assert len(traffic_lines) == 1 + 10 * 8640
        kpi_lines = (out / "kpis.csv").read_text().splitlines()
        assert kpi_lines[0] == ",".join(KPI_CSV_HEADER)
        assert len(kpi_lines) == 11

    def test_same_flags_identical_files(self, runner, tmp_path):
        for name in ("a", "b"):
            run_ok(runner, ["generate", "--cells", "6", "--days", "1",
                            "--seed", "9", "--out", str(tmp_path / name)])
        for fname in ("fleet.json", "traffic.csv", "kpis.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_memory_holds_one_cell_whatever_the_fleet_size(self, runner, tmp_path):
        scans = 2 * 8640
        one_trace = 8 * scans  # far less than one cell's write buffers

        def peak(n_cells):
            tracemalloc.start()
            try:
                run_ok(runner, ["generate", "--cells", str(n_cells), "--days", "2",
                                "--out", str(tmp_path / str(n_cells))])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations fall outside the comparison
        small, large = peak(4), peak(40)
        assert large - small < one_trace, (small, large)

    def test_fleet_contains_every_tier(self):
        cells, traces, kpis = build_demo_fleet(100, 1, seed=0)
        tiers = {c["tier"] for c in cells}
        assert tiers == {"low", "medium", "high", "saturated"}
        with pytest.raises(ConfigurationError):
            build_demo_fleet(0, 1, seed=0)


class TestCluster:
    def test_three_blob_kpis_select_k3(self, runner, tmp_path):
        blob_kpi_csv(tmp_path / "kpis.csv")
        out = tmp_path / "out"
        result = run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                                 "--seed", "5", "--out", str(out)])
        assert "k=3" in result.output
        meta = json.loads((out / "clustering.json").read_text())
        assert meta["k"] == 3
        clusters = (out / "clusters.csv").read_text().splitlines()
        assert clusters[0] == "cell_id,cluster"
        assert len(clusters) == 37
        assert (out / "elbow.csv").exists()
        assert (out / "silhouette.csv").exists()

    def test_k_override_pins_k(self, runner, tmp_path):
        blob_kpi_csv(tmp_path / "kpis.csv")
        out = tmp_path / "out"
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                        "--k", "2", "--seed", "5", "--out", str(out)])
        labels = {int(line.split(",")[1])
                  for line in (out / "clusters.csv").read_text().splitlines()[1:]}
        assert labels == {0, 1}

    def test_overflowing_kpi_column_named_on_one_stderr_line(self, tmp_path):
        path = tmp_path / "kpis.csv"
        path.write_text(",".join(KPI_CSV_HEADER) + "\n" + "".join(
            f"c{i},1e308,{100 + i},0.1,1,24\n" for i in range(3)))
        # a fresh interpreter, so numpy's warnings reach stderr as they do for a user
        proc = subprocess.run([sys.executable, "-m", "trxsave.cli", "cluster", "--kpi",
                               str(path), "--out", str(tmp_path / "out")],
                              env=ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == (f"error: {path}: feature tch_traffic_erl: mean or standard "
                               "deviation overflows a float64\n")

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_feature_rows_exit_0(self, runner, tmp_path, seed):
        # 22 cells, only 5 distinct rows: k-means keeps proposing duplicate centroids
        rows = [(12.2, 124.0, 0.31, 32.8, 24), (9.81, 122.2, 0.279, 15.8, 32),
                (11.29, 121.4, 0.233, 30.2, 32), (5.4, 134.8, 0.19, 33.8, 32),
                (11.89, 123.4, 0.356, 1.4, 32)]
        picks = [0] * 11 + [1] * 3 + [2] * 3 + [3] * 3 + [4] * 2
        emit_kpi_csv([KpiRecord(f"cell_{i:03d}", *rows[j]) for i, j in enumerate(picks)],
                     tmp_path / "kpis.csv")
        out = tmp_path / "out"
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"), "--seed", str(seed),
                        "--out", str(out)])
        assert json.loads((out / "clustering.json").read_text())["k"] == 5

    @pytest.mark.parametrize("pin", [[], ["--k", "3"], ["--k", "12"]])
    def test_each_k_fitted_once(self, runner, tmp_path, monkeypatch, pin):
        fitted, scored = [], []
        best_restart, silhouette_scores = analytics._best_restart, analytics.silhouette_scores

        def counting_best_restart(points, k, *args):
            fitted.append(k)
            return best_restart(points, k, *args)

        def counting_silhouette_scores(points, labelings):
            scored.append([int(labels.max()) + 1 for labels in labelings])
            return silhouette_scores(points, labelings)

        # one part, so every restart loop runs in this process and is counted
        monkeypatch.setattr(parts, "cpus", lambda: 1)
        monkeypatch.setattr(analytics, "_best_restart", counting_best_restart)
        monkeypatch.setattr(analytics, "silhouette_scores", counting_silhouette_scores)
        blob_kpi_csv(tmp_path / "kpis.csv")
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"), *pin,
                        "--seed", "5", "--out", str(tmp_path / "out")])
        curve = list(range(2, 10))
        off_curve = [int(pin[1])] if pin and int(pin[1]) not in curve else []
        assert fitted == [*range(1, 11), *off_curve]
        # one distance pass scores the whole curve and a pinned k off it
        assert scored == [[*curve, *off_curve]]

    @pytest.mark.parametrize("pin", [None, 3, 1, 12])
    def test_clustering_json_silhouette_matches_curve(self, runner, tmp_path, pin):
        blob_kpi_csv(tmp_path / "kpis.csv")
        args = ["cluster", "--kpi", str(tmp_path / "kpis.csv"), "--seed", "5"]
        run_ok(runner, [*args, "--k-max", "12", "--out", str(tmp_path / "wide")])
        wide = read_curve(tmp_path / "wide" / "silhouette.csv")
        out = tmp_path / "out"
        run_ok(runner, [*args, *([] if pin is None else ["--k", str(pin)]), "--out", str(out)])
        assert read_curve(out / "silhouette.csv") == {k: wide[k] for k in range(2, 10)}
        meta = json.loads((out / "clustering.json").read_text())
        assert meta["k"] == (3 if pin is None else pin)
        assert meta["silhouette"] == (0.0 if pin == 1 else wide[meta["k"]])

    # cluster's option checks are the only ones: every value at their edges runs
    # through each stage, and each fitted cluster keeps at least one cell
    FOUR_CELLS = [(1.5, 138.0, 0.01, 1.0, 24), (1.7, 137.0, 0.02, 2.0, 24),
                  (14.0, 122.0, 0.40, 35.0, 32), (13.0, 121.0, 0.38, 33.0, 32)]

    @pytest.mark.parametrize("rows,args,k,elbow_ks,sel_ks", [
        (FOUR_CELLS, ["--k", "4"], 4, [1, 2, 3, 4], [2, 3, 4]),
        (FOUR_CELLS, ["--k-min", "4", "--k-max", "4"], 4, [1, 2, 3, 4], [4]),
        (FOUR_CELLS, ["--k-min", "2", "--k-max", "2"], 2, [1, 2, 3, 4], [2]),
        (FOUR_CELLS, ["--k-max", "50"], 2, [1, 2, 3, 4], [2, 3, 4]),
        (FOUR_CELLS, ["--restarts", "1"], 2, [1, 2, 3, 4], [2, 3, 4]),
        (FOUR_CELLS[:2], [], 2, [1, 2], [2]),
        ([FOUR_CELLS[0]] * 2, [], 2, [1, 2], [2]),
    ], ids=["k_equals_cells", "k_min_equals_cells", "k_min_equals_k_max", "k_max_above_cells",
            "one_restart", "two_cells", "two_identical_cells"])
    def test_options_at_the_edge_of_its_checks_run(self, runner, tmp_path, rows, args, k,
                                                   elbow_ks, sel_ks):
        emit_kpi_csv([KpiRecord(f"cell_{i}", *row) for i, row in enumerate(rows)],
                     tmp_path / "kpis.csv")
        out = tmp_path / "out"
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"), *args, "--seed", "5",
                        "--out", str(out)])
        assert json.loads((out / "clustering.json").read_text())["k"] == k
        assert list(read_curve(out / "elbow.csv")) == elbow_ks
        assert list(read_curve(out / "silhouette.csv")) == sel_ks
        labels = [int(line.split(",")[1])
                  for line in (out / "clusters.csv").read_text().splitlines()[1:]]
        assert len(labels) == len(rows)
        assert sorted(set(labels)) == list(range(k))


def read_curve(path: Path) -> dict[int, float]:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return {int(k): float(v) for k, v in rows}


class TestAssign:
    def prepare(self, runner, tmp_path):
        blob_kpi_csv(tmp_path / "kpis.csv")
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                        "--k", "3", "--seed", "5", "--out", str(tmp_path)])

    def test_assignment_and_push_files(self, runner, tmp_path):
        self.prepare(runner, tmp_path)
        run_ok(runner, ["assign", "--clusters", str(tmp_path / "clusters.csv"),
                        "--kpi", str(tmp_path / "kpis.csv"), "--out", str(tmp_path)])
        lines = (tmp_path / "assignment.csv").read_text().splitlines()
        assert lines[0] == "cell_id,cluster,hysteresis"
        assert len(lines) == 37
        values = {int(line.split(",")[2]) for line in lines[1:]}
        assert values == {4, 6, 12}
        push = (tmp_path / "param_push.csv").read_text().splitlines()
        assert push[0] == "cell_id,BTSPSHYST"

    def test_low_traffic_blob_gets_smallest_hysteresis(self, runner, tmp_path):
        self.prepare(runner, tmp_path)
        run_ok(runner, ["assign", "--clusters", str(tmp_path / "clusters.csv"),
                        "--kpi", str(tmp_path / "kpis.csv"), "--out", str(tmp_path)])
        rows = [line.split(",") for line in
                (tmp_path / "assignment.csv").read_text().splitlines()[1:]]
        by_cell = {r[0]: int(r[2]) for r in rows}
        # cells 0..11 form the low blob, 24..35 the heavy one
        assert all(by_cell[f"cell_{i:03d}"] == 4 for i in range(12))
        assert all(by_cell[f"cell_{i:03d}"] == 12 for i in range(24, 36))

    def test_clusters_rank_by_traffic_alone(self, runner, tmp_path):
        # cluster 0 carries more Erlang, cluster 1 more congestion and preemption
        emit_kpi_csv([KpiRecord("erl_a", 9.0, 130.0, 0.01, 1.0, 24),
                      KpiRecord("erl_b", 9.5, 130.0, 0.01, 1.0, 24),
                      KpiRecord("cong_a", 5.0, 120.0, 0.40, 30.0, 24),
                      KpiRecord("cong_b", 5.5, 120.0, 0.50, 35.0, 24)], tmp_path / "kpis.csv")
        write_csv(tmp_path / "clusters.csv", CLUSTERS_CSV_HEADER,
                  [("erl_a", 0), ("erl_b", 0), ("cong_a", 1), ("cong_b", 1)])
        run_ok(runner, ["assign", "--clusters", str(tmp_path / "clusters.csv"),
                        "--kpi", str(tmp_path / "kpis.csv"), "--policy", "4,12",
                        "--out", str(tmp_path)])
        rows = [line.split(",") for line in
                (tmp_path / "assignment.csv").read_text().splitlines()[1:]]
        assert {r[0] for r in rows if r[2] == "12"} == {"erl_a", "erl_b"}


def run_pipeline(runner, root, seed="3", cells="8", days="1", extra_sim=()):
    out = str(root)
    run_ok(runner, ["generate", "--cells", cells, "--days", days, "--seed", seed, "--out", out])
    run_ok(runner, ["cluster", "--kpi", f"{out}/kpis.csv", "--k", "3", "--seed", seed,
                    "--out", out])
    run_ok(runner, ["assign", "--clusters", f"{out}/clusters.csv",
                    "--kpi", f"{out}/kpis.csv", "--out", out])
    return run_ok(runner, ["simulate", "--fleet", f"{out}/fleet.json",
                           "--traffic", f"{out}/traffic.csv",
                           "--assignment", f"{out}/assignment.csv",
                           "--seed", seed, "--out", out, *extra_sim])


@pytest.fixture(scope="module")
def small_fleet(tmp_path_factory):
    """Three cells, one day: generated once and only read by the tests that use it."""
    out = tmp_path_factory.mktemp("small_fleet")
    run_ok(CliRunner(), ["generate", "--cells", "3", "--days", "1", "--seed", "4",
                         "--out", str(out)])
    return out


class TestSimulate:
    def test_pipeline_prints_one_decimal_reduction(self, runner, tmp_path):
        result = run_pipeline(runner, tmp_path / "run")
        line = next(l for l in result.output.splitlines() if "reduction" in l)
        pct = line.split(":")[1].strip()
        assert pct.endswith("%")
        float(pct[:-1])  # parses
        assert "." in pct and len(pct.split(".")[1]) == 2  # one decimal plus '%'

    def test_metadata_records_what_ran(self, runner, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--cells", "2", "--days", "1", "--scan-period", "20",
                        "--out", str(out)])
        run_ok(runner, ["simulate", "--fleet", f"{out}/fleet.json",
                        "--traffic", f"{out}/traffic.csv", "--hysteresis", "1",
                        "--off-target", "40", "--timelines", "0", "--out", str(out)])
        metadata = json.loads((out / "summary.json").read_text())["metadata"]
        assert metadata["scan_period_s"] == 20
        assert metadata["default_hysteresis"] == 1
        assert metadata["params"] == {"trx_off_target": 40, "trx_on_target": 49,
                                      "trx_off_delay": 30, "decay_step": 3}

    def test_missing_inputs_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--fleet", str(tmp_path / "nope.json"),
                                      "--traffic", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    @staticmethod
    def simulate(runner, out, *extra):
        return runner.invoke(main, ["simulate", "--fleet", f"{out}/fleet.json",
                                    "--traffic", f"{out}/traffic.csv", "--hysteresis", "5",
                                    "--timelines", "0", "--out", str(out), *extra])

    def test_fleet_order_does_not_change_outputs(self, runner, small_fleet, tmp_path):
        fleet = json.loads((small_fleet / "fleet.json").read_text())
        fleet["cells"].reverse()
        (tmp_path / "fleet.json").write_text(json.dumps(fleet))
        for name, fleet_dir in (("sorted", small_fleet), ("reversed", tmp_path)):
            run_ok(runner, ["simulate", "--fleet", f"{fleet_dir}/fleet.json",
                            "--traffic", f"{small_fleet}/traffic.csv", "--hysteresis", "3",
                            "--warmup-days", "0.25", "--timelines", "2",
                            "--out", str(tmp_path / name)])
        outputs = [Path("summary.json"),
                   *(Path("timelines", f"cell_000{i}_{mode}.csv")
                     for i in range(2) for mode in ("off", "on"))]
        for rel in outputs:
            assert (tmp_path / "sorted" / rel).read_bytes() == \
                (tmp_path / "reversed" / rel).read_bytes(), rel
        names = sorted(p.name for p in (tmp_path / "reversed/timelines").iterdir())
        assert names == ["cell_0000_off.csv", "cell_0000_on.csv",
                         "cell_0001_off.csv", "cell_0001_on.csv"]

    def test_traffic_file_order_does_not_change_outputs(self, runner, small_fleet, tmp_path):
        traces = read_traffic_csv(small_fleet / "traffic.csv")
        write_traffic_csv(traces[::-1], tmp_path / "traffic.csv")
        for name, traffic_dir in (("sorted", small_fleet), ("reversed", tmp_path)):
            run_ok(runner, ["simulate", "--fleet", f"{small_fleet}/fleet.json",
                            "--traffic", f"{traffic_dir}/traffic.csv", "--hysteresis", "3",
                            "--warmup-days", "0.25", "--timelines", "2",
                            "--out", str(tmp_path / name)])
        files = sorted(p.relative_to(tmp_path / "sorted")
                       for p in (tmp_path / "sorted").rglob("*") if p.is_file())
        assert [str(p) for p in files] == [
            "comparison.csv", "summary.json",
            *(f"timelines/cell_000{i}_{mode}.csv" for i in range(2) for mode in ("off", "on"))]
        for rel in files:
            assert (tmp_path / "sorted" / rel).read_bytes() == \
                (tmp_path / "reversed" / rel).read_bytes(), rel
        rows = json.loads((tmp_path / "reversed/summary.json").read_text())["rows"]
        assert [row["cell_id"] for row in rows] == ["cell_0000", "cell_0001", "cell_0002"]

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: rows.replace("cell_0002,8639,", "cell_0002,8639,x"),
         "row 25920: non-numeric field"),
        (lambda rows: rows + "cell_0000,8640,1.5\n",
         "row 25921: cell 'cell_0000' again after another cell"),
    ], ids=["bad_row_in_last_block", "first_block_again_at_end"])
    def test_late_failure_writes_nothing(self, runner, small_fleet, tmp_path, edit, message):
        (tmp_path / "fleet.json").write_bytes((small_fleet / "fleet.json").read_bytes())
        (tmp_path / "traffic.csv").write_text(edit((small_fleet / "traffic.csv").read_text()))
        out = tmp_path / "out"
        result = self.simulate(runner, tmp_path, "--timelines", "all", "--out", str(out))
        assert result.exit_code == 3, result.output
        assert message in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.json", "traffic.csv"]

    def test_cell_id_climbing_out_of_out_writes_nothing(self, runner, small_fleet, tmp_path):
        cell_id = "../../escaped"
        fleet = json.loads((small_fleet / "fleet.json").read_text())
        fleet["cells"][0]["cell_id"] = cell_id
        (tmp_path / "fleet.json").write_text(json.dumps(fleet))
        (tmp_path / "traffic.csv").write_text(
            (small_fleet / "traffic.csv").read_text().replace("cell_0000,", f"{cell_id},"))
        result = self.simulate(runner, tmp_path, "--timelines", "all",
                               "--out", str(tmp_path / "out"))
        assert result.exit_code == 3, result.output
        assert f"{tmp_path / 'fleet.json'}: cells[0]: cell_id {cell_id!r} may not hold '/'" \
            in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.json", "traffic.csv"]
        assert not list(tmp_path.parent.glob("escaped*"))

    def test_memory_holds_one_trace_whatever_the_fleet_size(self, runner, tmp_path):
        scans = 2 * 8640
        one_trace_and_timeline = 16 * scans  # 8 B of samples and 8 B of timeline per scan
        for n_cells in (2, 4, 40):
            run_ok(runner, ["generate", "--cells", str(n_cells), "--days", "2",
                            "--out", str(tmp_path / str(n_cells))])

        def peak(n_cells):
            fleet_dir = tmp_path / str(n_cells)
            tracemalloc.start()
            try:
                run_ok(runner, ["simulate", "--fleet", f"{fleet_dir}/fleet.json",
                                "--traffic", f"{fleet_dir}/traffic.csv", "--hysteresis", "3",
                                "--timelines", "0", "--out", str(fleet_dir / "sim")])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations fall outside the comparison
        small, large = peak(4), peak(40)
        assert large - small < one_trace_and_timeline, (small, large)

    def test_timelines_count_option(self, runner, tmp_path):
        out = tmp_path / "run"
        run_pipeline(runner, out, extra_sim=["--timelines", "2"])
        names = sorted(p.name for p in (out / "timelines").iterdir())
        assert names == ["cell_0000_off.csv", "cell_0000_on.csv",
                         "cell_0001_off.csv", "cell_0001_on.csv"]


class TestReport:
    def test_report_renders_summary(self, runner, tmp_path):
        out = tmp_path / "run"
        run_pipeline(runner, out)
        result = run_ok(runner, ["report", "--summary", f"{out}/summary.json"])
        assert "reduction" in result.output
        assert "cell_0000" in result.output


class TestConfigFileRemoved:
    # every option has one way in, its flag: a leftover config file is a usage
    # error, not silently ignored
    @pytest.mark.parametrize("command", ["generate", "cluster", "assign", "simulate", "report"])
    def test_config_is_not_an_option(self, runner, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": 5, "days": 1, "seed": 21}))
        result = runner.invoke(main, [command, "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1].startswith("Error: No such option")
        assert "--config" in result.output.splitlines()[-1]
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, runner, tmp_path):
        for name in ("x", "y"):
            run_pipeline(runner, tmp_path / name, extra_sim=["--timelines", "2"])
        files = sorted(
            p.relative_to(tmp_path / "x")
            for p in (tmp_path / "x").rglob("*") if p.is_file()
        )
        assert files
        for rel in files:
            assert (tmp_path / "x" / rel).read_bytes() == (tmp_path / "y" / rel).read_bytes(), rel


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, with its bytes; a directory as None."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def test_every_command_has_error_cases():
    assert {case.command for case in error_cases.CASES} == set(main.commands) \
        == set(error_cases.DEFAULT_FILES)
    assert len({case.id for case in error_cases.CASES}) == len(error_cases.CASES)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", error_cases.CASES, ids=lambda case: case.id)
def test_error_case(runner, tmp_path, monkeypatch, case, cpus):
    """Each documented failure: one stderr line and its exit code, whatever the CPU
    count. A command with ``--out`` runs twice: into an ``--out`` that does not
    exist, and into one that holds an earlier run's files. Neither run changes
    any file or directory under the test's directory."""
    monkeypatch.setattr(parts, "cpus", lambda: cpus)
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name, text in case.inputs().items():
        (inputs / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    earlier = tmp_path / "earlier"
    for name in ("timelines/a_on.csv", "traffic.csv", "clusters.csv", "assignment.csv",
                 "summary.json"):
        (earlier / name).parent.mkdir(parents=True, exist_ok=True)
        (earlier / name).write_text("an earlier run\n")
    before = tree(tmp_path)
    argv = [arg.format(dir=inputs) for arg in case.argv()]
    has_out = any(param.name == "out" for param in main.commands[case.command].params)
    for out in [tmp_path / "new", earlier] if has_out else [None]:
        result = runner.invoke(main, argv + ([] if out is None else ["--out", str(out)]))
        assert (result.exit_code, result.stderr) == (
            case.code, f"error: {case.stderr.format(dir=inputs)}\n"), result.output
        assert tree(tmp_path) == before
