import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from trxsave import analytics
from trxsave.cli import build_demo_fleet, main
from trxsave.errors import ConfigurationError
from trxsave.traffic import KPI_CSV_HEADER, emit_kpi_csv, KpiRecord


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

    def test_zero_cells_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--cells", "0", "--out", str(tmp_path)])
        assert result.exit_code == 2

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

    def test_single_cell_input_exits_3(self, runner, tmp_path):
        emit_kpi_csv([KpiRecord("only", 1.0, 100.0, 0.0, 1.0, 24)], tmp_path / "kpis.csv")
        result = runner.invoke(main, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_corrupt_kpi_exits_3(self, runner, tmp_path):
        (tmp_path / "kpis.csv").write_text(",".join(KPI_CSV_HEADER) + "\nc1,oops,1,1,1,24\n")
        result = runner.invoke(main, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "row 1" in result.output


    def test_duplicate_cell_id_exits_3(self, runner, tmp_path):
        records = blob_kpi_csv(tmp_path / "kpis.csv", per_blob=2)
        emit_kpi_csv(records + records[:1], tmp_path / "kpis.csv")
        result = runner.invoke(main, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "row 7: duplicate cell_id 'cell_000'" in result.output

    @pytest.mark.parametrize("pin", [[], ["--k", "3"]])
    def test_each_k_fitted_once(self, runner, tmp_path, monkeypatch, pin):
        fitted, scored = [], []
        run_kmeans, silhouette_score = analytics.run_kmeans, analytics.silhouette_score

        def counting_run_kmeans(points, k, **kwargs):
            fitted.append(k)
            return run_kmeans(points, k, **kwargs)

        def counting_silhouette_score(points, labels):
            scored.append(int(labels.max()) + 1)
            return silhouette_score(points, labels)

        monkeypatch.setattr(analytics, "run_kmeans", counting_run_kmeans)
        monkeypatch.setattr(analytics, "silhouette_score", counting_silhouette_score)
        blob_kpi_csv(tmp_path / "kpis.csv")
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"), *pin,
                        "--seed", "5", "--out", str(tmp_path / "out")])
        assert fitted == list(range(1, 11))
        assert scored == list(range(2, 10))

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


def read_curve(path: Path) -> dict[int, float]:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return {int(k): float(v) for k, v in rows}


class TestAssign:
    def prepare(self, runner, tmp_path, k="3"):
        blob_kpi_csv(tmp_path / "kpis.csv")
        run_ok(runner, ["cluster", "--kpi", str(tmp_path / "kpis.csv"),
                        "--k", k, "--seed", "5", "--out", str(tmp_path)])

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

    def test_policy_size_mismatch_exits_2(self, runner, tmp_path):
        self.prepare(runner, tmp_path, k="2")
        result = runner.invoke(main, ["assign", "--clusters", str(tmp_path / "clusters.csv"),
                                      "--kpi", str(tmp_path / "kpis.csv"),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2


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


class TestSimulate:
    def test_pipeline_prints_one_decimal_reduction(self, runner, tmp_path):
        result = run_pipeline(runner, tmp_path / "run")
        line = next(l for l in result.output.splitlines() if "reduction" in l)
        pct = line.split(":")[1].strip()
        assert pct.endswith("%")
        float(pct[:-1])  # parses
        assert "." in pct and len(pct.split(".")[1]) == 2  # one decimal plus '%'

    def test_ps_off_writes_timelines_but_no_comparison(self, runner, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--cells", "4", "--days", "1", "--seed", "2",
                        "--out", str(out)])
        run_ok(runner, ["simulate", "--fleet", f"{out}/fleet.json",
                        "--traffic", f"{out}/traffic.csv", "--hysteresis", "5",
                        "--ps", "off", "--out", str(out)])
        assert not (out / "comparison.csv").exists()
        assert not (out / "summary.json").exists()
        assert (out / "report_off.json").exists()
        timelines = sorted(p.name for p in (out / "timelines").iterdir())
        assert timelines == [f"cell_{i:04d}_off.csv" for i in range(4)]

    def test_corrupt_traffic_exits_3(self, runner, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--cells", "3", "--days", "1", "--seed", "2",
                        "--out", str(out)])
        (out / "traffic.csv").write_text("cell_id,scan_index,offered_erlang\nx,0,bad\n")
        result = runner.invoke(main, ["simulate", "--fleet", f"{out}/fleet.json",
                                      "--traffic", f"{out}/traffic.csv",
                                      "--hysteresis", "5", "--out", str(out)])
        assert result.exit_code == 3

    def test_missing_inputs_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--fleet", str(tmp_path / "nope.json"),
                                      "--traffic", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c.pop("num_trx"), "cell 'cell_0001': num_trx must be an integer, got None"),
        (lambda c: c.update(num_trx="3"), "cell 'cell_0001': num_trx must be an integer, got '3'"),
        (lambda c: c.update(num_trx=3.5), "cell 'cell_0001': num_trx must be an integer"),
        (lambda c: c.pop("cch_slots"), "cell 'cell_0001': cch_slots must be an integer"),
        (lambda c: c.pop("cell_id"), r"cells\[1\] has no string 'cell_id'"),
        (lambda c: c.update(cell_id="cell_0000"), "duplicate cell_id 'cell_0000'"),
    ], ids=["no_num_trx", "str_num_trx", "float_num_trx", "no_cch_slots", "no_cell_id",
            "duplicate_cell_id"])
    def test_malformed_fleet_cell_exits_3(self, runner, tmp_path, edit, message):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--cells", "3", "--days", "1", "--out", str(out)])
        fleet = json.loads((out / "fleet.json").read_text())
        edit(fleet["cells"][1])
        (out / "fleet.json").write_text(json.dumps(fleet))
        result = self.simulate(runner, out)
        assert result.exit_code == 3
        assert "fleet.json" in result.output
        assert re.search(message, result.output), result.output

    def test_traffic_must_trace_exactly_the_fleet(self, runner, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--cells", "3", "--days", "1", "--out", str(out)])
        fleet = json.loads((out / "fleet.json").read_text())
        dropped = fleet["cells"].pop(2)
        (out / "fleet.json").write_text(json.dumps(fleet))
        result = self.simulate(runner, out)
        assert result.exit_code == 3
        assert "traffic.csv: cell 'cell_0002' is not in" in result.output

        fleet["cells"] += [dropped, {**dropped, "cell_id": "cell_0009"}]
        (out / "fleet.json").write_text(json.dumps(fleet))
        result = self.simulate(runner, out)
        assert result.exit_code == 3
        assert "traffic.csv: no trace for fleet cell 'cell_0009'" in result.output

    def test_assignment_for_unknown_cell_exits_3(self, runner, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["generate", "--cells", "3", "--days", "1", "--out", str(out)])
        (out / "assignment.csv").write_text(
            "cell_id,cluster,hysteresis\ncell_0000,0,4\ncell_0007,1,6\n")
        result = self.simulate(runner, out, "--assignment", str(out / "assignment.csv"))
        assert result.exit_code == 3
        assert "assignment.csv: cell 'cell_0007' is not in" in result.output

    @staticmethod
    def simulate(runner, out, *extra):
        return runner.invoke(main, ["simulate", "--fleet", f"{out}/fleet.json",
                                    "--traffic", f"{out}/traffic.csv", "--hysteresis", "5",
                                    "--timelines", "0", "--out", str(out), *extra])

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

    @pytest.mark.parametrize("text", ['{"schema_version": 1, "rows": [', "{}"],
                             ids=["truncated", "empty_object"])
    def test_bad_summary_exits_3(self, runner, tmp_path, text):
        path = tmp_path / "summary.json"
        path.write_text(text)
        result = runner.invoke(main, ["report", "--summary", str(path)])
        assert result.exit_code == 3
        assert result.output.startswith("error: ")


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": 5, "days": 1, "seed": 21}))
        out_a = tmp_path / "a"
        run_ok(runner, ["generate", "--config", str(cfg), "--out", str(out_a)])
        fleet = json.loads((out_a / "fleet.json").read_text())
        assert len(fleet["cells"]) == 5 and fleet["seed"] == 21
        out_b = tmp_path / "b"
        run_ok(runner, ["generate", "--config", str(cfg), "--cells", "3",
                        "--out", str(out_b)])
        fleet_b = json.loads((out_b / "fleet.json").read_text())
        assert len(fleet_b["cells"]) == 3 and fleet_b["seed"] == 21


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
