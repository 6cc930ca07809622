"""Each CLI stage loads only the modules it runs.

Every case runs in a fresh interpreter, as ``python -m trxsave.cli`` does, so
the modules that the test process has imported do not count, and reads
``sys.modules`` once the command has returned.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trxsave
from trxsave.tables import CLUSTERS_CSV_HEADER, KpiRecord, emit_kpi_csv, write_csv

SRC = str(Path(trxsave.__file__).parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

# what only generate, cluster and simulate run
PIPELINE = {"numpy", "trxsave.analytics", "trxsave.evaluator", "trxsave.saving_engine",
            "trxsave.parts", "trxsave.traffic"}
ENGINE = {"trxsave.evaluator", "trxsave.saving_engine", "trxsave.parts", "trxsave.traffic"}

# imports trxsave.cli, runs the command line after the report path, if any,
# and writes the exit code and the loaded modules to the report
PROBE = """
import json, sys
import trxsave.cli
code = 0
if len(sys.argv) > 2:
    try:
        trxsave.cli.main(sys.argv[2:], prog_name="trxsave")
    except SystemExit as exc:
        code = exc.code
with open(sys.argv[1], "w") as report:
    json.dump({"code": code, "modules": sorted(sys.modules)}, report)
"""


def loaded(tmp_path: Path, *args: str) -> set[str]:
    """The modules loaded once ``trxsave <args>`` has run in a fresh interpreter,
    or once ``trxsave.cli`` is imported when there are no ``args``."""
    report = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(report), *args], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result["code"] in (0, None), proc.stderr
    return set(result["modules"])


def small_tables(tmp_path: Path) -> tuple[Path, Path]:
    """kpis.csv and clusters.csv of eight cells in two clusters."""
    kpis, clusters = tmp_path / "kpis.csv", tmp_path / "clusters.csv"
    emit_kpi_csv([KpiRecord(f"c{i}", 1.0 + 3 * (i % 2) + i / 10, 130.0 - i, 0.01 * i, 2.0 * i, 24)
                  for i in range(8)], kpis)
    write_csv(clusters, CLUSTERS_CSV_HEADER, [(f"c{i}", i % 2) for i in range(8)])
    return kpis, clusters


@pytest.mark.parametrize("args", [(), ("--help",), ("--version",)],
                         ids=["import", "help", "version"])
def test_the_command_line_loads_no_pipeline_module(tmp_path, args):
    modules = loaded(tmp_path, *args)
    assert "trxsave.cli" in modules
    assert modules & PIPELINE == set()


def test_assign_loads_no_numpy(tmp_path):
    kpis, clusters = small_tables(tmp_path)
    modules = loaded(tmp_path, "assign", "--clusters", str(clusters), "--kpi", str(kpis),
                     "--policy", "4,12", "--out", str(tmp_path))
    assert (tmp_path / "assignment.csv").read_text().count("\n") == 9
    assert "trxsave.tuner" in modules
    assert modules & PIPELINE == set()


def test_cluster_loads_no_engine(tmp_path):
    kpis, _ = small_tables(tmp_path)
    modules = loaded(tmp_path, "cluster", "--kpi", str(kpis), "--k", "2", "--out", str(tmp_path))
    assert (tmp_path / "clusters.csv").is_file()
    assert "trxsave.analytics" in modules
    # its k-means restarts and silhouette blocks run as parts
    assert modules & ENGINE == {"trxsave.parts"}


def test_version_from_a_checkout():
    proc = subprocess.run([sys.executable, "-m", "trxsave.cli", "--version"], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == trxsave.__version__ == "0.1.0"


def test_evaluator_compiles_traffic_before_numpy_loads():
    """numpy's import reuses the memory freed by compiling ``traffic`` from source
    only if ``traffic`` comes first (see the comment on evaluator's imports)."""
    started = ("import sys\n"  # the audit event comes as each import starts
               "sys.addaudithook(lambda event, args: event == 'import' and print(args[0]))\n"
               "import trxsave.evaluator")
    proc = subprocess.run([sys.executable, "-c", started], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert modules.index("trxsave.traffic") < modules.index("numpy")
