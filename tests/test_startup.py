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
from click.testing import CliRunner

import trxsave
from trxsave.cli import main
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


@pytest.mark.parametrize("args", [(), ("--help",), ("--version",)],
                         ids=["import", "help", "version"])
def test_the_command_line_loads_no_pipeline_module(tmp_path, args):
    modules = loaded(tmp_path, *args)
    assert "trxsave.cli" in modules
    assert modules & PIPELINE == set()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """kpis.csv and clusters.csv of eight cells in two clusters, and the
    fleet.json and traffic.csv of a generated two-cell, one-day fleet."""
    path = tmp_path_factory.mktemp("inputs")
    emit_kpi_csv([KpiRecord(f"c{i}", 1.0 + 3 * (i % 2) + i / 10, 130.0 - i, 0.01 * i, 2.0 * i, 24)
                  for i in range(8)], path / "kpis.csv")
    write_csv(path / "clusters.csv", CLUSTERS_CSV_HEADER, [(f"c{i}", i % 2) for i in range(8)])
    result = CliRunner().invoke(main, ["generate", "--cells", "2", "--days", "1",
                                       "--out", str(path / "fleet")])
    assert result.exit_code == 0, result.output
    return path


# stage -> (its arguments, "{inputs}" and "{out}" to be filled in; the file it
# writes; modules it runs; modules it must not load)
STAGES = {
    # its cells seed from parts.child_seed
    "generate": (["generate", "--cells", "2", "--days", "1", "--out", "{out}"],
                 "traffic.csv", {"trxsave.parts", "trxsave.traffic"}, {"trxsave.analytics"}),
    # its k-means restarts and silhouette blocks run as parts
    "cluster": (["cluster", "--kpi", "{inputs}/kpis.csv", "--k", "2", "--out", "{out}"],
                "clusters.csv", {"trxsave.analytics", "trxsave.parts"},
                ENGINE - {"trxsave.parts"}),
    "assign": (["assign", "--clusters", "{inputs}/clusters.csv", "--kpi", "{inputs}/kpis.csv",
                "--policy", "4,12", "--out", "{out}"],
               "assignment.csv", {"trxsave.tuner"}, PIPELINE),
    "simulate": (["simulate", "--fleet", "{inputs}/fleet/fleet.json",
                  "--traffic", "{inputs}/fleet/traffic.csv", "--out", "{out}"],
                 "summary.json", ENGINE, {"trxsave.analytics"}),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_each_stage_loads_only_its_modules(tmp_path, inputs, stage):
    args, written, runs, never = STAGES[stage]
    out = tmp_path / "out"
    modules = loaded(tmp_path, *(a.format(inputs=inputs, out=out) for a in args))
    assert (out / written).is_file()
    assert runs <= modules
    assert modules & never == set()


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
