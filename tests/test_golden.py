"""Golden digests: the sha256 of every artifact of a few small fixed runs.

``golden.json`` pins the bytes of every file the CLI writes in these runs, so
a change that alters any output byte fails here. The runs are made with
``generate`` and ``simulate`` split over 1, 2 and 3 CPUs, and a split that
fails is a failure here, not a reason to run as one part. A change that
alters output on purpose rewrites the file and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from trxsave import parts, traffic
from trxsave.cli import main, write_fleet_json

GOLDEN = Path(__file__).with_name("golden.json")
SEED = "11"


def bursty_traces(n_cells=4, days=1, seed=3):
    """Quiet and busy regimes plus noise on 4-TRX cells: dense switch events, and
    zeros and values under 1e-4 that print in exponent form."""
    rng = np.random.default_rng(seed)
    n = days * 8640
    traces = []
    for i in range(n_cells):
        lengths = rng.geometric(1 / 40, size=n)
        levels = np.where(np.arange(n) % 2 == i % 2, rng.uniform(22, 34), rng.uniform(0.5, 3))
        load = np.repeat(levels, lengths)[:n] + rng.normal(0.0, rng.uniform(0.5, 1.5), n)
        samples = np.round(np.maximum(load, 0.0), 6)
        samples[i::1013] = rng.integers(1, 100, size=len(samples[i::1013])) * 1e-6
        traces.append(traffic.TrafficTrace(f"cell_{i:04d}", 10.0, samples))
    return traces


def run_all(root: Path) -> None:
    """Write every pinned run under ``root``."""
    runner = CliRunner()

    def cli(*args):
        result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output

    pipe = root / "pipeline"
    cli("generate", "--cells", 12, "--days", 2, "--seed", SEED, "--out", pipe)
    cli("cluster", "--kpi", pipe / "kpis.csv", "--k", 3, "--seed", SEED, "--out", pipe)
    cli("assign", "--clusters", pipe / "clusters.csv", "--kpi", pipe / "kpis.csv",
        "--out", pipe)
    inputs = ("--fleet", pipe / "fleet.json", "--traffic", pipe / "traffic.csv",
              "--assignment", pipe / "assignment.csv", "--seed", SEED)
    cli("simulate", *inputs, "--timelines", "all", "--out", pipe)
    for ps in ("on", "off"):
        cli("simulate", *inputs, "--ps", ps, "--timelines", 0, "--out", root / f"ps-{ps}")
    cli("cluster", "--kpi", pipe / "kpis.csv", "--seed", SEED, "--out", root / "cluster-auto")

    bursty = root / "bursty"
    bursty.mkdir()
    traces = bursty_traces()
    cells = [{"cell_id": t.cell_id, "num_trx": 4, "cch_slots": 3, "tier": "bursty"}
             for t in traces]
    write_fleet_json(bursty / "fleet.json", cells, 3, 1, 10.0)
    traffic.write_traffic_csv(traces, bursty / "traffic.csv")
    cli("simulate", "--fleet", bursty / "fleet.json", "--traffic", bursty / "traffic.csv",
        "--hysteresis", 1, "--off-target", 20, "--on-target", 20, "--off-delay", 6,
        "--timelines", "all", "--out", bursty / "out")


def digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def split_over(monkeypatch, cpus: int) -> None:
    """Run each stage as ``cpus`` parts, and give a split's own error."""
    monkeypatch.setattr(parts, "cpus", lambda: cpus)
    monkeypatch.setattr(parts, "serial_on_failure", lambda attempt, split, whole: attempt(split))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_artifact_matches_golden_digests(tmp_path, monkeypatch, cpus):
    split_over(monkeypatch, cpus)
    golden = json.loads(GOLDEN.read_text())
    run_all(tmp_path)
    got = digests(tmp_path)
    changed = sorted(k for k in golden["sha256"].keys() | got.keys()
                     if golden["sha256"].get(k) != got.get(k))
    assert not changed, (
        f"artifacts differ from {GOLDEN.name} (made with {golden['made_with']}, "
        f"running {versions()}): {changed}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp))
        doc = {"made_with": versions(), "sha256": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc['sha256'])} digests to {GOLDEN}", file=sys.stderr)
