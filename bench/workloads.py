"""Benchmark workloads: inputs made from a seed, CLI stages, output checks.

Each workload runs ``python -m trxsave.cli`` stages one after another, the
way operators run the tool. Inputs depend only on the seed; the program sees
only the generated files and the CLI options below.

Importing this module imports ``trxsave``, so the caller puts the
repository's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from trxsave import cli, traffic
from trxsave.cell_model import CellConfig, MappingStrategy, build_cell, place_calls
from trxsave.saving_engine import PowerSavingParams, SavingState, apply_action, scan_step

ARTIFACTS = {
    "generate": ("fleet.json", "traffic.csv", "kpis.csv"),
    "cluster": ("clusters.csv", "elbow.csv", "silhouette.csv", "clustering.json"),
    "assign": ("assignment.csv", "param_push.csv"),
    "simulate": ("comparison.csv", "summary.json"),
}
STAGE_OF_ARTIFACT = {name: stage for stage, names in ARTIFACTS.items() for name in names}
STAGE_OF_ARTIFACT["timelines"] = "simulate"

SLOTS_PER_TRX = 8


@dataclass
class Context:
    """Directories and seed of one benchmark run; ``keep`` holds set-up data for checks."""

    inputs: Path
    out: Path
    seed: int
    keep: dict = field(default_factory=dict)


Stage = tuple[str, Callable[[Context], list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    setup: Callable[[Context], None]
    stages: tuple[Stage, ...]
    check: Callable[[Context], list[tuple[str, str]]]  # (stage, failure message)
    # a slower check, made once per run outside the timed region
    first_rep_check: Callable[[Context], list[tuple[str, str]]] | None = None


# ---------------------------------------------------------------------------
# Shared checks


def _missing_artifacts(ctx: Context, stages) -> list[tuple[str, str]]:
    return [
        (stage, f"{stage} did not write {name}")
        for stage in stages
        for name in ARTIFACTS[stage]
        if not (ctx.out / name).is_file()
    ]


def _count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def _check_summary(ctx: Context, cells: list[dict], measured_scans: int) -> list[tuple[str, str]]:
    """``trx_scans_without`` is exact TRX-scan arithmetic; saving never blocks less."""
    summary = json.loads((ctx.out / "summary.json").read_text(encoding="utf-8"))
    failures = []
    expected = sum(int(c["num_trx"]) * measured_scans for c in cells)
    if summary["trx_scans_without"] != expected:
        failures.append(("simulate", f"trx_scans_without {summary['trx_scans_without']} "
                                     f"!= sum(num_trx x measured scans) {expected}"))
    if summary["blocked_with"] < summary["blocked_without"]:
        failures.append(("simulate", f"blocked_with {summary['blocked_with']} "
                                     f"< blocked_without {summary['blocked_without']}"))
    return failures


# ---------------------------------------------------------------------------
# fleet-bundled: acceptance criterion 4, step for step

FLEET_CELLS = 100
FLEET_DAYS = 6
FLEET_WARMUP_DAYS = 1


def _fleet_check(ctx: Context) -> list[tuple[str, str]]:
    failures = _missing_artifacts(ctx, ARTIFACTS)
    if failures:
        return failures
    fleet = json.loads((ctx.out / "fleet.json").read_text(encoding="utf-8"))
    scans_per_day = int(round(86400 / fleet["scan_period_s"]))
    scans = FLEET_DAYS * scans_per_day
    rows = _count_lines(ctx.out / "traffic.csv") - 1
    if len(fleet["cells"]) != FLEET_CELLS or rows != FLEET_CELLS * scans:
        failures.append(("generate", f"traffic.csv has {rows} rows for "
                                     f"{len(fleet['cells'])} cells x {scans} scans"))
        return failures
    failures += _check_summary(ctx, fleet["cells"], scans - FLEET_WARMUP_DAYS * scans_per_day)
    reduction = json.loads((ctx.out / "summary.json").read_text(encoding="utf-8"))["reduction_pct"]
    if not 15.0 <= reduction <= 30.0:
        failures.append(("simulate", f"reduction_pct {reduction} outside the 15-30 % band"))
    return failures


FLEET_BUNDLED = Workload(
    name="fleet-bundled",
    why="criterion 4's pipeline on the 100-cell x 6-day fleet: text I/O and the engine "
        "dominate, clustering at n=100 is cheap, switch events are sparse",
    default_seed=11,
    setup=lambda ctx: None,
    stages=(
        ("generate", lambda c: ["--cells", str(FLEET_CELLS), "--days", str(FLEET_DAYS),
                                "--seed", str(c.seed), "--out", str(c.out)]),
        ("cluster", lambda c: ["--kpi", str(c.out / "kpis.csv"), "--k", "3",
                               "--seed", str(c.seed), "--out", str(c.out)]),
        ("assign", lambda c: ["--clusters", str(c.out / "clusters.csv"),
                              "--kpi", str(c.out / "kpis.csv"), "--policy", "4,6,12",
                              "--out", str(c.out)]),
        ("simulate", lambda c: ["--fleet", str(c.out / "fleet.json"),
                                "--traffic", str(c.out / "traffic.csv"),
                                "--assignment", str(c.out / "assignment.csv"),
                                "--warmup-days", str(FLEET_WARMUP_DAYS), "--timelines", "0",
                                "--seed", str(c.seed), "--out", str(c.out)]),
    ),
    check=_fleet_check,
)


# ---------------------------------------------------------------------------
# cluster-2k: silhouette model selection on 2,000 demo-fleet cells

CLUSTER_CELLS = 2000


def _cluster_setup(ctx: Context) -> None:
    _, _, kpis = cli.build_demo_fleet(CLUSTER_CELLS, 1, ctx.seed)
    traffic.emit_kpi_csv(kpis, ctx.inputs / "kpis.csv")


def _policy_for_chosen_k(ctx: Context) -> str:
    """One hysteresis per cluster, spread evenly over 4..12, as an operator would pick."""
    k = json.loads((ctx.out / "clustering.json").read_text(encoding="utf-8"))["k"]
    if k == 1:
        return "4"
    return ",".join(str(round(4 + 8 * i / (k - 1))) for i in range(k))


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _cluster_check(ctx: Context) -> list[tuple[str, str]]:
    failures = _missing_artifacts(ctx, ("cluster", "assign"))
    if failures:
        return failures
    if len(_read_rows(ctx.out / "clusters.csv")) != CLUSTER_CELLS:
        failures.append(("cluster", f"clusters.csv does not have {CLUSTER_CELLS} rows"))
    curve = [(int(k), float(s)) for k, s in _read_rows(ctx.out / "silhouette.csv")]
    best_k = max(curve, key=lambda ks: (ks[1], -ks[0]))[0]  # ties go to the smaller k
    chosen = json.loads((ctx.out / "clustering.json").read_text(encoding="utf-8"))["k"]
    if chosen != best_k:
        failures.append(("cluster", f"chose k={chosen}, silhouette argmax is k={best_k}"))
    if len(_read_rows(ctx.out / "assignment.csv")) != CLUSTER_CELLS:
        failures.append(("assign", f"assignment.csv does not have {CLUSTER_CELLS} rows"))
    return failures


CLUSTER_2K = Workload(
    name="cluster-2k",
    why="silhouette selection over k=2..9 on 2,000 cells: analytics does the work, "
        "traffic CSV I/O and the engine do none",
    default_seed=5,
    setup=_cluster_setup,
    stages=(
        ("cluster", lambda c: ["--kpi", str(c.inputs / "kpis.csv"), "--seed", str(c.seed),
                               "--out", str(c.out)]),
        ("assign", lambda c: ["--clusters", str(c.out / "clusters.csv"),
                              "--kpi", str(c.inputs / "kpis.csv"),
                              "--policy", _policy_for_chosen_k(c), "--out", str(c.out)]),
    ),
    check=_cluster_check,
)


# ---------------------------------------------------------------------------
# bursty-churn: regime-switching load, about 1000x denser switch events

BURSTY_CELLS = 100
BURSTY_DAYS = 2
BURSTY_TRX = 4
BURSTY_PARAMS = PowerSavingParams(
    trx_off_target=20, trx_on_target=20, trx_off_delay=6, hysteresis=1,
)
SCAN_PERIOD_S = 10.0
MEAN_REGIME_SCANS = 40


def bursty_traces(seed: int, n_cells: int, days: int) -> list[traffic.TrafficTrace]:
    """Quiet and busy regimes of geometric length plus Gaussian noise, per cell."""
    rng = np.random.default_rng(seed)
    n = int(days * 86400 / SCAN_PERIOD_S)
    traces = []
    for i in range(n_cells):
        quiet = rng.uniform(0.5, 3.0)
        busy = rng.uniform(22.0, 34.0)  # above the 29 TCH of four TRXs at times
        sigma = rng.uniform(0.5, 1.5)
        lengths = rng.geometric(1.0 / MEAN_REGIME_SCANS, size=n)  # far more than needed
        lengths = lengths[: int(np.searchsorted(np.cumsum(lengths), n)) + 1]
        start_busy = int(rng.integers(2))
        levels = np.where((np.arange(len(lengths)) + start_busy) % 2 == 1, busy, quiet)
        load = np.repeat(levels, lengths)[:n] + rng.normal(0.0, sigma, size=n)
        samples = np.round(np.maximum(load, 0.0), 6)
        traces.append(traffic.TrafficTrace(f"cell_{i:04d}", SCAN_PERIOD_S, samples))
    return traces


def _bursty_setup(ctx: Context) -> None:
    traces = bursty_traces(ctx.seed, BURSTY_CELLS, BURSTY_DAYS)
    cells = [{"cell_id": t.cell_id, "num_trx": BURSTY_TRX, "cch_slots": 3, "tier": "bursty"}
             for t in traces]
    cli.write_fleet_json(ctx.inputs / "fleet.json", cells, ctx.seed, BURSTY_DAYS, SCAN_PERIOD_S)
    traffic.write_traffic_csv(traces, ctx.inputs / "traffic.csv")
    ctx.keep["traces"] = traces
    ctx.keep["cells"] = cells


def _bursty_check(ctx: Context) -> list[tuple[str, str]]:
    failures = _missing_artifacts(ctx, ("simulate",))
    if failures:
        return failures
    cells = ctx.keep["cells"]
    written = {p.name for p in (ctx.out / "timelines").glob("*.csv")}
    expected = {f"{c['cell_id']}_{mode}.csv" for c in cells for mode in ("on", "off")}
    if written != expected:
        failures.append(("simulate", f"timelines/ holds {len(written)} of "
                                     f"{len(expected)} expected CSVs"))
    scans = len(ctx.keep["traces"][0].samples)
    return failures + _check_summary(ctx, cells, scans)


def _replay_active_ts(config: CellConfig, samples: np.ndarray) -> list[int]:
    """Active slots per scan from the step functions, the engine's executable spec."""
    cell = build_cell(config)
    saving = SavingState()
    active = []
    for demand in traffic.demand_series(samples):
        cell, _ = place_calls(cell, int(demand), MappingStrategy.packed())
        saving, action = scan_step(cell, saving, BURSTY_PARAMS)
        cell = apply_action(cell, action)
        active.append(cell.enabled_trx_count * SLOTS_PER_TRX)
    return active


def engine_differential(ctx: Context, n_cells: int = 2) -> list[tuple[str, str]]:
    """Replay seed-chosen cells through scan_step/apply_action; compare timeline CSVs exactly."""
    logging.getLogger("trxsave").setLevel(logging.ERROR)  # deferred disables log per scan
    traces = ctx.keep["traces"]
    picks = np.random.default_rng(ctx.seed).choice(len(traces), size=n_cells, replace=False)
    failures = []
    for index in sorted(int(i) for i in picks):
        trace = traces[index]
        config = CellConfig(trace.cell_id, BURSTY_TRX, 3)
        rows = _read_rows(ctx.out / "timelines" / f"{trace.cell_id}_on.csv")
        scans = [int(r[0]) for r in rows]
        erlang = np.array([float(r[1]) for r in rows])
        active = [int(r[2]) for r in rows]
        if scans != list(range(len(trace.samples))) or not np.array_equal(erlang, trace.samples):
            failures.append(("simulate", f"{trace.cell_id}_on.csv does not replay its input trace"))
        elif active != _replay_active_ts(config, trace.samples):
            failures.append(("simulate", f"{trace.cell_id}: engine active_ts differs from "
                                         "scan_step/apply_action"))
    return failures


BURSTY_CHURN = Workload(
    name="bursty-churn",
    why="regime-switching load on 4-TRX cells with short targets: switch events about "
        "1000x denser than fleet-bundled, and every timeline CSV is written",
    default_seed=3,
    setup=_bursty_setup,
    stages=(
        ("simulate", lambda c: ["--fleet", str(c.inputs / "fleet.json"),
                                "--traffic", str(c.inputs / "traffic.csv"),
                                "--hysteresis", str(BURSTY_PARAMS.hysteresis),
                                "--off-target", str(BURSTY_PARAMS.trx_off_target),
                                "--on-target", str(BURSTY_PARAMS.trx_on_target),
                                "--off-delay", str(BURSTY_PARAMS.trx_off_delay),
                                "--timelines", "all", "--seed", str(c.seed),
                                "--out", str(c.out)]),
    ),
    check=_bursty_check,
    first_rep_check=engine_differential,
)

WORKLOADS = {w.name: w for w in (FLEET_BUNDLED, CLUSTER_2K, BURSTY_CHURN)}
