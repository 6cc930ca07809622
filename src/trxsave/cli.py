"""Command-line front end: generate | cluster | assign | simulate | report.

One root ``--seed`` drives every random draw; child seeds are split off
deterministically per cell and per clustering restart, so a single integer
reproduces a whole study byte for byte.

Exit codes: 0 success, 2 usage or configuration, 3 data or parse, 4 internal
invariant violation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from pathlib import Path
from typing import Iterator, Optional

import click
import numpy as np

from . import analytics, evaluator, parts, traffic, tuner
from .cell_model import CellConfig, check_cell_id
from .errors import ConfigurationError, DataError, InvariantError
from .saving_engine import PowerSavingParams, validate_params

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4

FLEET_SCHEMA_VERSION = 1

# seed split domains
_SEED_TRACE = 1
_SEED_TIER = 2


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigurationError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except DataError as exc:
            _fail(EXIT_DATA, str(exc))
        except InvariantError as exc:
            _fail(EXIT_INVARIANT, str(exc))
        except OSError as exc:
            _fail(EXIT_DATA, str(exc))
    return wrapper


def apply_config_file(ctx: click.Context, param: click.Parameter, value):
    """Fill defaults from a JSON config file; explicit flags win."""
    if value is None:
        return None
    try:
        data = traffic.read_json(value)
    except (DataError, OSError) as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config file {value} must hold a JSON object")
    # config keys may use either the flag spelling (--cells) or the parameter name
    key_to_name = {}
    for p in ctx.command.params:
        key_to_name[p.name] = p.name
        for opt in getattr(p, "opts", []):
            key_to_name[opt.lstrip("-").replace("-", "_")] = p.name
    defaults = dict(ctx.default_map or {})
    for key, val in data.items():
        name = key_to_name.get(key.replace("-", "_"))
        if name is None:
            raise click.UsageError(f"unknown config key {key!r} in {value}")
        defaults.setdefault(name, val)
    ctx.default_map = defaults
    return value


config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), callback=apply_config_file,
    is_eager=True, expose_value=False,
    help="JSON file with default option values (explicit flags win).",
)


@click.group()
@click.version_option(package_name="trxsave")
def main() -> None:
    """BTS power-saving simulator and hysteresis tuning pipeline."""


# ---------------------------------------------------------------------------
# Fleet generation

# tier name -> (share, num_trx, base range, peak range, sigma range)
FLEET_TIERS = {
    "low": (0.34, 3, (0.05, 0.4), (1.5, 3.0), (0.10, 0.30)),
    "medium": (0.26, 3, (0.5, 1.2), (4.5, 6.5), (0.20, 0.50)),
    "high": (0.24, 4, (7.0, 8.5), (10.5, 13.0), (0.20, 0.50)),
    "saturated": (0.16, 4, (31.0, 33.0), (34.0, 38.0), (0.10, 0.30)),
}


def demo_fleet(
    n_cells: int, days: int, seed: int, scan_period_s: float = 10.0
) -> Iterator[tuple[dict, traffic.TrafficTrace, traffic.KpiRecord]]:
    """Deterministic desk-scale fleet, one (cell config, trace, synthetic KPIs) at a time.

    Cells fall into four traffic tiers (low, medium, high, saturated); the
    saturated tier offers more Erlang than it has traffic channels at every
    scan, modelling permanently congested sites. The arguments are checked
    before the first cell is built.
    """
    _check_fleet_args(n_cells, days, scan_period_s)
    return _demo_cells(n_cells, days, seed, scan_period_s, range(n_cells))


def _check_fleet_args(n_cells: int, days: int, scan_period_s: float) -> None:
    if n_cells < 1:
        raise ConfigurationError(f"need at least 1 cell, got {n_cells}")
    if days < 1:
        raise ConfigurationError(f"need at least 1 day, got {days}")
    # every cell's profile shares the days and the scan period
    traffic.DiurnalProfileSpec(0.0, 0.0, days=days, scan_period_s=scan_period_s).validate()


def _demo_cells(
    n_cells: int, days: int, seed: int, scan_period_s: float, indices: range
) -> Iterator[tuple[dict, traffic.TrafficTrace, traffic.KpiRecord]]:
    """The cells ``indices`` of the ``n_cells`` fleet; each draws only from seeds of
    its own index, so a cell is the same whichever range builds it."""
    counts = {}
    remaining = n_cells
    names = list(FLEET_TIERS)
    for name in names[1:]:
        counts[name] = int(round(FLEET_TIERS[name][0] * n_cells))
        remaining -= counts[name]
    counts[names[0]] = max(0, remaining)
    tiers = [tier for tier in names for _ in range(counts[tier])]

    for index in indices:
        tier = tiers[index]
        share, num_trx, base_rng, peak_rng, sigma_rng = FLEET_TIERS[tier]
        cell_id = f"cell_{index:04d}"
        rng = np.random.default_rng(analytics.child_seed(seed, _SEED_TIER, index))
        base = float(rng.uniform(*base_rng))
        peak = float(rng.uniform(*peak_rng))
        sigma = float(rng.uniform(*sigma_rng))
        spec = traffic.DiurnalProfileSpec(
            base_erlang=base,
            peak_erlang=peak,
            peak_hour=int(rng.integers(11, 20)),
            trough_hour=int(rng.integers(2, 5)),
            noise_sigma=sigma,
            days=days,
            seed=analytics.child_seed(seed, _SEED_TRACE, index),
            scan_period_s=scan_period_s,
        )
        config = CellConfig(cell_id=cell_id, num_trx=num_trx, cch_slots=3)
        trace = traffic.generate_diurnal_trace(spec, cell_id=cell_id)
        cell = {"cell_id": cell_id, "num_trx": num_trx, "cch_slots": 3, "tier": tier}
        yield cell, trace, traffic.trace_to_kpis(trace, config)


def build_demo_fleet(
    n_cells: int, days: int, seed: int, scan_period_s: float = 10.0
) -> tuple[list[dict], list[traffic.TrafficTrace], list[traffic.KpiRecord]]:
    """``demo_fleet`` collected: cell configs, traces, synthetic KPIs."""
    cells, traces, kpis = [], [], []
    for cell, trace, kpi in demo_fleet(n_cells, days, seed, scan_period_s):
        cells.append(cell)
        traces.append(trace)
        kpis.append(kpi)
    return cells, traces, kpis


def write_fleet_json(path: Path, cells: list[dict], seed: int, days: int,
                     scan_period_s: float) -> None:
    doc = {
        "schema_version": FLEET_SCHEMA_VERSION,
        "synthetic": True,
        "seed": seed,
        "days": days,
        "scan_period_s": scan_period_s,
        "cells": cells,
    }
    traffic.write_json(doc, path)


def read_fleet_json(path: Path) -> dict:
    """Read fleet.json: a finite scan_period_s > 0 (10 s when absent), and per cell a
    unique valid cell_id and integer num_trx, cch_slots."""
    doc = traffic.read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise DataError(f"{path}: missing 'cells' list")
    period = doc.setdefault("scan_period_s", 10.0)
    if (not isinstance(period, (int, float)) or isinstance(period, bool)
            or not math.isfinite(period) or period <= 0):
        raise DataError(f"{path}: scan_period_s must be a finite number > 0, got {period!r}")
    seen = set()
    for index, cell in enumerate(doc["cells"]):
        cell_id = cell.get("cell_id") if isinstance(cell, dict) else None
        if not isinstance(cell_id, str):
            raise DataError(f"{path}: cells[{index}] has no string 'cell_id'")
        check_cell_id(cell_id, f"{path}: cells[{index}]")
        if cell_id in seen:
            raise DataError(f"{path}: duplicate cell_id {cell_id!r}")
        seen.add(cell_id)
        for key in ("num_trx", "cch_slots"):
            value = cell.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DataError(
                    f"{path}: cell {cell_id!r}: {key} must be an integer, got {value!r}"
                )
    return doc


@main.command()
@config_option
@click.option("--cells", "n_cells", type=int, default=12, show_default=True,
              help="Number of cells in the fleet.")
@click.option("--days", type=int, default=2, show_default=True,
              help="Simulated days per trace.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--scan-period", type=float, default=10.0, show_default=True,
              help="Seconds between scans.")
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
@handle_errors
def generate(n_cells: int, days: int, seed: int, scan_period: float, out: str) -> None:
    """Write a synthetic fleet: traffic.csv, then fleet.json, kpis.csv.

    The cells are cut into one contiguous range per usable CPU, each built and
    written by its own process (``parts.run_parts``) one cell at a time: the
    first range into traffic.csv, each other into a hidden part file in
    --out whose rows are then appended in order. The files written, and any
    error, do not depend on the CPU count.
    """
    _check_fleet_args(n_cells, days, scan_period)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "traffic.csv"

    def part_file(cells: range) -> Path:
        return dest if cells.start == 0 else out_dir / f".traffic.csv.part-{cells.start}"

    def write_part(cells: range) -> list[tuple[dict, traffic.KpiRecord]]:
        built = []

        def traces() -> Iterator[traffic.TrafficTrace]:
            for cell, trace, kpi in _demo_cells(n_cells, days, seed, scan_period, cells):
                built.append((cell, kpi))
                yield trace

        traffic.write_traffic_csv(traces(), part_file(cells))
        return built

    def write_parts(ranges: list[range]) -> list[tuple[dict, traffic.KpiRecord]]:
        files = [part_file(cells) for cells in ranges[1:]]
        try:
            built = parts.run_parts(write_part, ranges)
            traffic.append_traffic_rows(dest, files)
        finally:
            for path in files:
                path.unlink(missing_ok=True)
        return [cell for part in built for cell in part]

    built = parts.serial_on_failure(write_parts, parts.ranges(n_cells, parts.cpus()),
                                    range(n_cells))
    write_fleet_json(out_dir / "fleet.json", [cell for cell, _ in built], seed, days, scan_period)
    traffic.emit_kpi_csv([kpi for _, kpi in built], out_dir / "kpis.csv")
    click.echo(f"wrote {len(built)} cells x {days} day(s) to {out_dir}")


# ---------------------------------------------------------------------------
# Clustering


@main.command()
@config_option
@click.option("--kpi", "kpi_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--k", type=int, default=None,
              help="Pin the cluster count instead of taking the silhouette argmax; "
                   "elbow.csv and silhouette.csv are still written.")
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max", type=int, default=9, show_default=True)
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
@handle_errors
def cluster(kpi_path: str, k: Optional[int], k_min: int, k_max: int,
            restarts: int, seed: int, out: str) -> None:
    """Standardize, reduce to 3 features, cluster; write clusters/elbow/silhouette CSVs."""
    if restarts < 1:
        raise ConfigurationError(f"--restarts must be >= 1, got {restarts}")
    records = traffic.ingest_kpi_csv(kpi_path)
    matrix = analytics.kpi_feature_matrix(records)
    standardized, _ = analytics.standardize(matrix)
    reduced, _ = analytics.pca_reduce(standardized, n_components=3)

    n = reduced.n_rows
    if k is not None and not 1 <= k <= n:
        raise ConfigurationError(f"--k {k} must be in [1, {n}]")
    if not 2 <= k_min <= min(k_max, n):
        raise ConfigurationError(
            f"--k-min {k_min} and --k-max {k_max} need 2 <= --k-min <= min(--k-max, {n} cells)")

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    elbow_ks = range(1, min(10, n) + 1)
    sel_ks = range(k_min, min(k_max, n) + 1)
    pinned = [] if k is None else [k]
    fits = analytics.fit_k_range(reduced, [*elbow_ks, *sel_ks, *pinned],
                                 restarts=restarts, seed=seed)

    elbow = analytics.elbow_curve({j: fits[j] for j in elbow_ks})
    analytics.write_elbow_csv(elbow, out_dir / "elbow.csv")
    # one distance pass scores the curve and a pinned k off it; a pinned k then
    # overrides the selection, so the curve's argmax is taken only when none is
    scored = {j: fits[j] for j in [*sel_ks, *pinned] if j >= 2}
    selection = analytics.select_k(reduced, scored)
    sil_of = dict(selection.curve)
    analytics.write_silhouette_csv([(j, sil_of[j]) for j in sel_ks], out_dir / "silhouette.csv")

    chosen = selection.best_result if k is None else fits[k]
    analytics.write_clusters_csv(reduced.row_ids, chosen.labels, out_dir / "clusters.csv")

    sil = sil_of.get(chosen.k, 0.0)  # k = 1 has no silhouette
    traffic.write_json({
        "schema_version": 1,
        "seed": seed,
        "restarts": restarts,
        "k": chosen.k,
        "sse": chosen.sse,
        "silhouette": sil,
        "iterations": chosen.iterations,
        "suggested_knee": elbow.suggested_knee,
    }, out_dir / "clustering.json")
    click.echo(f"clustered {reduced.n_rows} cells into k={chosen.k} (silhouette {sil:.4f})")


@main.command()
@config_option
@click.option("--clusters", "clusters_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--kpi", "kpi_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--policy", default="4,6,12", show_default=True,
              help="Comma-separated hysteresis values, least severe cluster first.")
@click.option("--severity", type=click.Choice(["traffic", "composite"]), default="traffic",
              show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
@handle_errors
def assign(clusters_path: str, kpi_path: str, policy: str, severity: str, out: str) -> None:
    """Map clusters to hysteresis values; write assignment.csv and param_push.csv."""
    try:
        values = tuple(int(v) for v in policy.split(","))
    except ValueError:
        raise ConfigurationError(f"bad --policy {policy!r}: expected comma-separated integers")
    labels = analytics.read_clusters_csv(clusters_path)
    records = traffic.ingest_kpi_csv(kpi_path)
    by_id = {r.cell_id: r for r in records}
    missing = [c for c in labels if c not in by_id]
    if missing:
        raise DataError(f"cells in cluster CSV missing from KPI CSV: {missing[:5]}")

    ordered = [by_id[c] for c in labels]
    profiles = tuner.profile_clusters(np.asarray([labels[r.cell_id] for r in ordered]), ordered)
    assignment = tuner.rank_and_assign(
        profiles, tuner.HysteresisPolicy(values=values, severity=severity), labels
    )

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tuner.write_assignment_csv(assignment, out_dir / "assignment.csv")
    tuner.write_push_csv(assignment, out_dir / "param_push.csv")
    click.echo(f"assigned hysteresis for {len(assignment.hysteresis)} cells")


# ---------------------------------------------------------------------------
# Simulation


def _load_scenario(
    fleet_path: str,
    assignment_path: Optional[str],
    default_hysteresis: Optional[int],
    params: PowerSavingParams,
    warmup_days: float,
) -> tuple[evaluator.NetworkScenario, float]:
    """The fleet's scenario and scan period; assignment.csv may name only fleet cells."""
    if not math.isfinite(warmup_days):
        raise ConfigurationError(f"--warmup-days must be a finite number, got {warmup_days}")
    if warmup_days < 0:
        raise ConfigurationError(f"--warmup-days must be >= 0, got {warmup_days}")
    fleet = read_fleet_json(Path(fleet_path))
    scan_period = float(fleet["scan_period_s"])
    cells = [CellConfig(c["cell_id"], c["num_trx"], c["cch_slots"]) for c in fleet["cells"]]
    hysteresis = {}
    if assignment_path:
        hysteresis = dict(tuner.read_assignment_csv(assignment_path).hysteresis)
        fleet_ids = {c.cell_id for c in cells}
        stray = next((c for c in hysteresis if c not in fleet_ids), None)
        if stray is not None:
            raise DataError(f"{assignment_path}: cell {stray!r} is not in {fleet_path}")
    scenario = evaluator.NetworkScenario(
        cells=cells,
        base_params=params,
        hysteresis=hysteresis,
        default_hysteresis=default_hysteresis,
        warmup_scans=int(round(warmup_days * 86400 / scan_period)),
    )
    return scenario, scan_period


@main.command()
@config_option
@click.option("--fleet", "fleet_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--traffic", "traffic_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--assignment", "assignment_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Per-cell hysteresis CSV from the assign step.")
@click.option("--hysteresis", type=int, default=None,
              help="Default hysteresis for cells without an assignment.")
@click.option("--off-target", type=int, default=50, show_default=True)
@click.option("--on-target", type=int, default=49, show_default=True)
@click.option("--off-delay", type=int, default=30, show_default=True)
@click.option("--ps", type=click.Choice(["both", "on", "off"]), default="both", show_default=True)
@click.option("--warmup-days", type=float, default=0.0, show_default=True,
              help="Days excluded from statistics (cold-start ramp).")
@click.option("--timelines", default="8", show_default=True,
              help="How many per-cell timeline CSVs to write ('all' or a count).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Recorded in the report metadata for provenance; the replay is deterministic.")
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
@handle_errors
def simulate(fleet_path: str, traffic_path: str, assignment_path: Optional[str],
             hysteresis: Optional[int], off_target: int, on_target: int, off_delay: int,
             ps: str, warmup_days: float, timelines: str, seed: int, out: str) -> None:
    """Run the fleet with/without power saving and write comparison reports."""
    if timelines != "all" and not timelines.isdecimal():  # what int() reads
        raise ConfigurationError(f"--timelines must be 'all' or a count >= 0, got {timelines!r}")
    if assignment_path is None and hysteresis is None:
        hysteresis = PowerSavingParams().hysteresis
    params = validate_params(PowerSavingParams(
        trx_off_target=off_target, trx_on_target=on_target, trx_off_delay=off_delay,
        hysteresis=PowerSavingParams().hysteresis,
    ))
    scenario, scan_period = _load_scenario(
        fleet_path, assignment_path, hysteresis, params, warmup_days,
    )
    n_timelines = len(scenario.cells) if timelines == "all" else int(timelines)
    out_dir = Path(out)
    modes = ("off", "on") if ps == "both" else (ps,)
    reports = evaluator.simulate_csv(scenario, traffic_path, scan_period, modes,
                                     out_dir / "timelines", n_timelines)
    out_dir.mkdir(parents=True, exist_ok=True)

    metadata = {
        "seed": seed,
        "warmup_scans": scenario.warmup_scans,
        "params": dataclasses.asdict(params),
        "default_hysteresis": hysteresis,
        "n_cells": len(scenario.cells),
    }
    if ps == "both":
        summary = evaluator.compare(reports["on"], reports["off"], metadata)
        evaluator.emit_report(summary, out_dir)
        click.echo(f"active TRX reduction: {summary.reduction_pct:.1f}%")
        click.echo(f"blocking delta: {summary.blocking_delta:+d}")
    else:
        report = reports[ps]
        traffic.write_json({**dataclasses.asdict(report), "metadata": metadata},
                           out_dir / f"report_{ps}.json")
        click.echo(f"ps={ps}: {report.trx_scans} active TRX-scans over {len(scenario.cells)} cells")


@main.command()
@config_option
@click.option("--summary", "summary_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@handle_errors
def report(summary_path: str) -> None:
    """Pretty-print a summary.json produced by simulate."""
    summary = evaluator.read_summary_json(summary_path)
    click.echo(f"{'cell_id':<12} {'ts_before':>9} {'max_ts_after':>12}")
    for row in summary.rows:
        click.echo(f"{row.cell_id:<12} {row.ts_before:>9} {row.max_ts_after:>12}")
    click.echo(f"total active TRX-scans without saving: {summary.trx_scans_without}")
    click.echo(f"total active TRX-scans with saving:    {summary.trx_scans_with}")
    click.echo(f"active TRX reduction: {summary.reduction_pct:.1f}%")
    click.echo(f"blocking delta: {summary.blocking_delta:+d}")


if __name__ == "__main__":
    main()
