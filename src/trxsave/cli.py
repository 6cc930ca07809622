"""Command-line front end: generate | cluster | assign | simulate | report.

One root ``--seed`` drives every random draw; child seeds are split off
deterministically per cell and per clustering restart, so a single integer
reproduces a whole study byte for byte.

Exit codes: 0 ok, 2 usage/configuration, 3 data/parse.

Each command imports the modules it runs inside its body, so a stage loads
only its own code: ``assign`` never loads numpy, ``cluster`` never loads the
engine or the per-scan CSVs, and ``generate`` and ``simulate`` never load
``analytics``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

import click

from . import __version__
from .cell_model import CellConfig, check_cell_id
from .errors import ConfigurationError, DataError

if TYPE_CHECKING:
    from . import evaluator, tables, traffic
    from .saving_engine import PowerSavingParams

EXIT_CONFIG = 2
EXIT_DATA = 3

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
        except OSError as exc:
            _fail(EXIT_DATA, str(exc))
    return wrapper


@click.group()
@click.version_option(version=__version__)
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


def _check_fleet_args(n_cells: int, days: int, scan_period_s: float) -> None:
    from . import traffic

    if n_cells < 1:
        raise ConfigurationError(f"need at least 1 cell, got {n_cells}")
    if days < 1:
        raise ConfigurationError(f"need at least 1 day, got {days}")
    # every cell's profile shares the scan period, which the spec checks
    traffic.DiurnalProfileSpec(0.0, 0.0, scan_period_s=scan_period_s)


def _demo_cells(
    n_cells: int, days: int, seed: int, scan_period_s: float, indices: range
) -> Iterator[tuple[dict, traffic.TrafficTrace, tables.KpiRecord]]:
    """The cells ``indices`` of the ``n_cells`` fleet; each draws only from seeds of
    its own index, so a cell is the same whichever range builds it."""
    import numpy as np

    from . import parts, traffic

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
        rng = np.random.default_rng(parts.child_seed(seed, _SEED_TIER, index))
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
            seed=parts.child_seed(seed, _SEED_TRACE, index),
            scan_period_s=scan_period_s,
        )
        config = CellConfig(cell_id=cell_id, num_trx=num_trx, cch_slots=3)
        trace = traffic.generate_diurnal_trace(spec, cell_id=cell_id)
        cell = {"cell_id": cell_id, "num_trx": num_trx, "cch_slots": 3, "tier": tier}
        yield cell, trace, traffic.trace_to_kpis(trace, config)


def build_demo_fleet(
    n_cells: int, days: int, seed: int
) -> tuple[list[dict], list[traffic.TrafficTrace], list[tables.KpiRecord]]:
    """Deterministic desk-scale fleet: cell configs, traces, synthetic KPIs,
    one scan every 10 s.

    Cells fall into four traffic tiers (low, medium, high, saturated); the
    saturated tier offers more Erlang than it has traffic channels at every
    scan, modelling permanently congested sites. The arguments are checked
    before the first cell is built.
    """
    _check_fleet_args(n_cells, days, 10.0)
    cells, traces, kpis = [], [], []
    for cell, trace, kpi in _demo_cells(n_cells, days, seed, 10.0, range(n_cells)):
        cells.append(cell)
        traces.append(trace)
        kpis.append(kpi)
    return cells, traces, kpis


def write_fleet_json(path: Path, cells: list[dict], seed: int, days: int,
                     scan_period_s: float) -> None:
    from . import tables

    doc = {
        "schema_version": FLEET_SCHEMA_VERSION,
        "synthetic": True,
        "seed": seed,
        "days": days,
        "scan_period_s": scan_period_s,
        "cells": cells,
    }
    tables.write_json(doc, path)


def read_fleet_json(path: Path) -> tuple[float, list[CellConfig]]:
    """The scan period and the cells of fleet.json: a finite scan_period_s > 0
    (10 s when absent), and per cell a unique valid cell_id and integer
    num_trx, cch_slots in the ranges ``CellConfig`` checks."""
    from . import tables

    doc = tables.read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise DataError(f"{path}: missing 'cells' list")
    period = doc.get("scan_period_s", 10.0)
    if (not isinstance(period, (int, float)) or isinstance(period, bool)
            or not math.isfinite(period) or period <= 0):
        raise DataError(f"{path}: scan_period_s must be a finite number > 0, got {period!r}")
    seen = set()
    configs = []
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
        try:
            configs.append(CellConfig(cell_id, cell["num_trx"], cell["cch_slots"]))
        except ConfigurationError as exc:
            raise DataError(f"{path}: {exc}") from None
    return float(period), configs


@main.command()
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
    from . import parts, tables, traffic

    _check_fleet_args(n_cells, days, scan_period)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / "traffic.csv"

    def part_file(cells: range) -> Path:
        return dest if cells.start == 0 else out_dir / f".traffic.csv.part-{cells.start}"

    def write_part(cells: range) -> list[tuple[dict, tables.KpiRecord]]:
        built = []

        def traces() -> Iterator[traffic.TrafficTrace]:
            for cell, trace, kpi in _demo_cells(n_cells, days, seed, scan_period, cells):
                built.append((cell, kpi))
                yield trace

        traffic.write_traffic_csv(traces(), part_file(cells))
        return built

    def write_parts(ranges: list[range]) -> list[tuple[dict, tables.KpiRecord]]:
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
    tables.emit_kpi_csv([kpi for _, kpi in built], out_dir / "kpis.csv")
    click.echo(f"wrote {len(built)} cells x {days} day(s) to {out_dir}")


# ---------------------------------------------------------------------------
# Clustering


@main.command()
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
    """Standardize, reduce to 3 features, cluster; write clusters/elbow/silhouette CSVs.

    The k-means restarts and the silhouette row blocks each run as one part per
    usable CPU (``analytics.fit_k_range``, ``analytics.silhouette_scores``).
    The files written, and any error, do not depend on the CPU count.
    """
    from . import analytics, tables

    if restarts < 1:
        raise ConfigurationError(f"--restarts must be >= 1, got {restarts}")
    records = tables.ingest_kpi_csv(kpi_path)
    cell_ids = [r.cell_id for r in records]
    try:
        standardized = analytics.standardize(analytics.kpi_feature_matrix(records))
    except DataError as exc:
        raise DataError(f"{kpi_path}: {exc}") from None
    del records  # only the features are read from here on: free the rows before fitting
    reduced = analytics.pca_reduce(standardized)

    n = len(reduced)
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
    analytics.write_clusters_csv(cell_ids, chosen.labels, out_dir / "clusters.csv")

    sil = sil_of.get(chosen.k, 0.0)  # k = 1 has no silhouette
    tables.write_json({
        "schema_version": 1,
        "seed": seed,
        "restarts": restarts,
        "k": chosen.k,
        "sse": chosen.sse,
        "silhouette": sil,
        "iterations": chosen.iterations,
        "suggested_knee": elbow.suggested_knee,
    }, out_dir / "clustering.json")
    click.echo(f"clustered {n} cells into k={chosen.k} (silhouette {sil:.4f})")


@main.command()
@click.option("--clusters", "clusters_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--kpi", "kpi_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--policy", default="4,6,12", show_default=True,
              help="Comma-separated hysteresis values, quietest cluster first.")
@click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True)
@handle_errors
def assign(clusters_path: str, kpi_path: str, policy: str, out: str) -> None:
    """Map clusters, ranked by mean traffic, to hysteresis values; write
    assignment.csv and param_push.csv."""
    from . import tables, tuner

    try:
        values = tuple(int(v) for v in policy.split(","))
    except ValueError:
        raise ConfigurationError(f"bad --policy {policy!r}: expected comma-separated integers")
    labels = tables.read_clusters_csv(clusters_path)
    records = tables.ingest_kpi_csv(kpi_path)
    by_id = {r.cell_id: r for r in records}
    missing = next((c for c in labels if c not in by_id), None)
    if missing is not None:
        raise DataError(f"{clusters_path}: cell {missing!r} is not in {kpi_path}")

    ordered = [by_id[c] for c in labels]
    try:
        profiles = tuner.profile_clusters([labels[r.cell_id] for r in ordered], ordered)
    except DataError as exc:  # a gap in the cluster ids, or no rows
        raise DataError(f"{clusters_path}: {exc}") from None
    assignment = tuner.rank_and_assign(profiles, tuner.HysteresisPolicy(values=values), labels)

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
    """The fleet's scenario and scan period; assignment.csv may name only fleet cells.

    Each cell runs with ``params`` and the hysteresis assignment.csv gives it,
    else ``default_hysteresis``, which is checked even when every cell is
    assigned.
    """
    from . import evaluator, tuner

    if not math.isfinite(warmup_days):
        raise ConfigurationError(f"--warmup-days must be a finite number, got {warmup_days}")
    if warmup_days < 0:
        raise ConfigurationError(f"--warmup-days must be >= 0, got {warmup_days}")
    scan_period, cells = read_fleet_json(Path(fleet_path))
    assigned = {}
    if assignment_path:
        assigned = tuner.read_assignment_csv(assignment_path).hysteresis
        fleet_ids = {c.cell_id for c in cells}
        stray = next((c for c in assigned if c not in fleet_ids), None)
        if stray is not None:
            raise DataError(f"{assignment_path}: cell {stray!r} is not in {fleet_path}")
    default = (None if default_hysteresis is None
               else dataclasses.replace(params, hysteresis=default_hysteresis))
    cell_params = {}
    for c in cells:
        if c.cell_id in assigned:
            cell_params[c.cell_id] = dataclasses.replace(params, hysteresis=assigned[c.cell_id])
        elif default is not None:
            cell_params[c.cell_id] = default
    warmup_scans = warmup_days * 86400 / scan_period
    if not math.isfinite(warmup_scans):
        raise ConfigurationError(f"--warmup-days {warmup_days} is too many scans to count "
                                 f"at {scan_period} s a scan")
    scenario = evaluator.NetworkScenario(
        cells=cells, params=cell_params, warmup_scans=int(round(warmup_scans)),
    )
    return scenario, scan_period


@main.command()
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
             warmup_days: float, timelines: str, seed: int, out: str) -> None:
    """Run the fleet with power saving, compare it with every TRX on; write
    comparison.csv and summary.json."""
    from . import evaluator
    from .saving_engine import DECAY_STEP, PowerSavingParams

    if timelines != "all" and not timelines.isdecimal():  # what int() reads
        raise ConfigurationError(f"--timelines must be 'all' or a count >= 0, got {timelines!r}")
    # the fields every cell shares; _load_scenario gives each cell its hysteresis
    params = PowerSavingParams(
        trx_off_target=off_target, trx_on_target=on_target, trx_off_delay=off_delay,
    )
    if assignment_path is None and hysteresis is None:
        hysteresis = params.hysteresis
    scenario, scan_period = _load_scenario(
        fleet_path, assignment_path, hysteresis, params, warmup_days,
    )
    n_timelines = len(scenario.cells) if timelines == "all" else int(timelines)
    out_dir = Path(out)
    cells = evaluator.simulate_csv(scenario, traffic_path, scan_period,
                                   out_dir / "timelines", n_timelines)

    metadata = {
        "seed": seed,
        "warmup_scans": scenario.warmup_scans,
        "scan_period_s": scan_period,
        # each cell ran with its assignment.csv hysteresis or default_hysteresis
        "params": {**{k: v for k, v in dataclasses.asdict(params).items() if k != "hysteresis"},
                   "decay_step": DECAY_STEP},
        "default_hysteresis": hysteresis,
        "n_cells": len(scenario.cells),
    }
    summary = evaluator.compare(cells, metadata)
    evaluator.emit_report(summary, out_dir)
    click.echo(f"active TRX reduction: {summary.reduction_pct:.1f}%")
    click.echo(f"blocking delta: {summary.blocking_delta:+d}")


@main.command()
@click.option("--summary", "summary_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@handle_errors
def report(summary_path: str) -> None:
    """Pretty-print a summary.json produced by simulate."""
    from . import evaluator

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
