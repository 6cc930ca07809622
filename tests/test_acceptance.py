"""Acceptance gate: every release criterion, one test each, printed pass/fail.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite is self-contained and uses only bundled synthetic data.
"""

import csv
import functools
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from trxsave import analytics, tuner
from trxsave.analytics import (
    fit_k_range,
    kmeanspp_seed,
    lloyd,
    pca_reduce,
    run_kmeans,
    select_k,
    silhouette_score,
    standardize,
)
from trxsave.cell_model import SLOTS_PER_TRX, CellConfig
from trxsave.cli import main
from trxsave.saving_engine import DECAY_STEP, PowerSavingParams, run_cell
from trxsave.tables import emit_kpi_csv, ingest_kpi_csv
from trxsave.traffic import TrafficTrace, iter_traffic_span

import oracles
from test_golden import split_over
from test_saving_engine import assert_counter_algebra, assert_replays
from test_traffic import KPI_HEADER, SAMPLE_KPI_ROWS


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {title}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# Bundled fleet pipeline (shared by criteria 4 and 5 and the counting identity)

FLEET_SEED = "11"


@pytest.fixture(scope="module")
def fleet_pipeline(tmp_path_factory):
    """generate -> cluster(k=3) -> assign -> simulate on the bundled fleet."""
    out = tmp_path_factory.mktemp("fleet")
    runner = CliRunner()
    started = time.perf_counter()
    steps = [
        ["generate", "--cells", "100", "--days", "6", "--seed", FLEET_SEED,
         "--out", str(out)],
        ["cluster", "--kpi", f"{out}/kpis.csv", "--k", "3", "--seed", FLEET_SEED,
         "--out", str(out)],
        ["assign", "--clusters", f"{out}/clusters.csv", "--kpi", f"{out}/kpis.csv",
         "--policy", "4,6,12", "--out", str(out)],
        ["simulate", "--fleet", f"{out}/fleet.json", "--traffic", f"{out}/traffic.csv",
         "--assignment", f"{out}/assignment.csv", "--warmup-days", "1",
         "--timelines", "0", "--seed", FLEET_SEED, "--out", str(out)],
    ]
    for args in steps:
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    elapsed = time.perf_counter() - started
    return out, elapsed


@criterion(1, "state-machine timing: wind-down scans 50/130, hysteresis floors")
def test_criterion_1_state_machine_timing():
    config = CellConfig("c1", 3, 3)
    trace = TrafficTrace("c1", 10.0, np.zeros(500))
    started = time.perf_counter()
    tl3 = run_cell(config, PowerSavingParams(hysteresis=3), trace)
    tl5 = run_cell(config, PowerSavingParams(hysteresis=5), trace)
    elapsed = time.perf_counter() - started

    # hysteresis 3: TRX3 off on the 50th scan, TRX2 on the 130th, then one TRX
    disables = np.flatnonzero(tl3.actions < 0)
    assert list(disables) == [50 - 1, 130 - 1]
    assert list(tl3.actions[disables]) == [-3, -2]
    assert np.all(tl3.active_trx[129:] == 1)
    assert not np.any(tl3.actions > 0)

    # hysteresis 5: the 13 idle TCHs left on two TRXs sit at the 5 + 9
    # threshold, so the second disable never comes; steady state two TRXs
    assert list(np.flatnonzero(tl5.actions != 0)) == [50 - 1]
    assert np.all(tl5.active_trx[49:] == 2)

    assert elapsed < 1.0, f"timing runs took {elapsed:.3f}s"


@criterion(2, "counter algebra over 10,000 randomized scan sequences")
def test_criterion_2_counter_algebra():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        num_trx = int(rng.integers(1, 5))
        config = CellConfig("c", num_trx, int(rng.integers(1, 4)))
        params = PowerSavingParams(
            trx_off_target=int(rng.integers(20, 60)),
            trx_on_target=int(rng.integers(20, 60)),
            trx_off_delay=int(rng.integers(6, 20)),
            hysteresis=int(rng.integers(1, 24)),
        )
        n = int(rng.integers(40, 120))
        level = rng.uniform(0, num_trx * 8 + 4)
        samples = np.maximum(rng.normal(level, level / 2 + 0.5, size=n), 0)
        _, spec = assert_replays(config, params, samples)
        assert_counter_algebra(spec, config, params)


@criterion(3, "per-scan dominance across 50 random scenarios")
def test_criterion_3_dominance():
    rng = np.random.default_rng(77)
    for _ in range(50):
        config = CellConfig("c", int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        params = PowerSavingParams(
            trx_off_target=int(rng.integers(20, 50)),
            trx_on_target=int(rng.integers(20, 50)),
            trx_off_delay=int(rng.integers(6, 30)),
            hysteresis=int(rng.integers(1, 30)),
        )
        n = int(rng.integers(100, 600))
        level = rng.uniform(0, 30)
        samples = np.maximum(rng.normal(level, 6, size=n), 0)
        trace = TrafficTrace("c", 10.0, samples)
        with_saving = run_cell(config, params, trace)
        without = oracles.saving_off_run(config, trace)
        assert np.all(with_saving.active_ts <= without.active_ts)


@criterion(4, "bundled 100-cell fleet: 15-30% TRX reduction in under 60 s")
def test_criterion_4_headline_reduction(fleet_pipeline):
    out, elapsed = fleet_pipeline
    summary = json.loads((out / "summary.json").read_text())
    reduction = summary["reduction_pct"]
    assert 15.0 <= reduction <= 30.0, f"reduction {reduction:.1f}% outside band"
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"


@criterion(5, "per-cell table: quiet cells shrink, saturated cells do not")
def test_criterion_5_per_cell_table(fleet_pipeline):
    out, _ = fleet_pipeline
    fleet = json.loads((out / "fleet.json").read_text())
    tier = {c["cell_id"]: c["tier"] for c in fleet["cells"]}
    capacity = {c["cell_id"]: c["num_trx"] * 8 - c["cch_slots"] for c in fleet["cells"]}

    rows = {}
    with open(out / "comparison.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["cell_id"]] = (int(row["ts_before"]), int(row["max_ts_after"]))
    assert len(rows) == 100

    # saturated tier really is overloaded at every scan of the trace
    min_demand = {}
    with open(out / "traffic.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for cell_id, _, erlang in reader:
            d = int(np.floor(float(erlang) + 0.5))
            if cell_id not in min_demand or d < min_demand[cell_id]:
                min_demand[cell_id] = d

    saturated = [c for c, t in tier.items() if t == "saturated"]
    quiet = [c for c, t in tier.items() if t in ("low", "medium")]
    assert saturated and quiet
    for cell_id in saturated:
        assert min_demand[cell_id] >= capacity[cell_id], f"{cell_id} not saturated"
        ts_before, max_after = rows[cell_id]
        assert ts_before == max_after, f"{cell_id} saved despite saturation"
    for cell_id in quiet:
        ts_before, max_after = rows[cell_id]
        assert max_after < ts_before, f"{cell_id} shows no saving"


def test_headline_is_a_counting_identity(fleet_pipeline):
    """Under policy 4,6,12 the bundled headline counts TRXs, not traffic: each
    non-saturated cell sheds one TRX on its ``trx_off_target``-th scan and never
    switches again, and saturated cells never switch. ``trx_scans_with`` is then
    the measured scans times the TRXs each cell keeps on."""
    out, _ = fleet_pipeline
    summary = json.loads((out / "summary.json").read_text())
    metadata = summary["metadata"]
    shared = dict(metadata["params"])
    assert shared.pop("decay_step") == DECAY_STEP
    fleet = json.loads((out / "fleet.json").read_text())
    cells = {c["cell_id"]: c for c in fleet["cells"]}
    hysteresis = tuner.read_assignment_csv(out / "assignment.csv").hysteresis
    shedding = kept_trx_scans = 0
    for trace in iter_traffic_span(out / "traffic.csv", fleet["scan_period_s"]):
        cell = cells[trace.cell_id]
        params = PowerSavingParams(**shared, hysteresis=hysteresis[trace.cell_id])
        timeline = run_cell(CellConfig(trace.cell_id, cell["num_trx"], cell["cch_slots"]),
                            params, trace)
        sheds = cell["tier"] != "saturated"
        actions = {int(i): int(timeline.actions[i]) for i in np.flatnonzero(timeline.actions)}
        assert actions == ({params.trx_off_target - 1: -cell["num_trx"]} if sheds else {}), \
            trace.cell_id
        shedding += sheds
        measured = len(trace.samples) - metadata["warmup_scans"]
        kept_trx_scans += measured * (cell["num_trx"] - sheds)
    assert shedding == 84 and len(cells) == 100
    assert summary["trx_scans_with"] == kept_trx_scans == 11_059_200
    assert summary["trx_scans_without"] == 14_688_000


HYSTERESIS_3_TIMELINES = [f"cell_{i:04d}" for i in range(8)]  # the default --timelines 8


@pytest.fixture(scope="module")
def hysteresis_3(fleet_pipeline, tmp_path_factory):
    """``simulate --hysteresis 3`` on the bundled fleet, where TRXs switch back on.

    Returns the run's output directory and summary, each cell's in-process
    ``run_cell`` switch-on and switch-off scans, and the config and trace of
    every cell whose timelines the run wrote.
    """
    out, _ = fleet_pipeline
    run = tmp_path_factory.mktemp("hysteresis_3")
    result = CliRunner().invoke(main, [
        "simulate", "--fleet", f"{out}/fleet.json", "--traffic", f"{out}/traffic.csv",
        "--hysteresis", "3", "--warmup-days", "1", "--seed", FLEET_SEED,
        "--out", str(run)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    fleet = json.loads((out / "fleet.json").read_text())
    cells = {c["cell_id"]: c for c in fleet["cells"]}
    switches, written = {}, {}
    for trace in iter_traffic_span(out / "traffic.csv", fleet["scan_period_s"]):
        cell = cells[trace.cell_id]
        config = CellConfig(trace.cell_id, cell["num_trx"], cell["cch_slots"])
        actions = run_cell(config, PowerSavingParams(hysteresis=3), trace).actions
        switches[trace.cell_id] = (np.flatnonzero(actions > 0), np.flatnonzero(actions < 0))
        if trace.cell_id in HYSTERESIS_3_TIMELINES:
            written[trace.cell_id] = (config, trace)
    summary = json.loads((run / "summary.json").read_text())
    return run, summary, switches, written


def test_hysteresis_3_headline_and_switch_events(hysteresis_3):
    """At ``--hysteresis 3`` the headline depends on the traffic: its figures,
    the switch events, and which cells switch on."""
    run, summary, switches, _ = hysteresis_3
    assert summary["reduction_pct"] == 35.30731209150327
    assert summary["blocking_delta"] == 0
    warmup = summary["metadata"]["warmup_scans"]
    assert warmup == 8_640
    assert sorted(p.name for p in (run / "timelines").iterdir()) == \
        [f"{cell_id}_{mode}.csv" for cell_id in HYSTERESIS_3_TIMELINES for mode in ("off", "on")]
    for cell_id in ("cell_0002", "cell_0003"):
        on, _ = switches[cell_id]
        assert (len(on), np.count_nonzero(on >= warmup)) == (6, 5), cell_id
    ons = sum(len(on) for on, _ in switches.values())
    offs = sum(len(off) for _, off in switches.values())
    ons_after = sum(int(np.count_nonzero(on >= warmup)) for on, _ in switches.values())
    offs_after = sum(int(np.count_nonzero(off >= warmup)) for _, off in switches.values())
    assert (ons, offs) == (161, 277)
    assert (ons_after, offs_after) == (135, 135)


@pytest.mark.parametrize("cell_id", HYSTERESIS_3_TIMELINES)
def test_hysteresis_3_timelines_replay_with_step_functions(hysteresis_3, cell_id):
    """A written cell's ``_on.csv`` is the ``scan_step``/``apply_action`` replay
    and its ``_off.csv`` keeps every TRX's slots at every scan."""
    run, _, _, written = hysteresis_3
    config, trace = written[cell_id]

    def active_ts(mode):
        lines = (run / "timelines" / f"{cell_id}_{mode}.csv").read_text().splitlines()[1:]
        return [int(line.rpartition(",")[2]) for line in lines]

    replay = oracles.replay_with_step_functions(config, PowerSavingParams(hysteresis=3), trace)
    assert active_ts("on") == replay["active_ts"]
    assert active_ts("off") == [SLOTS_PER_TRX * config.num_trx] * len(trace.samples)


@criterion(6, "clustering oracles: silhouette, fixed point, SSE, exhaustive optimum")
def test_criterion_6_clustering_oracles(monkeypatch):
    rng = np.random.default_rng(606)

    # silhouette equals the naive recomputation exactly on sets up to 200 points
    for n, k, seed in ((30, 2, 0), (90, 3, 1), (150, 4, 2), (200, 5, 3)):
        pts = rng.normal(size=(n, 3))
        res = run_kmeans(pts, k, seed=seed, restarts=4)
        assert silhouette_score(pts, res.labels) == oracles.brute_silhouette(pts, res.labels)

    # Lloyd's output is a fixed point, and its SSE never rises from one
    # iteration to the next: stopped after 0, 1, 2, ... iterations
    for seed in range(5):
        pts = rng.normal(size=(70, 3))
        res = run_kmeans(pts, 4, seed=seed)
        d = np.sum((pts[:, None, :] - res.centroids[None, :, :]) ** 2, axis=2)
        assert np.array_equal(np.argmin(d, axis=1), res.labels)
        init = kmeanspp_seed(pts, 4, seed)
        sses = []
        for stop in range(lloyd(pts, init).iterations + 1):
            with monkeypatch.context() as patch:
                patch.setattr(analytics, "MAX_ITER", stop)
                sses.append(lloyd(pts, init).sse)
        assert len(sses) > 2 and all(a >= b - 1e-12 for a, b in zip(sses, sses[1:]))

    # best-of-restarts matches the exhaustive-partition optimum
    for n, k, seed in ((8, 2, 11), (9, 3, 12), (10, 3, 13)):
        pts = np.round(rng.normal(size=(n, 2)) * 3, 3)
        best = oracles.exhaustive_best_sse(pts, k)
        res = run_kmeans(pts, k, seed=seed, restarts=32)
        assert abs(res.sse - best) <= 1e-9, f"n={n} k={k}: {res.sse} vs optimum {best}"


@criterion(7, "PCA: orthonormal components, variance bookkeeping, eigensolver oracle")
def test_criterion_7_pca_checks():
    rng = np.random.default_rng(707)
    for trial in range(5):
        x = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        std = standardize(x)
        fit = oracles.pca_fit(std)
        assert np.array_equal(pca_reduce(std), fit.projection)

        gram = fit.components.T @ fit.components
        assert np.abs(gram - np.eye(3)).max() < 1e-8

        centered = std - std.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        assert abs(fit.variances.sum() - float(np.trace(cov))) < 1e-8
        assert abs(fit.total_variance - float(np.trace(cov))) < 1e-8

        # independent small-matrix eigensolver, match up to sign
        ref_vals, ref_vecs = np.linalg.eigh(cov)
        ref_vals = ref_vals[::-1]
        ref_vecs = ref_vecs[:, ::-1]
        assert np.abs(fit.variances - ref_vals).max() < 1e-8
        for j in range(3):
            dot = abs(float(fit.components[:, j] @ ref_vecs[:, j]))
            assert abs(dot - 1.0) < 1e-8


@criterion(8, "model selection: k=3 on three blobs in at least 95 of 100 trials")
def test_criterion_8_model_selection():
    hits = 0
    for trial in range(100):
        pts = oracles.gaussian_blobs(
            [[0, 0, 0], [12, 12, 0], [-12, 12, 6]], 25, scale=1.0, seed=trial,
        )
        sel = select_k(pts, fit_k_range(pts, range(2, 10), restarts=10, seed=trial))
        hits += sel.best_result.k == 3
    assert hits >= 95, f"k=3 chosen only {hits}/100 times"


@pytest.mark.parametrize("cpus", [1, 2, 3])
@criterion(9, "determinism: the CLI pipeline is byte-identical for a fixed seed")
def test_criterion_9_cli_determinism(tmp_path, monkeypatch, cpus):
    split_over(monkeypatch, cpus)
    runner = CliRunner()
    for name in ("first", "second"):
        out = tmp_path / name
        steps = [
            ["generate", "--cells", "12", "--days", "1", "--seed", "5", "--out", str(out)],
            ["cluster", "--kpi", f"{out}/kpis.csv", "--k", "3", "--seed", "5",
             "--out", str(out)],
            ["assign", "--clusters", f"{out}/clusters.csv", "--kpi", f"{out}/kpis.csv",
             "--out", str(out)],
            ["simulate", "--fleet", f"{out}/fleet.json", "--traffic", f"{out}/traffic.csv",
             "--assignment", f"{out}/assignment.csv", "--timelines", "3",
             "--seed", "5", "--out", str(out)],
        ]
        for args in steps:
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output
    first = tmp_path / "first"
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert len(files) >= 10
    for rel in files:
        a = (tmp_path / "first" / rel).read_bytes()
        b = (tmp_path / "second" / rel).read_bytes()
        assert a == b, f"artifact differs between runs: {rel}"


@criterion(10, "format fidelity: dataset sample rows round-trip digit for digit")
def test_criterion_10_format_fidelity(tmp_path):
    source = KPI_HEADER + "\n" + "\n".join(SAMPLE_KPI_ROWS) + "\n"
    (tmp_path / "kpis.csv").write_text(source)
    records = ingest_kpi_csv(tmp_path / "kpis.csv")
    emit_kpi_csv(records, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text() == source
    # and a second pass is stable
    again = ingest_kpi_csv(tmp_path / "out.csv")
    assert again == records
