import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from trxsave import saving_engine
from trxsave.cell_model import MAX_TRX, CellConfig, build_cell, place_calls
from trxsave.errors import ConfigurationError, DataError, InvariantError
from trxsave.saving_engine import (
    ACTION_DISABLE,
    ACTION_ENABLE,
    ACTION_NONE,
    FIRST_WINDOW,
    MAX_WINDOW,
    PowerSavingParams,
    SavingState,
    ScanAction,
    apply_action,
    run_cell,
    scan_step,
    validate_params,
)
from trxsave.traffic import DiurnalProfileSpec, TrafficTrace, demand_series, generate_diurnal_trace


def zero_trace(n=400, period=10.0):
    return TrafficTrace("c1", period, np.zeros(n))


def cell_with_occupancy(occupied, num_trx=3, cch=3):
    state = build_cell(CellConfig("c1", num_trx, cch))
    state, blocked = place_calls(state, occupied)
    assert blocked == 0
    return state


class TestValidateParams:
    def test_defaults_are_valid(self):
        p = PowerSavingParams()
        assert (p.trx_off_target, p.trx_on_target, p.trx_off_delay, p.hysteresis) == (50, 49, 30, 5)
        assert validate_params(p) is p

    def test_hysteresis_upper_bound(self):
        validate_params(PowerSavingParams(hysteresis=1014))

    def test_off_delay_below_range(self):
        with pytest.raises(ConfigurationError, match="trx_off_delay"):
            validate_params(PowerSavingParams(trx_off_delay=5))

    @pytest.mark.parametrize("field,value", [
        ("trx_off_target", 19), ("trx_off_target", 101),
        ("trx_on_target", 119), ("hysteresis", 0), ("hysteresis", 1015),
        ("fixed_offset", 8), ("decay_step", 0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            validate_params(dataclasses.replace(PowerSavingParams(), **{field: value}))


class TestScanStep:
    def test_idle_above_threshold_counts_up(self):
        # idle 20 vs threshold 5 + 9 = 14
        cell = cell_with_occupancy(1)
        saving, action = scan_step(cell, SavingState(), PowerSavingParams(hysteresis=5))
        assert saving.off_counter == 1
        assert action.kind == ACTION_NONE

    def test_idle_at_or_below_threshold_decays_counter(self):
        # idle 10 < 14: counter 2 drops to max(2 - 3, 0) = 0
        cell = cell_with_occupancy(11)
        saving, action = scan_step(cell, SavingState(off_counter=2), PowerSavingParams(hysteresis=5))
        assert saving.off_counter == 0
        assert action.kind == ACTION_NONE

    def test_reaching_off_target_disables_highest_trx(self):
        cell = cell_with_occupancy(0)  # idle 21 > 14
        saving, action = scan_step(
            cell, SavingState(off_counter=49), PowerSavingParams(hysteresis=5)
        )
        assert action == ScanAction.disable(3)
        assert saving.off_counter == 0
        assert saving.delay_remaining == 30

    def test_no_off_check_during_delay_window(self):
        cell = cell_with_occupancy(0)
        saving, action = scan_step(
            cell, SavingState(off_counter=0, delay_remaining=4), PowerSavingParams()
        )
        assert action.kind == ACTION_NONE
        assert saving.off_counter == 0
        assert saving.delay_remaining == 3

    def test_equality_edge_decays_both_counters(self):
        # idle exactly hysteresis + 9 satisfies neither strict inequality
        p = PowerSavingParams(hysteresis=5)
        cell = cell_with_occupancy(21 - 14)  # idle = 14
        saving, action = scan_step(cell, SavingState(off_counter=5, on_counter=0), p)
        assert saving.off_counter == 2
        assert action.kind == ACTION_NONE

    def test_on_counter_counts_when_margin_below_hysteresis(self):
        from trxsave.cell_model import set_trx_enabled
        p = PowerSavingParams(hysteresis=5)
        cell = set_trx_enabled(build_cell(CellConfig("c1", 3, 3)), 3, False)
        cell, _ = place_calls(cell, 9)  # idle 4 < 5
        saving, action = scan_step(cell, SavingState(on_counter=0), p)
        assert saving.on_counter == 1
        assert action.kind == ACTION_NONE
        saving, action = scan_step(cell, SavingState(on_counter=48), p)
        assert action == ScanAction.enable(3)
        assert saving.on_counter == 0

    def test_enable_ignores_delay_window(self):
        from trxsave.cell_model import set_trx_enabled
        p = PowerSavingParams(hysteresis=5)
        cell = set_trx_enabled(build_cell(CellConfig("c1", 3, 3)), 3, False)
        cell, _ = place_calls(cell, 13)  # idle 0
        saving, action = scan_step(cell, SavingState(on_counter=48, delay_remaining=10), p)
        assert action == ScanAction.enable(3)
        assert saving.delay_remaining == 9

    def test_on_path_silent_when_all_enabled(self):
        cell = cell_with_occupancy(21)  # idle 0 but nothing to enable
        saving, action = scan_step(cell, SavingState(), PowerSavingParams())
        assert saving.on_counter == 0
        assert action.kind == ACTION_NONE


class TestApplyAction:
    def test_disable_shrinks_capacity(self):
        cell = cell_with_occupancy(0)
        cell = apply_action(cell, ScanAction.disable(3))
        assert cell.enabled_trx_count == 2
        assert cell.enabled_tch_capacity == 13

    def test_enable_restores_capacity(self):
        cell = apply_action(cell_with_occupancy(0), ScanAction.disable(3))
        cell = apply_action(cell, ScanAction.enable(3))
        assert cell.enabled_tch_capacity == 21

    def test_disable_trx1_is_an_invariant_violation(self):
        with pytest.raises(InvariantError):
            ScanAction.disable(1)
        with pytest.raises(InvariantError):
            apply_action(cell_with_occupancy(0), ScanAction(ACTION_DISABLE, 1))

    def test_overloaded_disable_is_deferred(self, caplog):
        cell = cell_with_occupancy(14)  # removal would leave 13 < 14
        with caplog.at_level("WARNING"):
            after = apply_action(cell, ScanAction.disable(3))
        assert after == cell
        assert any("deferred" in r.message for r in caplog.records)

    def test_double_disable_rejected(self):
        cell = apply_action(cell_with_occupancy(0), ScanAction.disable(3))
        with pytest.raises(InvariantError):
            apply_action(cell, ScanAction.disable(3))

    def test_enable_of_enabled_trx_rejected(self):
        with pytest.raises(InvariantError):
            apply_action(cell_with_occupancy(0), ScanAction(ACTION_ENABLE, 2))


class TestRunCell:
    def test_saving_off_keeps_every_slot_active(self):
        tl = run_cell(CellConfig("c1", 3, 3), PowerSavingParams(), zero_trace(),
                      ps_enabled=False)
        assert np.all(tl.active_ts == 24)
        assert np.all(tl.active_trx == 3)
        assert np.all(tl.actions == 0)

    def test_zero_traffic_h3_full_wind_down(self):
        # 50 qualifying scans, 30 delay scans, 50 more: disables on scans 50 and 130
        tl = run_cell(CellConfig("c1", 3, 3), PowerSavingParams(hysteresis=3), zero_trace())
        disables = np.flatnonzero(tl.actions < 0)
        assert list(disables) == [49, 129]
        assert list(tl.actions[disables]) == [-3, -2]
        assert tl.active_trx[-1] == 1
        assert not np.any(tl.actions > 0)

    def test_zero_traffic_h5_parks_at_two_trx(self):
        # idle 13 on two TRXs is under the 5 + 9 threshold: no second disable,
        # and the 13-TCH margin is over the hysteresis: no re-enable
        tl = run_cell(CellConfig("c1", 3, 3), PowerSavingParams(hysteresis=5), zero_trace())
        assert list(np.flatnonzero(tl.actions != 0)) == [49]
        assert tl.active_trx[-1] == 2

    def test_traffic_surge_reenables(self):
        samples = np.concatenate([np.zeros(200), np.full(400, 12.0)])
        tl = run_cell(CellConfig("c1", 3, 3), PowerSavingParams(hysteresis=5),
                      TrafficTrace("c1", 10.0, samples))
        assert tl.active_trx[150] == 2
        enables = np.flatnonzero(tl.actions > 0)
        assert len(enables) == 1
        # 12 occupied on 13 TCHs leaves 1 idle < 5, 49 scans to fire
        assert enables[0] == 200 + 48
        assert tl.active_trx[-1] == 3
        assert np.all(tl.blocked == 0)

    def test_empty_trace_rejected(self):
        with pytest.raises(DataError):
            run_cell(CellConfig("c1", 3, 3), PowerSavingParams(),
                     TrafficTrace("c1", 10.0, np.zeros(0)))

    def test_saturated_cell_never_sheds(self):
        tl = run_cell(CellConfig("c1", 3, 3), PowerSavingParams(hysteresis=1),
                      TrafficTrace("c1", 10.0, np.full(300, 25.0)))
        assert np.all(tl.active_trx == 3)
        assert np.all(tl.blocked == 4)  # 25 offered on 21 TCHs

    @pytest.mark.parametrize("load,per_scan", [("diurnal", 120), ("saturated", 24)])
    def test_peak_memory_is_a_small_multiple_of_the_timeline(self, load, per_scan):
        # a 12-TRX cell over six days, in bytes per scan: the timeline's own arrays
        # take 8 and the demand 4. The diurnal load visits every enabled count, so
        # the walk holds one int32 prefix-sum array per counter and count (22 of
        # them, 88); a saturated cell never leaves 12, so only one is built
        if load == "diurnal":
            trace = generate_diurnal_trace(DiurnalProfileSpec(0.0, 95.0, noise_sigma=1.0,
                                                              days=6, seed=5))
        else:
            trace = TrafficTrace("c1", 10.0, np.full(6 * 8640, 100.0))
        config = CellConfig("c1", MAX_TRX, 3)
        tracemalloc.start()
        try:
            tl = run_cell(config, PowerSavingParams(hysteresis=2), trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reached = set(tl.active_trx.tolist())
        assert reached == (set(range(1, MAX_TRX + 1)) if load == "diurnal" else {MAX_TRX})
        assert peak <= per_scan * tl.n_scans, peak / tl.n_scans

    def test_determinism_bit_for_bit(self):
        spec_args = dict(config=CellConfig("c1", 4, 2), params=PowerSavingParams(hysteresis=2))
        rng = np.random.default_rng(17)
        samples = np.round(rng.uniform(0, 15, size=1000), 6)
        t = TrafficTrace("c1", 10.0, samples)
        a = run_cell(spec_args["config"], spec_args["params"], t)
        b = run_cell(spec_args["config"], spec_args["params"], t)
        for field in TIMELINE_ARRAYS:
            assert np.array_equal(getattr(a, field), getattr(b, field))


TIMELINE_ARRAYS = ("blocked", "active_trx", "active_ts", "actions")


def assert_replays(config, params, samples):
    """run_cell and the scan_step/apply_action replay agree on every per-scan array a
    timeline has, at every scan; the timeline and the replay."""
    trace = TrafficTrace(config.cell_id, 10.0, samples)
    tl = run_cell(config, params, trace)
    spec = oracles.replay_with_step_functions(config, params, trace)
    for field in TIMELINE_ARRAYS:
        got = getattr(tl, field).tolist()
        if got != spec[field]:
            scan = next(i for i, (a, b) in enumerate(zip(got, spec[field])) if a != b)
            pytest.fail(f"{field} differs first at scan {scan}: {got[scan]} != {spec[field][scan]}")
    return tl, spec


def regimes(rng, n, low, high, mean_scans):
    """Levels drawn from [low, high) held for geometric spans, plus Gaussian noise."""
    spans = rng.geometric(1.0 / mean_scans, size=n // mean_scans * 4 + 8)
    levels = np.repeat(rng.uniform(low, high, size=len(spans)), spans)[:n]
    return np.round(np.maximum(levels + rng.normal(0, 1.0, size=n), 0), 6)


def zero_then(level, quiet, busy):
    return np.concatenate([np.zeros(quiet), np.full(busy, float(level))])


# name -> (num_trx, cch_slots, PowerSavingParams fields, samples)
EDGE_CASES = {
    # zero traffic, target 64: the first disable is the window's last scan, the
    # second (target 65) the first scan of the window after an empty one
    "fires_on_last_scan_of_window": lambda: (3, 3, dict(trx_off_target=64, hysteresis=3),
                                             np.zeros(400)),
    "fires_on_first_scan_of_next": lambda: (3, 3, dict(trx_off_target=65, hysteresis=3),
                                            np.zeros(400)),
    "ends_on_firing_scan": lambda: (3, 3, dict(hysteresis=3), np.zeros(50)),
    "ends_on_firing_scan_at_window_end": lambda: (3, 3, dict(trx_off_target=64, hysteresis=3),
                                                  np.zeros(64)),
    "zero_max_trx_sheds_to_one": lambda: (12, 1, dict(hysteresis=1, trx_off_target=20,
                                                       trx_off_delay=6), np.zeros(1500)),
    "saturated_max_trx": lambda: (12, 3, dict(hysteresis=1), np.full(800, 100.0)),
    # re-enables while calls are blocked: placement reads the pre-action capacity
    "surge_after_shedding": lambda: (4, 2, dict(hysteresis=1, trx_on_target=20,
                                                trx_off_target=20, trx_off_delay=6),
                                     np.tile(zero_then(40.0, 300, 200), 3)),
    # a counter keeps its value across an event of the other: off at 20 when the
    # enable fires, on at 30 when the disable fires
    "off_counter_carried_across_enable": lambda: (
        3, 3, dict(trx_off_target=100, trx_on_target=20, trx_off_delay=6, hysteresis=2),
        np.concatenate([np.zeros(186), np.full(60, 30.0), np.zeros(100)])),
    "on_counter_carried_across_disable": lambda: (
        4, 3, dict(trx_off_target=20, trx_on_target=100, trx_off_delay=6, hysteresis=5),
        np.concatenate([np.zeros(20), np.full(90, 18.0), np.zeros(100)])),
    "one_trx": lambda: (1, 3, {}, regimes(np.random.default_rng(1), 2000, 0, 8, 40)),
    "two_trx_bursty": lambda: (2, 1, dict(hysteresis=1, trx_off_target=20, trx_on_target=20,
                                          trx_off_delay=6),
                               regimes(np.random.default_rng(2), 3000, 0, 18, 30)),
    "hysteresis_1014": lambda: (5, 2, dict(hysteresis=1014),
                                regimes(np.random.default_rng(3), 2000, 0, 40, 60)),
    "targets_100_delay_90": lambda: (6, 3, dict(trx_off_target=100, trx_on_target=100,
                                                trx_off_delay=90, hysteresis=2),
                                     regimes(np.random.default_rng(4), 4000, 0, 50, 300)),
    "decay_above_target": lambda: (4, 3, dict(trx_off_target=20, trx_on_target=20,
                                              trx_off_delay=6, hysteresis=3, decay_step=150),
                                   regimes(np.random.default_rng(5), 3000, 0, 32, 25)),
}
WINDOWS = {"default": (FIRST_WINDOW, MAX_WINDOW), "one": (1, 1), "three_to_seven": (3, 7)}


class TestReplayEquivalence:
    """run_cell and the pure step functions agree on every timeline array at every scan."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces_replay_identically(self, seed):
        rng = np.random.default_rng(seed)
        num_trx = int(rng.integers(2, 5))
        config = CellConfig("c1", num_trx, int(rng.integers(1, 4)))
        params = PowerSavingParams(
            trx_off_target=int(rng.integers(20, 40)),
            trx_on_target=int(rng.integers(20, 40)),
            trx_off_delay=int(rng.integers(6, 15)),
            hysteresis=int(rng.integers(1, 16)),
        )
        n = 600
        lam = rng.uniform(0, num_trx * 8)
        samples = np.round(np.maximum(rng.normal(lam, lam / 2 + 0.5, size=n), 0), 6)
        assert_replays(config, params, samples)

    @pytest.mark.parametrize("seed", range(10))
    def test_multi_day_traces_replay_identically(self, seed):
        # two days of scans; every parameter at its range ends on some seed
        rng = np.random.default_rng(1000 + seed)
        num_trx = (1, 2, MAX_TRX)[seed % 3] if seed < 6 else int(rng.integers(2, MAX_TRX + 1))
        cch = seed % 3 + 1
        params = PowerSavingParams(
            trx_off_target=(20, 100)[seed % 2] if seed < 4 else int(rng.integers(20, 101)),
            trx_on_target=(100, 20)[seed % 2] if seed < 4 else int(rng.integers(20, 101)),
            trx_off_delay=(6, 90)[seed % 2] if seed < 4 else int(rng.integers(6, 91)),
            hysteresis=(1, 1014)[seed % 2] if seed < 2 else int(rng.integers(1, max(2, 8 * num_trx - cch - 9))),
            decay_step=int(rng.integers(1, 5)),
        )
        n = 17_280
        samples = regimes(rng, n, -num_trx * 4, num_trx * 8 + 4, 150)  # zero to saturated
        tl, _ = assert_replays(CellConfig("c1", num_trx, cch), params, samples)
        if 1 < num_trx and params.hysteresis < 1014:
            assert np.count_nonzero(tl.actions) >= 10

    @pytest.mark.parametrize("windows", WINDOWS)
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_cases_replay_identically(self, monkeypatch, name, windows):
        first, largest = WINDOWS[windows]
        monkeypatch.setattr(saving_engine, "FIRST_WINDOW", first)
        monkeypatch.setattr(saving_engine, "MAX_WINDOW", largest)
        num_trx, cch, fields, samples = EDGE_CASES[name]()
        assert_replays(CellConfig("c1", num_trx, cch), PowerSavingParams(**fields), samples)

    def test_enable_wins_a_tie_as_in_scan_step(self, monkeypatch):
        # fixed_offset 9 keeps the two triggers disjoint, so no valid run meets a
        # tie; at -11 a scan with 8 or 9 idle TCHs bumps both counters, and with a
        # 2-TRX cell enabled both counters reach their targets on scan 45
        monkeypatch.setattr(saving_engine, "validate_params", lambda p: p)
        params = PowerSavingParams(trx_off_target=20, trx_on_target=26, trx_off_delay=6,
                                   hysteresis=10, fixed_offset=-11)
        tl, spec = assert_replays(CellConfig("c1", 3, 3), params, np.full(200, 4.0))
        assert tl.actions[45] == 3 and spec["off_counter"][45] == 20

    def test_quiet_spans_far_longer_than_the_largest_window(self):
        # shed to one TRX within the first thousand scans, idle for three largest
        # windows, then a surge re-enables every TRX
        quiet = 3 * MAX_WINDOW + 777
        samples = np.concatenate([zero_then(0.0, quiet, 0), np.full(600, 90.0), np.zeros(500)])
        tl, _ = assert_replays(CellConfig("c1", MAX_TRX, 3),
                               PowerSavingParams(hysteresis=2, trx_on_target=20), samples)
        assert tl.active_trx[quiet - 1] == 1 and tl.active_trx[quiet + 599] == MAX_TRX


def assert_counter_algebra(spec, config, params):
    """Counter transitions, delay-window and safety invariants of one
    scan_step/apply_action replay."""
    spec = {name: np.array(values) for name, values in spec.items()}
    for name in ("off_counter", "on_counter"):
        c = spec[name]
        prev = np.concatenate(([0], c[:-1]))
        allowed = (
            (c == prev + 1)
            | (c == np.maximum(prev - params.decay_step, 0))
            | (c == 0)
        )
        assert np.all(allowed), f"{name} made an illegal transition"
    delay_at_start = np.concatenate(([0], spec["delay_remaining"][:-1]))
    disables = spec["actions"] < 0
    assert not np.any(disables & (delay_at_start > 0)), "disable inside the delay window"
    assert not np.any(spec["actions"] == -1), "TRX 1 was disabled"
    assert spec["active_trx"].min() >= 1
    assert np.all(spec["occupied"] <= spec["active_trx"] * 8 - config.cch_slots)


class TestInvariants:
    def test_counter_algebra_on_random_runs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            config = CellConfig("c1", int(rng.integers(2, 5)), 3)
            params = PowerSavingParams(
                trx_off_target=int(rng.integers(20, 30)),
                trx_on_target=int(rng.integers(20, 30)),
                trx_off_delay=int(rng.integers(6, 12)),
                hysteresis=int(rng.integers(1, 12)),
            )
            samples = np.maximum(rng.normal(rng.uniform(0, 25), 4, size=300), 0)
            _, spec = assert_replays(config, params, samples)
            assert_counter_algebra(spec, config, params)

    def test_disable_leaves_hysteresis_idle_tchs(self):
        # a disable fires only at idle > hysteresis + 9, so after losing one TRX's 8
        # slots the calls still fit with hysteresis idle TCHs to spare: run_cell never
        # meets the overloaded disable that apply_action defers
        rng = np.random.default_rng(47)
        disables = 0
        for _ in range(150):
            num_trx, cch = int(rng.integers(2, 13)), int(rng.integers(1, 4))
            h = int(rng.integers(1, 31))
            params = PowerSavingParams(trx_off_target=20, trx_on_target=20, trx_off_delay=6,
                                       hysteresis=h)
            levels = rng.uniform(0, num_trx * 8 - cch, size=40)  # regimes of 50 scans
            samples = np.maximum(np.repeat(levels, 50) + rng.normal(0, 2, size=2000), 0)
            tl = run_cell(CellConfig("c1", num_trx, cch), params,
                          TrafficTrace("c1", 10.0, samples))
            fired = tl.actions < 0
            disables += int(fired.sum())
            capacity_left = tl.active_trx[fired].astype(np.int64) * 8 - cch
            occupied = demand_series(samples) - tl.blocked
            assert np.all(occupied[fired] <= capacity_left - h)
        assert disables > 1000

    def test_dominance_per_scan(self):
        rng = np.random.default_rng(31)
        config = CellConfig("c1", 4, 3)
        samples = np.maximum(rng.normal(6, 5, size=800), 0)
        trace = TrafficTrace("c1", 10.0, samples)
        on = run_cell(config, PowerSavingParams(hysteresis=2), trace)
        off = run_cell(config, PowerSavingParams(hysteresis=2), trace, ps_enabled=False)
        assert np.all(on.active_ts <= off.active_ts)


MONOTONICITY_SEED = 20261018


def monotonicity_cell(index, n):
    """Cell ``index`` of a seeded generator: 1-5 TRXs, every tunable parameter
    but the hysteresis drawn from its range, and a noisy-level or a
    regime-switching trace from idle to past saturation."""
    rng = np.random.default_rng([MONOTONICITY_SEED, index])
    num_trx, cch = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    fields = dict(trx_off_target=int(rng.integers(20, 101)),
                  trx_on_target=int(rng.integers(20, 101)),
                  trx_off_delay=int(rng.integers(6, 91)), decay_step=int(rng.integers(1, 6)))
    top = num_trx * 8 - cch
    if rng.random() < 0.5:
        level = rng.uniform(0, top + 4)
        samples = np.round(np.maximum(rng.normal(level, rng.uniform(0.5, 4), size=n), 0), 6)
    else:
        samples = regimes(rng, n, -4, top + 4, int(rng.integers(10, 200)))
    return CellConfig("c", num_trx, cch), fields, TrafficTrace("c", 10.0, samples)


# Steps h - 1 -> h that break the rule, found by running the generator over 6,000
# cells of 3,000 scans with h = 1..24 (7 of 138,000 steps); the spec replay gives
# each the same sums as run_cell. In (5670, 10), with the paper's decay step of 3,
# h = 10 moves TRX 3's last switch-off from scan 2572 to 2676, just before the
# load rises, and the 40-scan switch-on blocks 31 more calls than h = 9 does.
COUNTEREXAMPLES = [(1177, 7), (1771, 10), (3408, 7), (4574, 4), (5669, 20), (5670, 10),
                   (5763, 14)]


class TestHysteresisMonotonicity:
    """The per-cluster choice of hysteresis assumes that a larger value never
    saves more TRX-scans and never blocks more calls. That holds on almost
    every cell, but not on all of them."""

    def test_random_cells(self):
        violations = []
        for index in range(400):
            config, fields, trace = monotonicity_cell(index, 2000)
            before = None
            for h in range(1, 25):
                tl = run_cell(config, PowerSavingParams(hysteresis=h, **fields), trace)
                sums = int(tl.active_trx.sum()), int(tl.blocked.sum())
                if before is not None and (sums[0] < before[0] or sums[1] > before[1]):
                    violations.append((index, h, before, sums))
                before = sums
        assert violations == []

    @pytest.mark.parametrize("index,h", COUNTEREXAMPLES)
    def test_counterexample_in_the_spec(self, index, h):
        config, fields, trace = monotonicity_cell(index, 3000)
        lower, higher = (oracles.replay_with_step_functions(
            config, PowerSavingParams(hysteresis=value, **fields), trace) for value in (h - 1, h))
        active_fell = sum(higher["active_trx"]) < sum(lower["active_trx"])
        blocked_rose = sum(higher["blocked"]) > sum(lower["blocked"])
        assert active_fell or blocked_rose
