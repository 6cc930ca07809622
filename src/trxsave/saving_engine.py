"""TRX power-saving state machine.

The feature scans the cell every ~10 seconds and keeps two counters.

Switch-off: when more than one TRX is enabled and the post-disable delay
window is closed, a scan with ``idle > hysteresis + FIXED_OFFSET`` bumps the
off-counter by one; otherwise the counter drops by ``DECAY_STEP`` (floored at
zero). When the counter reaches ``trx_off_target`` the highest-index enabled
TRX is switched off, the counter resets and off-checking is suspended for
``trx_off_delay`` scans. The offset of 9 (one TRX of slots plus one) makes
the margin survive losing 8 slots: a cell only sheds a TRX when at least
``hysteresis`` idle TCHs would remain afterwards.

Switch-on: when at least one TRX is disabled, a scan with
``idle < hysteresis`` bumps the on-counter (same decay otherwise); reaching
``trx_on_target`` re-enables the lowest-index disabled TRX immediately, even
inside the delay window. The switch-on margin is the bare hysteresis value:
the parameter is expressed as a number of idle TCHs, and capacity is restored
as soon as the cell can no longer hold that margin. Using the off-threshold
(hysteresis + 9) on this side would re-enable a fully idle two-TRX cell
(13 idle < 14) and the feature would never settle.

At most one switch action happens per scan; switch-on wins if both counters
would fire (the two trigger conditions are disjoint, so this is a guard, not
a reachable branch).

``scan_step`` and ``apply_action`` are the executable spec, one scan at a
time. ``run_cell`` gets the same result by jumping from switch event to
switch event. Between two events the enabled count E is constant, so each
scan's idle count, and with it each counter's step x_t (+1, or -decay), is a
fixed function of that scan's demand. A counter then follows Lindley's
recursion C_t = max(C_{t-1} + x_t, 0), whose closed form is
C_t = P_t - min(-C, min_{k<=t} P_k), with P the running sum of the steps from
the segment's start and C the counter there. A cumulative sum of the steps
for each E, a running minimum and a comparison with the target give a whole
segment's counters and its first firing scan. The off-counter stays frozen
while the delay window runs, and a counter is frozen when there is no TRX to
switch. Only integers enter this arithmetic, so every counter is exactly the
value the scan-by-scan replay gives.

A disable fires only at idle > hysteresis + 9 >= 10, so the calls always fit
on one TRX fewer: a disable that would strand calls, an ``InvariantError`` in
``apply_action``, cannot happen in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell_model import (
    HYSTERESIS_MAX,
    HYSTERESIS_MIN,
    SLOTS_PER_TRX,
    CellConfig,
    CellState,
    idle_tch_count,
    set_trx_enabled,
)
from .errors import ConfigurationError, InvariantError
from .traffic import TrafficTrace, demand_series

FIXED_OFFSET = 9
DECAY_STEP = 3


@dataclass(frozen=True)
class PowerSavingParams:
    """The four tunable feature parameters, each checked against its allowed
    range when built.

    Vendor names: TRXOFFTARGET, TRXONTARGET, TRXOFFDELAY, BTSPSHYST. The
    switch-off offset is the constant ``FIXED_OFFSET`` and the counter decay
    the constant ``DECAY_STEP``.
    """

    trx_off_target: int = 50
    trx_on_target: int = 49
    trx_off_delay: int = 30
    hysteresis: int = 5

    def __post_init__(self) -> None:
        if not 20 <= self.trx_off_target <= 100:
            raise ConfigurationError(
                f"trx_off_target must be in [20, 100], got {self.trx_off_target}")
        if not 20 <= self.trx_on_target <= 100:
            raise ConfigurationError(
                f"trx_on_target must be in [20, 100], got {self.trx_on_target}")
        if not 6 <= self.trx_off_delay <= 90:
            raise ConfigurationError(f"trx_off_delay must be in [6, 90], got {self.trx_off_delay}")
        if not HYSTERESIS_MIN <= self.hysteresis <= HYSTERESIS_MAX:
            raise ConfigurationError(f"hysteresis must be in [{HYSTERESIS_MIN}, "
                                     f"{HYSTERESIS_MAX}], got {self.hysteresis}")


@dataclass(frozen=True)
class SavingState:
    """Counter state between scans."""

    off_counter: int = 0
    on_counter: int = 0
    delay_remaining: int = 0


def scan_step(
    cell: CellState, saving: SavingState, p: PowerSavingParams
) -> tuple[SavingState, int]:
    """Evaluate one scan: update counters, decide on a switch action.

    Pure function over value types. The action is an int, as in
    ``CellTimeline.actions``: 0 none, +i enable TRX i, -i disable TRX i. The
    caller applies it with :func:`apply_action`.
    """
    idle = idle_tch_count(cell)
    off_threshold = p.hysteresis + FIXED_OFFSET
    on_threshold = p.hysteresis

    enabled = cell.enabled_trx_count
    num_trx = cell.config.num_trx

    off_c = saving.off_counter
    on_c = saving.on_counter
    delay = saving.delay_remaining
    delay_was_open = delay == 0
    if delay > 0:
        delay -= 1

    enable_fires = False
    if enabled < num_trx:
        if idle < on_threshold:
            on_c += 1
            if on_c >= p.trx_on_target:
                enable_fires = True
                on_c = 0
        else:
            on_c = max(on_c - DECAY_STEP, 0)

    disable_fires = False
    if enabled > 1 and delay_was_open:
        if idle > off_threshold:
            off_c += 1
            if off_c >= p.trx_off_target:
                disable_fires = True
        else:
            off_c = max(off_c - DECAY_STEP, 0)

    action = 0
    if enable_fires:
        # switch-on takes priority over a simultaneous switch-off
        action = next(i + 1 for i, on in enumerate(cell.trx_enabled) if not on)
    elif disable_fires:
        action = -max(i + 1 for i, on in enumerate(cell.trx_enabled) if on)
        off_c = 0
        delay = p.trx_off_delay

    return SavingState(off_counter=off_c, on_counter=on_c, delay_remaining=delay), action


def apply_action(cell: CellState, action: int) -> CellState:
    """Apply a scan action code (see :func:`scan_step`) to the cell.

    The TRX must exist and not already be in the requested state. Disabling
    TRX 1, or a disable that would strand calls, is an ``InvariantError``
    (``set_trx_enabled``); the module docstring shows that a run never asks
    for one.
    """
    if action == 0:
        return cell
    trx, enable = abs(action), action > 0
    # set_trx_enabled refuses a TRX out of range
    if trx <= cell.config.num_trx and cell.trx_enabled[trx - 1] == enable:
        raise InvariantError(f"TRX {trx} is already {'enabled' if enable else 'disabled'}")
    return set_trx_enabled(cell, trx, enable)


@dataclass
class CellTimeline:
    """What the outputs read of one cell's run, one entry per scan.

    ``offered`` is the trace's own array; ``blocked`` counts the calls that did
    not fit on the TRXs the scan before left enabled; ``active_trx`` is the
    enabled count after the scan's action, and ``actions`` the action itself,
    coded as ``scan_step`` returns it.
    The counters and the delay window are not kept: only the
    ``scan_step``/``apply_action`` replay has them per scan.
    """

    cell_id: str
    offered: np.ndarray
    blocked: np.ndarray
    active_trx: np.ndarray
    actions: np.ndarray

    @property
    def active_ts(self) -> np.ndarray:
        return self.active_trx * np.int16(SLOTS_PER_TRX)

    @property
    def n_scans(self) -> int:
        return len(self.actions)


def run_cell(config: CellConfig, params: PowerSavingParams, trace: TrafficTrace) -> CellTimeline:
    """Simulate one cell with power saving over a traffic trace.

    Each scan re-places the offered demand, then runs the counter logic and
    applies at most one switch action. ``_walk_counters`` finds the actions by
    jumping from event to event (see the module docstring). It sums and
    compares integers only, so every action falls on the scan where the
    ``scan_step``/``apply_action`` replay takes it. The enabled counts follow
    from the actions, and the blocked calls from the demand and the enabled
    count before each scan's action. The timeline keeps no counter or delay
    array.
    """
    demand = demand_series(trace.samples)
    n = len(demand)
    num_trx = config.num_trx
    actions = np.zeros(n, np.int16)
    _walk_counters(demand, config, params, actions)

    active_trx = np.cumsum(np.sign(actions), dtype=np.int16)
    active_trx += num_trx
    # calls are placed before the scan's action, on the TRXs the scan before left enabled
    capacity = np.empty(n, np.int32)
    capacity[0] = num_trx
    capacity[1:] = active_trx[:-1]
    capacity *= SLOTS_PER_TRX
    capacity -= config.cch_slots
    blocked = demand  # demand - min(demand, capacity), in place
    blocked -= capacity
    np.maximum(blocked, 0, out=blocked)
    return CellTimeline(
        cell_id=config.cell_id,
        offered=trace.samples,
        blocked=blocked,
        active_trx=active_trx,
        actions=actions,
    )


# Scans looked ahead from a segment's start. A window with no event doubles the
# next one, up to MAX_WINDOW, so a quiet day costs a few dozen numpy calls.
FIRST_WINDOW = 64
MAX_WINDOW = 1 << 14


def _walk_counters(
    demand: np.ndarray,
    config: CellConfig,
    params: PowerSavingParams,
    actions: np.ndarray,
) -> None:
    """Fill a run's actions, event by event.

    Each window's counters go into two scratch buffers, as long as the longest
    window walked so far, so a cell with dense events never holds a
    ``MAX_WINDOW`` one. Only each counter's value at the event scan, or at the
    window's last scan, is carried on; a counter that is not walked (delay
    window, no TRX to switch) keeps its carried value. The steps' prefix sums
    of the current enabled count are held between events, each side built the
    first time it is walked at that count, so a cell that never leaves
    ``num_trx`` never builds its on side.

    Enabled TRXs always form the prefix 1..enabled, because disables pick the
    highest index and enables the lowest disabled one, so the enabled count is
    the whole cell state besides the counters.
    """
    n = len(demand)
    num_trx, cch, h = config.num_trx, config.cch_slots, params.hysteresis
    dtype = np.int32 if (n + 1) * DECAY_STEP < 2**31 else np.int64  # steps are +1 or -DECAY_STEP
    # targets of the sums' own type compare faster than Python ints
    on_target, off_target = dtype(params.trx_on_target), dtype(params.trx_off_target)
    kept: dict[tuple[bool, int], np.ndarray] = {}

    def prefix_sums(on: bool, enabled: int) -> np.ndarray:
        """Counter steps of every scan on ``enabled`` TRXs, summed from scan 0."""
        sums = kept.get((on, enabled))
        if sums is None:
            cap = enabled * SLOTS_PER_TRX - cch
            if on:  # idle < h, with idle = max(cap - demand, 0) and h >= 1
                up = demand > cap - h
            else:  # idle > h + 9
                up = demand < cap - h - FIXED_OFFSET
            sums = np.zeros(n + 1, dtype)
            np.cumsum(np.where(up, np.int8(1), np.int8(-DECAY_STEP)), dtype=dtype, out=sums[1:])
            kept[on, enabled] = sums
        return sums

    on_walk = off_walk = low = np.empty(0, dtype)

    def first_fire(sums: np.ndarray, start: int, stop: int, counter: int, target: np.integer,
                   walk: np.ndarray) -> int:
        """Walk a counter that holds ``counter`` before scan ``start`` over the scans
        [start, stop), leaving its value after scan ``start + i`` in ``walk[i + 1]``;
        the first scan where it reaches ``target``, or stop.

        C_t = max(C_{t-1} + x_t, 0) is P_t - min(-C, min_{start<=k<=t} P_k), where P
        sums the steps x from ``start`` (Lindley's recursion, in closed form).
        ``walk[0]`` holds -C, so it is 0 after the running minimum is taken off,
        below any target: a first hit at 0 is no hit.
        """
        k = stop - start + 1
        w, m = walk[:k], low[:k]
        np.subtract(sums[start:stop + 1], sums[start], out=w)
        w[0] = -counter
        np.minimum.accumulate(w, out=m)
        np.subtract(w, m, out=w)
        i = int((w >= target).argmax())
        return start + i - 1 if i else stop

    start, enabled, off_c, on_c, off_open = 0, num_trx, 0, 0, 0
    on_sums = off_sums = None  # of the current enabled count, once walked
    window = FIRST_WINDOW
    while start < n:
        stop = min(start + window, n)
        if len(low) <= stop - start:
            on_walk, off_walk, low = (np.empty(window + 1, dtype) for _ in range(3))
        on_at = off_at = stop
        on_walked = enabled < num_trx
        if on_walked:
            if on_sums is None:
                on_sums = prefix_sums(True, enabled)
            on_at = first_fire(on_sums, start, stop, on_c, on_target, on_walk)
        # off-checks stay suspended until the delay window after a disable has run out
        off_from = max(start, off_open)
        off_walked = enabled > 1 and off_from < stop
        if off_walked:
            if off_sums is None:
                off_sums = prefix_sums(False, enabled)
            off_at = first_fire(off_sums, off_from, stop, off_c, off_target, off_walk)
        at = min(on_at, off_at)
        if at == stop:  # no event: go on from the window's last scan
            at, window = stop - 1, min(2 * window, MAX_WINDOW)
        else:
            window = FIRST_WINDOW
        if on_walked:
            on_c = on_walk.item(at - start + 1)
        if off_walked and off_from <= at:
            off_c = off_walk.item(at - off_from + 1)
        if at == on_at:  # enable first on a tie, which the disjoint triggers never make
            enabled += 1
            actions[at] = enabled
            on_c = 0
            on_sums = off_sums = None
        elif at == off_at:
            actions[at] = -enabled
            enabled -= 1
            off_c = 0
            off_open = at + params.trx_off_delay + 1
            on_sums = off_sums = None
        start = at + 1
