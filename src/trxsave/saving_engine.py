"""TRX power-saving state machine.

The feature scans the cell every ~10 seconds and keeps two counters.

Switch-off: when more than one TRX is enabled and the post-disable delay
window is closed, a scan with ``idle > hysteresis + FIXED_OFFSET`` bumps the
off-counter by one; otherwise the counter drops by ``decay_step`` (floored at
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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cell_model import (
    SLOTS_PER_TRX,
    CellConfig,
    CellState,
    idle_tch_count,
    set_trx_enabled,
)
from .errors import ConfigurationError, DataError, InvariantError
from .traffic import TrafficTrace, demand_series

log = logging.getLogger(__name__)

FIXED_OFFSET = 9


@dataclass(frozen=True)
class PowerSavingParams:
    """The four tunable feature parameters plus the fixed constants.

    Vendor names: TRXOFFTARGET, TRXONTARGET, TRXOFFDELAY, BTSPSHYST.
    """

    trx_off_target: int = 50
    trx_on_target: int = 49
    trx_off_delay: int = 30
    hysteresis: int = 5
    fixed_offset: int = FIXED_OFFSET
    scan_period_s: float = 10.0
    decay_step: int = 3


def validate_params(p: PowerSavingParams) -> PowerSavingParams:
    """Check every parameter against its allowed range; return p unchanged."""
    if not 20 <= p.trx_off_target <= 100:
        raise ConfigurationError(f"trx_off_target must be in [20, 100], got {p.trx_off_target}")
    if not 20 <= p.trx_on_target <= 100:
        raise ConfigurationError(f"trx_on_target must be in [20, 100], got {p.trx_on_target}")
    if not 6 <= p.trx_off_delay <= 90:
        raise ConfigurationError(f"trx_off_delay must be in [6, 90], got {p.trx_off_delay}")
    if not 1 <= p.hysteresis <= 1014:
        raise ConfigurationError(f"hysteresis must be in [1, 1014], got {p.hysteresis}")
    if p.fixed_offset != FIXED_OFFSET:
        raise ConfigurationError(f"fixed_offset is the constant {FIXED_OFFSET}, got {p.fixed_offset}")
    if p.scan_period_s <= 0:
        raise ConfigurationError(f"scan_period_s must be > 0, got {p.scan_period_s}")
    if p.decay_step < 1:
        raise ConfigurationError(f"decay_step must be >= 1, got {p.decay_step}")
    return p


@dataclass(frozen=True)
class SavingState:
    """Counter state between scans."""

    off_counter: int = 0
    on_counter: int = 0
    delay_remaining: int = 0


ACTION_NONE = "none"
ACTION_DISABLE = "disable"
ACTION_ENABLE = "enable"


@dataclass(frozen=True)
class ScanAction:
    """Outcome of one scan: nothing, or toggle one TRX."""

    kind: str = ACTION_NONE
    trx: int = 0

    @classmethod
    def none(cls) -> "ScanAction":
        return cls()

    @classmethod
    def disable(cls, trx: int) -> "ScanAction":
        if trx <= 1:
            raise InvariantError("TRX 1 cannot be targeted for disable")
        return cls(ACTION_DISABLE, trx)

    @classmethod
    def enable(cls, trx: int) -> "ScanAction":
        return cls(ACTION_ENABLE, trx)


def _decay(counter: int, step: int) -> int:
    return counter - step if counter > step else 0


def scan_step(
    cell: CellState, saving: SavingState, p: PowerSavingParams
) -> tuple[SavingState, ScanAction]:
    """Evaluate one scan: update counters, decide on a switch action.

    Pure function over value types; the caller applies the action with
    :func:`apply_action`.
    """
    idle = idle_tch_count(cell)
    off_threshold = p.hysteresis + p.fixed_offset
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
            on_c = _decay(on_c, p.decay_step)

    disable_fires = False
    if enabled > 1 and delay_was_open:
        if idle > off_threshold:
            off_c += 1
            if off_c >= p.trx_off_target:
                disable_fires = True
        else:
            off_c = _decay(off_c, p.decay_step)

    action = ScanAction.none()
    if enable_fires:
        # switch-on takes priority over a simultaneous switch-off
        lowest_disabled = next(i + 1 for i, on in enumerate(cell.trx_enabled) if not on)
        action = ScanAction.enable(lowest_disabled)
    elif disable_fires:
        highest_enabled = max(i + 1 for i, on in enumerate(cell.trx_enabled) if on)
        action = ScanAction.disable(highest_enabled)
        off_c = 0
        delay = p.trx_off_delay

    return SavingState(off_counter=off_c, on_counter=on_c, delay_remaining=delay), action


def apply_action(cell: CellState, action: ScanAction) -> CellState:
    """Apply a scan action to the cell.

    A disable that would strand calls is downgraded to no action and logged;
    the stateless re-placement on the next scan would otherwise overflow.
    """
    if action.kind == ACTION_NONE:
        return cell
    if action.kind == ACTION_DISABLE:
        if action.trx == 1:
            raise InvariantError("refusing to disable TRX 1 (would take the cell down)")
        if not cell.trx_enabled[action.trx - 1]:
            raise InvariantError(f"TRX {action.trx} is already disabled")
        capacity_after = (cell.enabled_trx_count - 1) * SLOTS_PER_TRX - cell.config.cch_slots
        if cell.occupied_tch > capacity_after:
            log.warning(
                "cell %s: deferred disable of TRX %d (%d calls exceed %d TCH)",
                cell.config.cell_id, action.trx, cell.occupied_tch, capacity_after,
            )
            return cell
        return set_trx_enabled(cell, action.trx, False)
    if action.kind == ACTION_ENABLE:
        if cell.trx_enabled[action.trx - 1]:
            raise InvariantError(f"TRX {action.trx} is already enabled")
        return set_trx_enabled(cell, action.trx, True)
    raise InvariantError(f"unknown action kind {action.kind!r}")


# action codes in CellTimeline.actions: 0 none, +i enable TRX i, -i disable TRX i


@dataclass
class CellTimeline:
    """Per-scan record of one cell's simulation run.

    Arrays are parallel, one entry per scan; counters and enable state are
    recorded after the scan's action has been applied.
    """

    cell_id: str
    config: CellConfig
    params: PowerSavingParams
    ps_enabled: bool
    scan_period_s: float
    offered: np.ndarray
    demand: np.ndarray
    occupied: np.ndarray
    blocked: np.ndarray
    active_trx: np.ndarray
    active_ts: np.ndarray
    off_counter: np.ndarray
    on_counter: np.ndarray
    delay_remaining: np.ndarray
    actions: np.ndarray

    @property
    def n_scans(self) -> int:
        return len(self.demand)


def run_cell(
    config: CellConfig,
    params: PowerSavingParams,
    trace: TrafficTrace,
    ps_enabled: bool = True,
) -> CellTimeline:
    """Simulate one cell over a traffic trace.

    Each scan re-places the offered demand, then (when power saving is on)
    runs the counter logic and applies at most one switch action. With
    ``ps_enabled=False`` every TRX stays enabled for the whole run.
    """
    config.validate()
    validate_params(params)
    trace.validate()
    if len(trace.samples) == 0:
        raise DataError(f"cell {config.cell_id!r}: empty traffic trace")

    demand = demand_series(trace.samples)
    n = len(demand)
    num_trx = config.num_trx
    cch = config.cch_slots
    full_capacity = num_trx * SLOTS_PER_TRX - cch

    if not ps_enabled:
        occupied = np.minimum(demand, full_capacity)
        blocked = demand - occupied
        zeros = np.zeros(n, dtype=np.int32)
        return CellTimeline(
            cell_id=config.cell_id,
            config=config,
            params=params,
            ps_enabled=False,
            scan_period_s=trace.scan_period_s,
            offered=trace.samples,
            demand=demand,
            occupied=occupied.astype(np.int32),
            blocked=blocked.astype(np.int32),
            active_trx=np.full(n, num_trx, dtype=np.int16),
            active_ts=np.full(n, num_trx * SLOTS_PER_TRX, dtype=np.int16),
            off_counter=zeros,
            on_counter=zeros.copy(),
            delay_remaining=zeros.copy(),
            actions=np.zeros(n, dtype=np.int16),
        )

    # Hot loop over plain ints; mirrors scan_step()/apply_action() exactly
    # (cross-checked by the replay property test). Enabled TRXs always form
    # the prefix 1..enabled because disables pick the highest index and
    # enables the lowest disabled one.
    off_threshold = params.hysteresis + params.fixed_offset
    on_threshold = params.hysteresis
    off_target = params.trx_off_target
    on_target = params.trx_on_target
    off_delay = params.trx_off_delay
    decay = params.decay_step

    enabled = num_trx
    off_c = 0
    on_c = 0
    delay = 0

    occupied_l: list[int] = []
    blocked_l: list[int] = []
    active_l: list[int] = []
    off_l: list[int] = []
    on_l: list[int] = []
    delay_l: list[int] = []
    action_l: list[int] = []
    demand_list = demand.tolist()

    for d in demand_list:
        cap = enabled * SLOTS_PER_TRX - cch
        occ = d if d < cap else cap
        idle = cap - occ

        delay_was_open = delay == 0
        if delay > 0:
            delay -= 1

        act = 0
        enable_fires = False
        if enabled < num_trx:
            if idle < on_threshold:
                on_c += 1
                if on_c >= on_target:
                    enable_fires = True
                    on_c = 0
            elif on_c:
                on_c = on_c - decay if on_c > decay else 0

        disable_fires = False
        if enabled > 1 and delay_was_open:
            if idle > off_threshold:
                off_c += 1
                if off_c >= off_target:
                    disable_fires = True
            elif off_c:
                off_c = off_c - decay if off_c > decay else 0

        if enable_fires:
            enabled += 1
            act = enabled
        elif disable_fires:
            off_c = 0
            delay = off_delay
            if occ <= (enabled - 1) * SLOTS_PER_TRX - cch:
                act = -enabled
                enabled -= 1
            else:
                log.warning(
                    "cell %s: deferred disable of TRX %d under load", config.cell_id, enabled
                )

        occupied_l.append(occ)
        blocked_l.append(d - occ)
        active_l.append(enabled)
        off_l.append(off_c)
        on_l.append(on_c)
        delay_l.append(delay)
        action_l.append(act)

    active_trx = np.asarray(active_l, dtype=np.int16)
    return CellTimeline(
        cell_id=config.cell_id,
        config=config,
        params=params,
        ps_enabled=True,
        scan_period_s=trace.scan_period_s,
        offered=trace.samples,
        demand=demand,
        occupied=np.asarray(occupied_l, dtype=np.int32),
        blocked=np.asarray(blocked_l, dtype=np.int32),
        active_trx=active_trx,
        active_ts=(active_trx.astype(np.int32) * SLOTS_PER_TRX).astype(np.int16),
        off_counter=np.asarray(off_l, dtype=np.int32),
        on_counter=np.asarray(on_l, dtype=np.int32),
        delay_remaining=np.asarray(delay_l, dtype=np.int32),
        actions=np.asarray(action_l, dtype=np.int16),
    )
