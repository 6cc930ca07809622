"""GSM cell channel model.

A cell carries ``num_trx`` transceivers of 8 TDMA time slots each. The first
``cch_slots`` slots of TRX 1 are reserved for control channels; every other
slot is a traffic channel (TCH) that can hold one call. TRX 1 can never be
switched off because the control channels live there.

Call placement is stateless: each scan the current demand is re-placed onto
the enabled TCH slots, either packed (lowest slot index first) or scattered
(seeded uniform choice). Occupied/blocked counts are identical for both
strategies; only the slot positions differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, InvariantError

SLOTS_PER_TRX = 8

MAX_TRX = 12
MAX_CCH = 3


@dataclass(frozen=True)
class CellConfig:
    """Static cell layout: transceiver count and control-channel reservation."""

    cell_id: str
    num_trx: int
    cch_slots: int = 3

    def validate(self) -> "CellConfig":
        if not 1 <= self.num_trx <= MAX_TRX:
            raise ConfigurationError(
                f"cell {self.cell_id!r}: num_trx must be in [1, {MAX_TRX}], got {self.num_trx}"
            )
        if not 1 <= self.cch_slots <= MAX_CCH:
            raise ConfigurationError(
                f"cell {self.cell_id!r}: cch_slots must be in [1, {MAX_CCH}], got {self.cch_slots}"
            )
        return self

    @property
    def total_slots(self) -> int:
        return self.num_trx * SLOTS_PER_TRX

    @property
    def total_tch(self) -> int:
        return self.total_slots - self.cch_slots


@dataclass(frozen=True)
class MappingStrategy:
    """How calls map onto physical slots: ``packed`` or ``scattered``.

    Scattered placement models slot choice by radio quality, which is not
    observable here, as a seeded uniform pick over free TCH slots.
    """

    kind: str
    seed: int = 0

    @classmethod
    def packed(cls) -> "MappingStrategy":
        return cls("packed")

    @classmethod
    def scattered(cls, seed: int = 0) -> "MappingStrategy":
        return cls("scattered", seed)

    def validate(self) -> "MappingStrategy":
        if self.kind not in ("packed", "scattered"):
            raise ConfigurationError(f"unknown mapping strategy {self.kind!r}")
        return self


@dataclass(frozen=True)
class CellState:
    """Live cell state: per-TRX enable flags, call count, slot occupancy.

    ``trx_enabled[i]`` covers TRX ``i + 1`` (TRX indices are 1-based in all
    public APIs, matching radio-engineering convention). ``slot_map[s]`` is
    True when global slot ``s`` holds a call; control slots are never mapped.
    """

    config: CellConfig
    trx_enabled: tuple[bool, ...]
    occupied_tch: int
    slot_map: tuple[bool, ...]

    @property
    def enabled_trx_count(self) -> int:
        return sum(self.trx_enabled)

    @property
    def enabled_tch_capacity(self) -> int:
        return self.enabled_trx_count * SLOTS_PER_TRX - self.config.cch_slots

    def enabled_tch_slots(self) -> list[int]:
        """Global indices of TCH slots on enabled TRXs, ascending.

        Control channels occupy global slots 0..cch_slots-1 (on TRX 1).
        """
        slots = []
        for trx in range(self.config.num_trx):
            if not self.trx_enabled[trx]:
                continue
            start = trx * SLOTS_PER_TRX
            for s in range(start, start + SLOTS_PER_TRX):
                if s >= self.config.cch_slots:
                    slots.append(s)
        return slots


def build_cell(config: CellConfig) -> CellState:
    """Create a fresh cell: all TRXs enabled, no calls."""
    config.validate()
    return CellState(
        config=config,
        trx_enabled=(True,) * config.num_trx,
        occupied_tch=0,
        slot_map=(False,) * config.total_slots,
    )


def place_calls(
    state: CellState, demand: int, strategy: MappingStrategy
) -> tuple[CellState, int]:
    """Re-place ``demand`` calls onto the enabled TCH slots.

    Returns the new state and the number of blocked calls. Overload is not an
    error; calls that do not fit are counted as blocked.
    """
    if demand < 0:
        raise DataError(f"demand must be >= 0, got {demand}")
    strategy.validate()
    capacity = state.enabled_tch_capacity
    occupied = min(demand, capacity)
    blocked = demand - occupied

    free = state.enabled_tch_slots()
    if strategy.kind == "packed":
        taken = free[:occupied]
    else:
        rng = np.random.default_rng(strategy.seed)
        idx = rng.choice(len(free), size=occupied, replace=False)
        taken = [free[i] for i in idx]

    slot_map = [False] * state.config.total_slots
    for s in taken:
        slot_map[s] = True
    new_state = replace(state, occupied_tch=occupied, slot_map=tuple(slot_map))
    return new_state, blocked


def idle_tch_count(state: CellState) -> int:
    """Idle traffic channels on the currently enabled TRXs."""
    return state.enabled_tch_capacity - state.occupied_tch


def set_trx_enabled(state: CellState, trx_index: int, enabled: bool) -> CellState:
    """Toggle one TRX's enable flag; keeps the slot map consistent.

    TRX 1 cannot be disabled. Disabling a TRX re-packs the current calls onto
    the remaining enabled TRXs in packed order.
    """
    if not 1 <= trx_index <= state.config.num_trx:
        raise InvariantError(
            f"TRX index {trx_index} out of range for {state.config.num_trx}-TRX cell"
        )
    if trx_index == 1 and not enabled:
        raise InvariantError("TRX 1 carries the control channels and cannot be disabled")
    flags = list(state.trx_enabled)
    flags[trx_index - 1] = enabled
    new_state = replace(state, trx_enabled=tuple(flags))
    if not enabled:
        if state.occupied_tch > new_state.enabled_tch_capacity:
            raise InvariantError(
                f"disabling TRX {trx_index} would strand "
                f"{state.occupied_tch - new_state.enabled_tch_capacity} call(s)"
            )
        # re-pack calls off the disabled TRX
        new_state, _ = place_calls(new_state, state.occupied_tch, MappingStrategy.packed())
    return new_state
