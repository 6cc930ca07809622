"""GSM cell channel model.

A cell carries ``num_trx`` transceivers of 8 TDMA time slots each. The first
``cch_slots`` slots of TRX 1 are reserved for control channels; every other
slot is a traffic channel (TCH) that can hold one call. TRX 1 can never be
switched off because the control channels live there.

Call placement is stateless capacity arithmetic; slot positions are not
modelled, because occupancy and blocking depend only on the call count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


class MappingStrategy:
    """A field-less stub kept only because the benchmark's bursty-churn replay
    (``bench/workloads.py``) imports it and passes ``MappingStrategy.packed()``
    to :func:`place_calls`, which ignores it."""

    @classmethod
    def packed(cls) -> "MappingStrategy":
        return cls()


@dataclass(frozen=True)
class CellState:
    """Live cell state: per-TRX enable flags and the call count.

    ``trx_enabled[i]`` covers TRX ``i + 1`` (TRX indices are 1-based in all
    public APIs, matching radio-engineering convention).
    """

    config: CellConfig
    trx_enabled: tuple[bool, ...]
    occupied_tch: int

    @property
    def enabled_trx_count(self) -> int:
        return self.trx_enabled.count(True)

    @property
    def enabled_tch_capacity(self) -> int:
        return self.enabled_trx_count * SLOTS_PER_TRX - self.config.cch_slots


def build_cell(config: CellConfig) -> CellState:
    """Create a fresh cell: all TRXs enabled, no calls."""
    config.validate()
    return CellState(config=config, trx_enabled=(True,) * config.num_trx, occupied_tch=0)


def place_calls(
    state: CellState, demand: int, _strategy: object = None
) -> tuple[CellState, int]:
    """Place ``demand`` calls on the enabled TCHs, up to their capacity.

    Returns the new state and the number of blocked calls. Overload is not an
    error; calls that do not fit are counted as blocked. The optional third
    argument is ignored: it is accepted only because the benchmark's replay
    (``bench/workloads.py``) passes ``MappingStrategy.packed()``.
    """
    if demand < 0:
        raise DataError(f"demand must be >= 0, got {demand}")
    occupied = min(demand, state.enabled_tch_capacity)
    return replace(state, occupied_tch=occupied), demand - occupied


def idle_tch_count(state: CellState) -> int:
    """Idle traffic channels on the currently enabled TRXs."""
    return state.enabled_tch_capacity - state.occupied_tch


def set_trx_enabled(state: CellState, trx_index: int, enabled: bool) -> CellState:
    """Toggle one TRX's enable flag.

    TRX 1 cannot be disabled, and neither can a TRX whose loss would leave
    fewer TCHs than calls.
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
    if not enabled and state.occupied_tch > new_state.enabled_tch_capacity:
        raise InvariantError(
            f"disabling TRX {trx_index} would strand "
            f"{state.occupied_tch - new_state.enabled_tch_capacity} call(s)"
        )
    return new_state
