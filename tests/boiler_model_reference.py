"""The steam boiler's test model as Python callables, as
`tmbt.boiler_model` stated it before its operations became actions that
the explorer's walk steps.

Each operation's `effect(state, args)` returned the next model state.
`effects(low, high)` maps each operation's name to its effect.  The
effects are as they were, except that `State.replace`, which only they
called, is `_replace` here.  test_pbt.py holds the walked actions to
these effects.
"""

from __future__ import annotations

import tmbt.spec as sp
from tmbt.boiler import START_LEVEL, TANK_MAX, TANK_MIN
from tmbt.values import FALSE, TRUE, BoolVal


def _replace(state: sp.State, **changes) -> sp.State:
    """`state` with the variables of `changes` given new values."""
    return sp.State({**state.as_dict(), **changes})


def _clamp(level: int) -> int:
    return max(TANK_MIN, min(TANK_MAX, level))


def _controller(level: int, pump: bool, signal, low: int, high: int):
    if not pump and level <= low:
        return True, 1
    if pump and level >= high:
        return False, 0
    return pump, signal


def _started(state: sp.State, args: dict) -> sp.State:
    return _replace(state, running=TRUE, level=START_LEVEL, pump=FALSE,
                    signal=-1)


def _ended(state: sp.State, args: dict) -> sp.State:
    return _replace(state, running=FALSE)


def _pump_set(value: bool):
    def effect(state: sp.State, args: dict) -> sp.State:
        return _replace(state, pump=BoolVal(value))
    return effect


def _unchanged(state: sp.State, args: dict) -> sp.State:
    return state


def _level_changed(low: int, high: int):
    def effect(state: sp.State, args: dict) -> sp.State:
        level = _clamp(state["level"] + args["amount"])
        pump, signal = _controller(level, state["pump"].value,
                                   state["signal"], low, high)
        return _replace(state, level=level, pump=BoolVal(pump),
                        signal=signal)
    return effect


def effects(low: int, high: int) -> dict:
    """Each operation's effect, by name, at thresholds `low` and `high`."""
    return {
        "startSystem": _started,
        "endSystem": _ended,
        "pumpDidOpen": _unchanged,
        "openPump": _pump_set(True),
        "pumpDidClose": _unchanged,
        "closePump": _pump_set(False),
        "waterLevelDidChange": _level_changed(low, high),
        "checkWaterLevel": _unchanged,
        "controlSignalDidChange": _unchanged,
    }
