"""The steam boiler's test model, for the property-based test engine.

build_sut_model_spec states the model's variables, their types and its
initial state, and build_boiler_binding the operations that move it.
The model is kept apart from the system under test, tmbt.boiler, on
purpose, since agreement between the two is exactly what the tests
establish.
"""

from __future__ import annotations

from . import spec as sp
from .boiler import (
    HIGH_DEFAULT,
    LOW_DEFAULT,
    START_LEVEL,
    TANK_MAX,
    TANK_MIN,
    build_system,
)
from .explore import initial_states
from .pbt import ArgSpec, InProcessAdapter, ModelBinding, OpSpec
from .values import BOOLEANS, FALSE, TRUE, BoolVal


def reference_adapter(mutant: str | None = None) -> InProcessAdapter:
    return InProcessAdapter(build_system(mutant))


def build_sut_model_spec() -> sp.TemporalSpec:
    """Model state space for the API tests: the executive flag, the
    tank level, the pump state and the last emitted control signal
    (-1 before any signal).  The spec has no actions: the model's
    transitions are the operations of build_boiler_binding."""
    running = sp.Var("running")
    level = sp.Var("level")
    pump = sp.Var("pump")
    signal = sp.Var("signal")
    booleans = sp.Const(BOOLEANS)
    type_ok = sp.conj(
        sp.In(running, booleans),
        sp.In(level, sp.IntRange(sp.intval(TANK_MIN), sp.intval(TANK_MAX))),
        sp.In(pump, booleans),
        sp.In(signal, sp.IntRange(sp.intval(-1), sp.intval(1))),
    )
    init = sp.conj(
        sp.Eq(running, sp.Const(FALSE)),
        sp.Eq(level, sp.intval(START_LEVEL)),
        sp.Eq(pump, sp.Const(FALSE)),
        sp.Eq(signal, sp.intval(-1)),
    )
    return sp.TemporalSpec(
        name="boiler-api",
        variables=("running", "level", "pump", "signal"),
        init=init,
        actions=(),
        invariants=(("TypeOK", type_ok),),
    )


def _clamp(level: int) -> int:
    return max(TANK_MIN, min(TANK_MAX, level))


def _controller(level: int, pump: bool, signal, low: int, high: int):
    if not pump and level <= low:
        return True, 1
    if pump and level >= high:
        return False, 0
    return pump, signal


def _started(state: sp.State, args: dict) -> sp.State:
    return state.replace(running=TRUE, level=START_LEVEL, pump=FALSE,
                         signal=-1)


def _ended(state: sp.State, args: dict) -> sp.State:
    return state.replace(running=FALSE)


def _pump_set(value: bool):
    def effect(state: sp.State, args: dict) -> sp.State:
        return state.replace(pump=BoolVal(value))
    return effect


def _unchanged(state: sp.State, args: dict) -> sp.State:
    return state


def _level_changed(low: int, high: int):
    def effect(state: sp.State, args: dict) -> sp.State:
        level = _clamp(state["level"] + args["amount"])
        pump, signal = _controller(level, state["pump"].value,
                                   state["signal"], low, high)
        return state.replace(level=level, pump=BoolVal(pump),
                             signal=signal)
    return effect


def build_boiler_binding(low: int = LOW_DEFAULT,
                         high: int = HIGH_DEFAULT) -> ModelBinding:
    """Bind the nine boiler API operations to the model, starting from
    the one state its spec's Init admits.  Each reply is the next state
    read at the operation's observed variables."""
    if not low < high:
        raise ValueError(f"thresholds low={low}, high={high} are not ordered")
    (initial,) = initial_states(build_sut_model_spec(), {})
    running = sp.Var("running")
    pump = sp.Var("pump")
    signal = sp.Var("signal")
    alphabet = (
        OpSpec("startSystem", sp.Not(running), _started,
               observes=("level", "pump")),
        OpSpec("endSystem", running, _ended),
        OpSpec("pumpDidOpen", sp.And(running, pump), _unchanged,
               observes=("pump",)),
        OpSpec("openPump", sp.And(running, sp.Not(pump)), _pump_set(True),
               observes=("pump",)),
        OpSpec("pumpDidClose", sp.And(running, sp.Not(pump)), _unchanged,
               observes=("pump",)),
        OpSpec("closePump", sp.And(running, pump), _pump_set(False),
               observes=("pump",)),
        OpSpec("waterLevelDidChange", running, _level_changed(low, high),
               args=(ArgSpec("amount",
                             sp.IntRange(sp.intval(-100), sp.intval(100))),),
               weight=4, observes=("level", "pump", "signal")),
        OpSpec("checkWaterLevel", running, _unchanged, weight=2,
               observes=("level",)),
        OpSpec("controlSignalDidChange",
               sp.And(running, sp.Ge(signal, sp.intval(0))), _unchanged,
               args=(ArgSpec("val", sp.SetLit((signal,))),),
               observes=("signal",)),
    )
    return ModelBinding(initial, alphabet)
