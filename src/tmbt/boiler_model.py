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
from .values import BOOLEANS, FALSE, TRUE, BoolVal, IntVal


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
    sig = sp.Var("sig")
    booleans = sp.Const(BOOLEANS)
    type_ok = sp.conj(
        sp.In(running, booleans),
        sp.In(level, sp.IntRange(sp.intval(TANK_MIN), sp.intval(TANK_MAX))),
        sp.In(pump, booleans),
        sp.In(sig, sp.IntRange(sp.intval(-1), sp.intval(1))),
    )
    init = sp.conj(
        sp.Eq(running, sp.Const(FALSE)),
        sp.Eq(level, sp.intval(START_LEVEL)),
        sp.Eq(pump, sp.Const(FALSE)),
        sp.Eq(sig, sp.intval(-1)),
    )
    return sp.TemporalSpec(
        name="boiler-api",
        variables=("running", "level", "pump", "sig"),
        init=init,
        actions=(),
        invariants=(("TypeOK", type_ok),),
    )


def _clamp(level: int) -> int:
    return max(TANK_MIN, min(TANK_MAX, level))


def _controller(level: int, pump: bool, sig, low: int, high: int):
    if not pump and level <= low:
        return True, IntVal(1)
    if pump and level >= high:
        return False, IntVal(0)
    return pump, sig


def _started(state: sp.State, args: dict):
    nxt = state.replace(running=TRUE, level=IntVal(START_LEVEL),
                        pump=FALSE, sig=IntVal(-1))
    return nxt, {"level": IntVal(START_LEVEL), "pump": FALSE}


def _ended(state: sp.State, args: dict):
    return state.replace(running=FALSE), {}


def _pump_set(value: bool):
    def effect(state: sp.State, args: dict):
        return state.replace(pump=BoolVal(value)), {"pump": BoolVal(value)}
    return effect


def _pump_query(state: sp.State, args: dict):
    return state, {"pump": state["pump"]}


def _level_query(state: sp.State, args: dict):
    return state, {"level": state["level"]}


def _signal_query(state: sp.State, args: dict):
    return state, {"signal": state["sig"]}


def _level_changed(low: int, high: int):
    def effect(state: sp.State, args: dict):
        level = _clamp(state["level"].value + args["amount"].value)
        pump, sig = _controller(level, state["pump"].value, state["sig"],
                                low, high)
        nxt = state.replace(level=IntVal(level), pump=BoolVal(pump), sig=sig)
        return nxt, {"level": IntVal(level), "pump": BoolVal(pump),
                     "signal": sig}
    return effect


def build_boiler_binding(low: int = LOW_DEFAULT,
                         high: int = HIGH_DEFAULT) -> ModelBinding:
    """Bind the nine boiler API operations to the model, starting from
    the one state its spec's Init admits."""
    (initial,) = initial_states(build_sut_model_spec(), {})
    running = sp.Var("running")
    pump = sp.Var("pump")
    sig = sp.Var("sig")
    run_only = running
    alphabet = (
        OpSpec("startSystem", sp.Not(running), _started),
        OpSpec("endSystem", run_only, _ended),
        OpSpec("pumpDidOpen", sp.And(running, pump), _pump_query),
        OpSpec("openPump", sp.And(running, sp.Not(pump)), _pump_set(True)),
        OpSpec("pumpDidClose", sp.And(running, sp.Not(pump)), _pump_query),
        OpSpec("closePump", sp.And(running, pump), _pump_set(False)),
        OpSpec("waterLevelDidChange", run_only, _level_changed(low, high),
               args=(ArgSpec("amount",
                             sp.IntRange(sp.intval(-100), sp.intval(100))),),
               weight=4),
        OpSpec("checkWaterLevel", run_only, _level_query, weight=2),
        OpSpec("controlSignalDidChange",
               sp.And(running, sp.Ge(sig, sp.intval(0))), _signal_query,
               args=(ArgSpec("val", sp.SetLit((sig,))),)),
    )
    return ModelBinding(initial, alphabet)
