"""The steam boiler's test model, for the property-based test engine.

build_sut_model_spec states the model's variables, their types and its
initial state, and build_boiler_binding the operations that move it,
each an action over those variables that the explorer's walk steps.
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
from .values import BOOLEANS, FALSE, TRUE


VARIABLES = ("running", "level", "pump", "signal")


def reference_adapter(mutant: str | None = None) -> InProcessAdapter:
    return InProcessAdapter(build_system(mutant))


def build_sut_model_spec() -> sp.TemporalSpec:
    """Model state space for the API tests: the executive flag, the
    tank level, the pump state and the last emitted control signal
    (-1 before any signal).  The spec has no actions: the model moves by
    the actions of build_boiler_binding's operations."""
    running, level, pump, signal = map(sp.Var, VARIABLES)
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
        variables=VARIABLES,
        init=init,
        actions=(),
        invariants=(("TypeOK", type_ok),),
    )


def _becomes(name: str, value: sp.Expr) -> sp.Expr:
    return sp.Eq(sp.Primed(name), value)


def _steps(**values: sp.Expr) -> sp.Expr:
    """The conjunction of `v' = e` over the model's variables, where `e` is
    the expression `values` gives `v`, or `v` itself: a variable the
    action does not name keeps its value."""
    return sp.conj(*(_becomes(name, values.get(name, sp.Var(name)))
                     for name in VARIABLES))


def build_boiler_binding(low: int = LOW_DEFAULT,
                         high: int = HIGH_DEFAULT) -> ModelBinding:
    """Bind the nine boiler API operations to the model, starting from
    the one state its spec's Init admits.  Each reply is the next state
    read at the operation's observed variables."""
    if not low < high:
        raise ValueError(f"thresholds low={low}, high={high} are not ordered")
    (initial,) = initial_states(build_sut_model_spec(), {})
    running, level, pump, signal = map(sp.Var, VARIABLES)
    true, false = sp.Const(TRUE), sp.Const(FALSE)
    unchanged = _steps()
    # The level moves by `amount` and stops at the tank's bounds.
    moved = sp.Add(level, sp.Var("amount"))
    below = sp.Lt(moved, sp.intval(TANK_MIN))
    above = sp.Gt(moved, sp.intval(TANK_MAX))
    tank = sp.disj(
        sp.And(below, _becomes("level", sp.intval(TANK_MIN))),
        sp.And(above, _becomes("level", sp.intval(TANK_MAX))),
        sp.conj(sp.Not(below), sp.Not(above), _becomes("level", moved)))
    # Then the controller opens the pump at `low` and closes it at `high`,
    # and signals which it did; else the pump and the signal stay.
    opens = sp.And(sp.Not(pump), sp.Le(sp.Primed("level"), sp.intval(low)))
    closes = sp.And(pump, sp.Ge(sp.Primed("level"), sp.intval(high)))
    controller = sp.disj(
        sp.conj(opens, _becomes("pump", true),
                _becomes("signal", sp.intval(1))),
        sp.conj(closes, _becomes("pump", false),
                _becomes("signal", sp.intval(0))),
        sp.conj(sp.Not(opens), sp.Not(closes), _becomes("pump", pump),
                _becomes("signal", signal)))
    level_changed = sp.conj(_becomes("running", running), tank, controller)
    alphabet = (
        OpSpec("startSystem", sp.Not(running),
               _steps(running=true, level=sp.intval(START_LEVEL), pump=false,
                      signal=sp.intval(-1)),
               observes=("level", "pump")),
        OpSpec("endSystem", running, _steps(running=false)),
        OpSpec("pumpDidOpen", sp.And(running, pump), unchanged,
               observes=("pump",)),
        OpSpec("openPump", sp.And(running, sp.Not(pump)), _steps(pump=true),
               observes=("pump",)),
        OpSpec("pumpDidClose", sp.And(running, sp.Not(pump)), unchanged,
               observes=("pump",)),
        OpSpec("closePump", sp.And(running, pump), _steps(pump=false),
               observes=("pump",)),
        OpSpec("waterLevelDidChange", running, level_changed,
               args=(ArgSpec("amount",
                             sp.IntRange(sp.intval(-100), sp.intval(100))),),
               weight=4, observes=("level", "pump", "signal")),
        OpSpec("checkWaterLevel", running, unchanged, weight=2,
               observes=("level",)),
        OpSpec("controlSignalDidChange",
               sp.And(running, sp.Ge(signal, sp.intval(0))), unchanged,
               args=(ArgSpec("val", sp.SetLit((signal,))),),
               observes=("signal",)),
    )
    return ModelBinding(initial, alphabet)
