"""Steam-boiler system under test, its test model, and the SUT executable.

BoilerSystem is the implementation being tested: a small imperative
state machine behind the nine-operation control API.  The model side
describes the same behavior for the property-based test engine:
build_sut_model_spec states the model's variables, their types and its
initial state, and build_boiler_binding the operations that move it.
The two sides are kept separate on purpose, since agreement between
them is exactly what the tests establish.

Two seeded faults are available for exercising the engine:
  band   the controller reacts at 190/810 instead of the configured
         thresholds, allowing the water level outside the safe band
  pump   operator pump commands are silently ignored (the automatic
         controller still works)
"""

from __future__ import annotations

import json
import sys

from . import spec as sp
from .explore import initial_states
from .pbt import ArgSpec, InProcessAdapter, ModelBinding, OpSpec
from .values import BOOLEANS, FALSE, TRUE, BoolVal, IntVal

LOW_DEFAULT = 300
HIGH_DEFAULT = 700

TANK_MIN = 0
TANK_MAX = 1000
START_LEVEL = 500

OP_NAMES = (
    "startSystem", "endSystem", "pumpDidOpen", "openPump",
    "pumpDidClose", "closePump", "waterLevelDidChange",
    "checkWaterLevel", "controlSignalDidChange",
)


# ---------------------------------------------------------------------------
# The system under test


class BoilerSystem:
    """Reference implementation of the boiler control API.

    handle() speaks plain JSON data and raises ValueError for faults,
    matching the adapter contract.
    """

    def __init__(self, low: int = LOW_DEFAULT, high: int = HIGH_DEFAULT,
                 ignore_pump_commands: bool = False):
        self.low = low
        self.high = high
        self.ignore_pump_commands = ignore_pump_commands
        self.reset()

    def reset(self) -> None:
        self.running = False
        self.level = START_LEVEL
        self.pump = False
        self.signal = -1

    def _react(self) -> None:
        if not self.pump and self.level <= self.low:
            self.pump = True
            self.signal = 1
        elif self.pump and self.level >= self.high:
            self.pump = False
            self.signal = 0

    def handle(self, op: str, args: dict) -> dict:
        if op == "startSystem":
            if self.running:
                raise ValueError("system already running")
            self.running = True
            self.level = START_LEVEL
            self.pump = False
            self.signal = -1
            return {"level": self.level, "pump": self.pump}
        if op not in OP_NAMES:
            raise ValueError(f"unknown operation {op!r}")
        if not self.running:
            raise ValueError(f"{op} before startSystem")
        if op == "endSystem":
            self.running = False
            return {}
        if op == "openPump":
            if not self.ignore_pump_commands:
                self.pump = True
            return {"pump": self.pump}
        if op == "closePump":
            if not self.ignore_pump_commands:
                self.pump = False
            return {"pump": self.pump}
        if op == "pumpDidOpen" or op == "pumpDidClose":
            return {"pump": self.pump}
        if op == "waterLevelDidChange":
            amount = args["amount"]
            self.level = max(TANK_MIN, min(TANK_MAX, self.level + amount))
            self._react()
            return {"level": self.level, "pump": self.pump,
                    "signal": self.signal}
        if op == "checkWaterLevel":
            return {"level": self.level}
        # controlSignalDidChange: the environment reports the signal it
        # saw; the reply is the signal this system last emitted.
        return {"signal": self.signal}


def build_system(mutant: str | None = None) -> BoilerSystem:
    if mutant is None:
        return BoilerSystem()
    if mutant == "band":
        return BoilerSystem(low=190, high=810)
    if mutant == "pump":
        return BoilerSystem(ignore_pump_commands=True)
    raise ValueError(f"unknown mutant {mutant!r}")


def reference_adapter(mutant: str | None = None) -> InProcessAdapter:
    return InProcessAdapter(build_system(mutant))


# ---------------------------------------------------------------------------
# The test model


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


# ---------------------------------------------------------------------------
# Subprocess entry point


def main(argv=None) -> int:
    """Serve the adapter wire protocol on stdin/stdout."""
    import argparse  # only the SUT process parses options

    parser = argparse.ArgumentParser(
        prog="tmbt-boiler-sut",
        description="steam-boiler SUT speaking line-delimited JSON",
    )
    parser.add_argument("--mutant", choices=("band", "pump"), default=None)
    options = parser.parse_args(argv)
    system = build_system(options.mutant)
    for line in sys.stdin:
        if not line.strip():
            continue
        try:
            request = json.loads(line)
            op = request["op"]
        except (json.JSONDecodeError, KeyError, TypeError):
            reply = {"ok": False, "error": "malformed request"}
        else:
            if op == "__reset":
                system.reset()
                reply = {"ok": True, "observed": {}}
            else:
                try:
                    observed = system.handle(op, request.get("args", {}))
                    reply = {"ok": True, "observed": observed}
                except ValueError as fault:
                    reply = {"ok": False, "error": str(fault)}
        print(json.dumps(reply, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
