"""Steam-boiler system under test and the SUT executable.

BoilerSystem is the implementation being tested: a small imperative
state machine behind the nine-operation control API.  Its test model
lives in tmbt.boiler_model; build_sut_model_spec, build_boiler_binding
and reference_adapter are reachable here too, and load it on first use.
At module level this file imports only the standard library's json and
sys, so the SUT process `python -m tmbt.boiler` loads no other tmbt
module.

Two seeded faults are available for exercising the engine:
  band   the controller reacts at 190/810 instead of the configured
         thresholds, allowing the water level outside the safe band
  pump   operator pump commands are silently ignored (the automatic
         controller still works)
"""

import json
import sys

# streams.Thresholds states these defaults too: `check --example
# steamboiler` takes them from there without loading this module.
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

MALFORMED = "malformed request"


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
            amount = args.get("amount")
            if type(amount) is not int:  # a JSON true is no amount
                raise ValueError(MALFORMED)
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


_MODEL_NAMES = ("build_boiler_binding", "build_sut_model_spec",
                "reference_adapter")


def __getattr__(name: str):
    """The test model's names load tmbt.boiler_model on first use
    (PEP 562), so the SUT process does not compile the model side."""
    if name in _MODEL_NAMES:
        from . import boiler_model
        return getattr(boiler_model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    encode = json.JSONEncoder(sort_keys=True).encode  # one for every reply
    for line in sys.stdin:
        if not line.strip():
            continue
        try:
            request = json.loads(line)
            op = request["op"]
            args = request.get("args", {})
        except (json.JSONDecodeError, KeyError, TypeError):
            args = None
        if not isinstance(args, dict):
            reply = {"ok": False, "error": MALFORMED}
        elif op == "__reset":
            system.reset()
            reply = {"ok": True, "observed": {}}
        else:
            try:
                reply = {"ok": True, "observed": system.handle(op, args)}
            except ValueError as fault:
                reply = {"ok": False, "error": str(fault)}
        print(encode(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
