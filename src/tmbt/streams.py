"""Timed streams, assumption/guarantee checking, and the steam boiler.

A timed stream maps interval indices to finite message lists; components
are specified by assumptions over their input streams and guarantees
over everything observable.  The steam boiler closed loop (tank plus
pump plus threshold controller) is stated once, as a TemporalSpec:
`check` explores it exhaustively, and `simulate_closed_loop` steps it
under random steam consumption to record timed streams.

Boiler physics, per the problem statement: the pump adds 10 gallons per
interval while running; steam consumes up to 10 gallons per interval
while it is not.  A control signal emitted at interval t drives the
pump from interval t+1 on.
"""

from __future__ import annotations

import random
import typing as t

from . import spec as sp
from .errors import TypeMismatch
from .explore import derive_domains, initial_states, successors
from .record import Record
from .values import BOOLEANS, FALSE, TRUE

SIGNAL_ON = 1
SIGNAL_OFF = 0

BAND_LOW = 200
BAND_HIGH = 800

# The plant, as its TemporalSpec and the simulation read it:
# the starting level, what the pump adds and steam at most takes per
# interval, and the tank's range.
INITIAL_LEVEL = 500
FILL_RATE = 10
MAX_CONSUMPTION = 10
TANK_RANGE = (0, 1000)


# ---------------------------------------------------------------------------
# Timed streams


class TimedStream(Record):
    """A finite prefix of a timed stream: one message list per interval."""

    intervals: tuple

    def __init__(self, intervals=()):
        object.__setattr__(
            self, "intervals", tuple(tuple(msgs) for msgs in intervals))

    def __len__(self) -> int:
        return len(self.intervals)

    def at(self, interval: int) -> tuple:
        return self.intervals[interval]


def ts(stream: TimedStream, up_to: int) -> bool:
    """True iff every interval in [0, up_to) carries exactly one message."""
    if up_to > len(stream):
        msg = f"stream prefix has {len(stream)} intervals, asked about {up_to}"
        raise ValueError(msg)
    return all(len(stream.at(i)) == 1 for i in range(up_to))


def _require_prefix(name: str, stream: TimedStream, up_to: int) -> None:
    """Raise ValueError unless stream `name` records `up_to` intervals."""
    if up_to > len(stream):
        msg = (f"stream {name!r} prefix has {len(stream)} intervals, "
               f"asked about {up_to}")
        raise ValueError(msg)


def _named(section: str, name: str, *sources: dict) -> TimedStream:
    """Stream `name` from the first of `sources` that has it."""
    for streams in sources:
        if name in streams:
            return streams[name]
    raise TypeMismatch(f"{section} references unknown stream {name!r}")


# ---------------------------------------------------------------------------
# Component specifications

class StreamPredicate(Record):
    """A named predicate form; `kind` selects the check, the `fields`
    dict (kept as sorted pairs) configures it.

    Assumption kinds, over the input stream named `stream`:
      ts                 exactly one message per interval
      each_in_range      every message is an integer in [low, high]
    Guarantee kinds, at one interval of the output stream named `stream`
    (or of the input stream, if no output has that name):
      level_in_band      every message at that interval is in [low, high]
      signals_alternate  the on/off signals up to it strictly alternate
    """

    kind: str
    fields: tuple

    def __init__(self, kind, fields):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "fields", tuple(sorted(fields.items())))

    def field_map(self) -> dict:
        return dict(self.fields)

    def check_assumption(self, inputs: dict, up_to: int) -> bool:
        f = self.field_map()
        stream = _named("assumption", f["stream"], inputs)
        if self.kind == "ts":
            return ts(stream, up_to)
        if self.kind == "each_in_range":
            for i in range(up_to):
                for m in stream.at(i):
                    if type(m) is not int:
                        return False
                    if not f["low"] <= m <= f["high"]:
                        return False
            return True
        msg = f"unknown assumption kind {self.kind!r}"
        raise TypeMismatch(msg)

    def check_guarantee(self, inputs: dict, outputs: dict, interval: int) -> bool:
        f = self.field_map()
        name = f["stream"]
        stream = _named("guarantee", name, outputs, inputs)
        _require_prefix(name, stream, interval + 1)
        if self.kind == "level_in_band":
            return all(type(m) is int and f["low"] <= m <= f["high"]
                       for m in stream.at(interval))
        if self.kind == "signals_alternate":
            last = None
            for i in range(interval + 1):
                for m in stream.at(i):
                    if m == last:
                        return False
                    last = m
            return True
        msg = f"unknown guarantee kind {self.kind!r}"
        raise TypeMismatch(msg)


class ComponentSpec(Record):
    """Assumption/guarantee interface spec of a timed-stream component:
    its channel-to-type dicts (kept as sorted pairs) and the
    StreamPredicates it assumes (`asm`) and guarantees (`gar`)."""

    name: str
    inputs: tuple
    outputs: tuple
    asm: tuple
    gar: tuple

    def __init__(self, name, inputs=(), outputs=(), asm=(), gar=()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inputs", tuple(sorted(dict(inputs).items())))
        object.__setattr__(self, "outputs", tuple(sorted(dict(outputs).items())))
        object.__setattr__(self, "asm", tuple(asm))
        object.__setattr__(self, "gar", tuple(gar))


# Verdicts


class Conforms(Record):
    pass


class AssumptionViolated(Record):
    index: int


class GuaranteeViolated(Record):
    index: int
    interval: int


Verdict = t.Union[Conforms, AssumptionViolated, GuaranteeViolated]


def check_asm_gar(component: ComponentSpec, inputs: dict, outputs: dict,
                  up_to: int) -> Verdict:
    """Judge recorded streams against a component spec.

    A failed assumption short-circuits to AssumptionViolated (vacuous
    pass: guarantees are not judged).  Guarantees are checked interval
    by interval; the first failure wins.  Every stream given must
    record at least `up_to` intervals.
    """
    for name, stream in (*inputs.items(), *outputs.items()):
        _require_prefix(name, stream, up_to)
    for index, predicate in enumerate(component.asm):
        if not predicate.check_assumption(inputs, up_to):
            return AssumptionViolated(index)
    for interval in range(up_to):
        for index, predicate in enumerate(component.gar):
            if not predicate.check_guarantee(inputs, outputs, interval):
                return GuaranteeViolated(index, interval)
    return Conforms()


# ---------------------------------------------------------------------------
# The steam boiler


class Thresholds(Record):
    """The controller's switching levels, refused unless `low < high`."""

    low: int
    high: int

    def __init__(self, low=300, high=700):
        if not low < high:
            raise ValueError(f"thresholds low={low}, high={high} are not ordered")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)


def closed_loop_component_spec() -> ComponentSpec:
    """Interface spec of the closed loop: steam in, sensor and signals out."""
    return ComponentSpec(
        name="steam-boiler-closed-loop",
        inputs={"steam": "int"},
        outputs={"sensor": "int", "ctrl": "signal"},
        asm=[
            StreamPredicate("ts", {"stream": "steam"}),
            StreamPredicate("each_in_range",
                            {"stream": "steam", "low": 0, "high": 10}),
        ],
        gar=[
            StreamPredicate("level_in_band",
                            {"stream": "sensor", "low": BAND_LOW,
                             "high": BAND_HIGH}),
            StreamPredicate("signals_alternate", {"stream": "ctrl"}),
        ],
    )


def simulate_closed_loop(thresholds: Thresholds = Thresholds(),
                         intervals: int = 100, seed: int = 0):
    """Step `to_temporal_spec(thresholds)` under random steam consumption.

    Each interval draws a consumption, then takes the successor that
    `PumpFills` gives or, with the pump off, the one whose level is the
    current level less that consumption.  Returns (inputs, outputs) as
    named TimedStreams: steam in, the new level as the sensor reading and
    a signal on each change of `pumpOn` out, so a signal takes effect one
    interval after it is emitted.
    """
    spec = to_temporal_spec(thresholds)
    domains = derive_domains(spec)
    [state] = initial_states(spec, domains)
    rng = random.Random(seed)
    steam, sensor, ctrl = [], [], []
    for _ in range(intervals):
        consumption = rng.randint(0, MAX_CONSUMPTION)
        drained = state["level"] - consumption
        nxt = next(target for action, target in
                   successors(spec, state, domains)
                   if action == "PumpFills" or target["level"] == drained)
        steam.append([consumption])
        sensor.append([nxt["level"]])
        if nxt["pumpOn"] == state["pumpOn"]:
            ctrl.append([])
        else:
            ctrl.append([SIGNAL_ON if nxt["pumpOn"] == TRUE else SIGNAL_OFF])
        state = nxt
    inputs = {"steam": TimedStream(steam)}
    outputs = {"sensor": TimedStream(sensor), "ctrl": TimedStream(ctrl)}
    return inputs, outputs


# ---------------------------------------------------------------------------
# Translation to a temporal spec


def to_temporal_spec(thresholds: Thresholds = Thresholds()) -> sp.TemporalSpec:
    """Encode the closed loop as a TemporalSpec over {level, pumpOn}.

    One action per pump mode; each transition applies one interval of
    tank physics and then the controller's decision on the new reading,
    which drives the pump from the next transition on (the one-step
    signal latency of the stream semantics).
    """
    level = sp.Var("level")
    level_next = sp.Primed("level")
    pump = sp.Var("pumpOn")
    pump_next = sp.Primed("pumpOn")

    # decision on the new reading, given the current pump mode
    switches_off = sp.Or(
        sp.And(sp.Ge(level_next, sp.intval(thresholds.high)), sp.Not(pump_next)),
        sp.And(sp.Lt(level_next, sp.intval(thresholds.high)), pump_next))
    switches_on = sp.Or(
        sp.And(sp.Le(level_next, sp.intval(thresholds.low)), pump_next),
        sp.And(sp.Gt(level_next, sp.intval(thresholds.low)), sp.Not(pump_next)))

    pump_fills = sp.conj(
        pump,
        sp.Eq(level_next, sp.Add(level, sp.intval(FILL_RATE))),
        switches_off)
    steam_drains = sp.conj(
        sp.Not(pump),
        sp.In(level_next,
              sp.IntRange(sp.Sub(level, sp.intval(MAX_CONSUMPTION)), level)),
        switches_on)

    lo, hi = TANK_RANGE
    type_ok = sp.And(
        sp.In(level, sp.IntRange(sp.intval(lo), sp.intval(hi))),
        sp.In(pump, sp.Const(BOOLEANS)))
    in_band = sp.And(sp.Ge(level, sp.intval(BAND_LOW)),
                     sp.Le(level, sp.intval(BAND_HIGH)))

    return sp.TemporalSpec(
        name="steamboiler",
        variables=("level", "pumpOn"),
        init=sp.And(sp.Eq(level, sp.intval(INITIAL_LEVEL)),
                    sp.Eq(pump, sp.Const(FALSE))),
        actions=(
            sp.NamedAction("PumpFills", pump_fills),
            sp.NamedAction("SteamDrains", steam_drains),
        ),
        invariants=(
            ("TypeOK", type_ok),
            ("LevelInBand", in_band),
        ),
        params={"low": thresholds.low, "high": thresholds.high},
    )
