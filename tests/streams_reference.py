"""The steam boiler's closed loop as Python dynamics, as `tmbt.streams`
ran it before `simulate_closed_loop` stepped `to_temporal_spec`.

test_streams.py holds the spec-stepped loop to this one: the same
thresholds, seed and interval count must give the same streams.  Without
it, the check that every run is a behavior of the spec would hold the
spec to itself.
"""

from __future__ import annotations

import random
import typing as t

from tmbt.record import Record
from tmbt.streams import (
    FILL_RATE,
    INITIAL_LEVEL,
    MAX_CONSUMPTION,
    SIGNAL_OFF,
    SIGNAL_ON,
    Thresholds,
    TimedStream,
)
from tmbt.values import Value


class ConsumptionOutOfRange(ValueError):
    """Steam consumption outside the physical 0..10 bound."""


class ControllerState(Record):
    water_level: int
    pump_on: bool
    last_signal: t.Optional[Value] = None


def step_boiler(level: int, pump_on: bool, consumption: int) -> int:
    """One interval of tank physics: +10 with the pump, -consumption without."""
    if not 0 <= consumption <= MAX_CONSUMPTION:
        msg = f"consumption {consumption} outside 0..{MAX_CONSUMPTION}"
        raise ConsumptionOutOfRange(msg)
    if pump_on:
        return level + FILL_RATE
    return level - consumption


def controller_step(state: ControllerState, sensor_level: int,
                    thresholds: Thresholds = Thresholds()):
    """React to a sensor reading; emit a pump signal only on a crossing.

    Output stays sparse: nothing is emitted while the level sits between
    the thresholds, so consecutive emitted signals always alternate.
    """
    signal = None
    pump_on = state.pump_on
    if not state.pump_on and sensor_level <= thresholds.low:
        signal = SIGNAL_ON
        pump_on = True
    elif state.pump_on and sensor_level >= thresholds.high:
        signal = SIGNAL_OFF
        pump_on = False
    last = signal if signal is not None else state.last_signal
    return ControllerState(sensor_level, pump_on, last), signal


def simulate_closed_loop(thresholds: Thresholds = Thresholds(),
                         intervals: int = 100, seed: int = 0):
    """Run boiler and controller together under random steam consumption.

    Returns (inputs, outputs) as named TimedStreams: steam in, sensor
    reading and control signals out.  Signals take effect one interval
    after they are emitted.
    """
    rng = random.Random(seed)
    level = INITIAL_LEVEL
    pump_effective = False
    controller = ControllerState(level, pump_effective)
    steam, sensor, ctrl = [], [], []
    for _ in range(intervals):
        consumption = rng.randint(0, MAX_CONSUMPTION)
        steam.append([consumption])
        level = step_boiler(level, pump_effective, consumption)
        sensor.append([level])
        controller, signal = controller_step(controller, level, thresholds)
        ctrl.append([signal] if signal is not None else [])
        pump_effective = controller.pump_on
    inputs = {"steam": TimedStream(steam)}
    outputs = {"sensor": TimedStream(sensor), "ctrl": TimedStream(ctrl)}
    return inputs, outputs
