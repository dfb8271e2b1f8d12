"""Timed streams, assumption/guarantee checking, the steam boiler loop.

The boiler's dynamics and controller are tested on `streams_reference`,
the Python loop that the spec-stepped `simulate_closed_loop` is held to.
"""

import pytest
import streams_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

import tmbt.spec as sp
from tmbt.errors import TypeMismatch
from tmbt.explore import behavior_satisfies, explore, initial_states
from tmbt.streams import (
    INITIAL_LEVEL,
    SIGNAL_OFF,
    SIGNAL_ON,
    AssumptionViolated,
    ComponentSpec,
    Conforms,
    GuaranteeViolated,
    StreamPredicate,
    Thresholds,
    TimedStream,
    check_asm_gar,
    closed_loop_component_spec,
    simulate_closed_loop,
    to_temporal_spec,
    ts,
)
from tmbt.values import FALSE, TRUE

ONE_PER_INTERVAL = TimedStream([[3], [1], [4]])
GAPPY = TimedStream([[3], [], [4]])
BURSTY = TimedStream([[3], [1, 1]])


class TestTimedStream:
    def test_intervals_are_normalized_to_tuples(self):
        s = TimedStream([[1], []])
        assert s.intervals == ((1,), ())
        assert len(s) == 2
        assert s.at(0) == (1,)

    def test_empty_stream(self):
        assert len(TimedStream()) == 0


class TestTs:
    def test_exactly_one_message_everywhere(self):
        assert ts(ONE_PER_INTERVAL, 3)

    def test_empty_interval_fails(self):
        assert not ts(GAPPY, 3)

    def test_two_messages_fail(self):
        assert not ts(BURSTY, 2)

    def test_prefix_shorter_than_the_gap_passes(self):
        assert ts(GAPPY, 1)  # the gap at interval 1 is out of range

    def test_asking_past_the_recorded_prefix_is_an_error(self):
        with pytest.raises(ValueError, match="3 intervals"):
            ts(ONE_PER_INTERVAL, 4)

    def test_zero_prefix_is_vacuously_true(self):
        assert ts(TimedStream(), 0)


class TestStreamPredicate:
    def test_ts_kind(self):
        p = StreamPredicate("ts", {"stream": "steam"})
        assert p.check_assumption({"steam": ONE_PER_INTERVAL}, 3)
        assert not p.check_assumption({"steam": GAPPY}, 3)

    def test_each_in_range(self):
        p = StreamPredicate("each_in_range", {"stream": "steam", "low": 0,
                                              "high": 10})
        assert p.check_assumption({"steam": ONE_PER_INTERVAL}, 3)
        bad = TimedStream([[11]])
        assert not p.check_assumption({"steam": bad}, 1)

    def test_level_in_band_is_per_interval(self):
        p = StreamPredicate("level_in_band", {"stream": "sensor", "low": 200,
                                              "high": 800})
        sensor = TimedStream([[500], [199]])
        assert p.check_guarantee({}, {"sensor": sensor}, 0)
        assert not p.check_guarantee({}, {"sensor": sensor}, 1)

    def test_signals_alternate(self):
        p = StreamPredicate("signals_alternate", {"stream": "ctrl"})
        good = TimedStream([[SIGNAL_ON], [], [SIGNAL_OFF], [SIGNAL_ON]])
        assert p.check_guarantee({}, {"ctrl": good}, 3)
        stuck = TimedStream([[SIGNAL_ON], [SIGNAL_ON]])
        assert not p.check_guarantee({}, {"ctrl": stuck}, 1)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(TypeMismatch, match="unknown assumption kind"):
            StreamPredicate("nope", {"stream": "s"}).check_assumption(
                {"s": ONE_PER_INTERVAL}, 1)

    def test_an_unknown_stream_is_named_in_either_section(self):
        nope = {"stream": "nope", "low": 0, "high": 10}
        for section, component in [
                ("assumption", ComponentSpec(
                    "c", asm=[StreamPredicate("ts", nope)])),
                ("guarantee", ComponentSpec(
                    "c", gar=[StreamPredicate("level_in_band", nope)]))]:
            with pytest.raises(TypeMismatch) as err:
                check_asm_gar(component, {"steam": ONE_PER_INTERVAL}, {}, 1)
            assert str(err.value) == (
                f"{section} references unknown stream 'nope'")

    def test_guarantee_may_reference_an_input_stream(self):
        p = StreamPredicate("level_in_band", {"stream": "steam", "low": 0,
                                              "high": 10})
        assert p.check_guarantee({"steam": ONE_PER_INTERVAL}, {}, 0)

    @pytest.mark.parametrize("inputs", [{"s": TimedStream([[5]])}, {}],
                             ids=["input-of-that-name", "no-input"])
    def test_an_empty_output_stream_is_judged_as_itself(self, inputs):
        p = StreamPredicate("level_in_band", {"stream": "s", "low": 0,
                                              "high": 10})
        with pytest.raises(ValueError) as err:
            p.check_guarantee(inputs, {"s": TimedStream()}, 0)
        assert str(err.value) == "stream 's' prefix has 0 intervals, asked about 1"


class TestComponentSpec:
    def test_closed_loop_sections(self):
        comp = closed_loop_component_spec()
        assert comp.inputs == (("steam", "int"),)
        assert dict(comp.outputs) == {"sensor": "int", "ctrl": "signal"}
        assert [p.kind for p in comp.asm] == ["ts", "each_in_range"]
        assert [p.kind for p in comp.gar] == ["level_in_band",
                                              "signals_alternate"]


class TestCheckAsmGar:
    COMP = closed_loop_component_spec()

    def run(self, thresholds=Thresholds(), intervals=100, seed=0):
        ins, outs = simulate_closed_loop(thresholds, intervals, seed)
        return check_asm_gar(self.COMP, ins, outs, intervals)

    def test_reference_loop_conforms_for_100_intervals(self):
        assert self.run() == Conforms()

    def test_broken_assumption_short_circuits(self):
        ins = {"steam": GAPPY}
        outs = {"sensor": TimedStream([[-1]] * 3),  # band also broken
                "ctrl": TimedStream([[], [], []])}
        verdict = check_asm_gar(self.COMP, ins, outs, 3)
        assert verdict == AssumptionViolated(index=0)  # vacuous: gar unjudged

    def test_out_of_range_steam_is_the_second_assumption(self):
        ins = {"steam": TimedStream([[99]])}
        outs = {"sensor": TimedStream([[500]]),
                "ctrl": TimedStream([[]])}
        assert check_asm_gar(self.COMP, ins, outs, 1) == AssumptionViolated(1)

    def test_loose_thresholds_blow_the_band_guarantee(self):
        verdict = self.run(Thresholds(190, 810))
        assert verdict == GuaranteeViolated(index=0, interval=57)

    @pytest.mark.parametrize("component", [
        COMP,
        ComponentSpec("ranged", asm=[StreamPredicate(
            "each_in_range", {"stream": "steam", "low": 0, "high": 10})]),
    ], ids=["ts-first", "without-ts"])
    def test_asking_past_an_input_prefix_is_an_error(self, component):
        ins, outs = simulate_closed_loop(intervals=10)
        with pytest.raises(ValueError) as err:
            check_asm_gar(component, ins, outs, 11)
        assert str(err.value) == (
            "stream 'steam' prefix has 10 intervals, asked about 11")

    def test_asking_past_an_output_prefix_is_an_error(self):
        _, outs = simulate_closed_loop(intervals=10)
        ins = {"steam": TimedStream([[5]] * 11)}
        with pytest.raises(ValueError) as err:
            check_asm_gar(self.COMP, ins, outs, 11)
        assert str(err.value) == (
            "stream 'sensor' prefix has 10 intervals, asked about 11")

    def test_guarantee_failure_reports_first_interval(self):
        ins = {"steam": TimedStream([[5], [5]])}
        outs = {"sensor": TimedStream([[500], [100]]),
                "ctrl": TimedStream([[], []])}
        assert check_asm_gar(self.COMP, ins, outs, 2) == GuaranteeViolated(0, 1)


class TestBoilerDynamics:
    def test_pump_adds_ten(self):
        assert ref.step_boiler(500, True, 7) == 510  # consumption ignored

    def test_steam_drains_without_the_pump(self):
        assert ref.step_boiler(500, False, 10) == 490
        assert ref.step_boiler(500, False, 0) == 500

    def test_consumption_out_of_range(self):
        with pytest.raises(ref.ConsumptionOutOfRange):
            ref.step_boiler(500, False, 11)
        with pytest.raises(ref.ConsumptionOutOfRange):
            ref.step_boiler(500, False, -1)

    @given(st.integers(0, 1000), st.booleans(), st.integers(0, 10))
    def test_level_moves_at_most_ten(self, level, pump_on, consumption):
        assert abs(ref.step_boiler(level, pump_on, consumption) - level) <= 10


class TestThresholds:
    def test_equality_and_hash_follow_the_fields(self):
        assert Thresholds() == Thresholds(low=300, high=700)
        assert hash(Thresholds(250, 750)) == hash((250, 750))
        assert Thresholds(250, 750) != Thresholds(250, 751)
        assert Thresholds(250, 750) != Thresholds(249, 750)

    @pytest.mark.parametrize("low,high", [(800, 100), (500, 500)])
    def test_unordered_thresholds_are_refused_when_built(self, low, high):
        with pytest.raises(ValueError) as err:
            Thresholds(low, high)
        assert str(err.value) == (
            f"thresholds low={low}, high={high} are not ordered")


class TestControllerStep:
    def test_low_crossing_switches_the_pump_on(self):
        state = ref.ControllerState(500, False)
        state, signal = ref.controller_step(state, 290)
        assert signal == SIGNAL_ON
        assert state.pump_on and state.water_level == 290

    def test_between_thresholds_emits_nothing(self):
        state, signal = ref.controller_step(ref.ControllerState(500, False), 500)
        assert signal is None
        assert not state.pump_on

    def test_high_crossing_switches_the_pump_off(self):
        state, signal = ref.controller_step(ref.ControllerState(690, True), 710)
        assert signal == SIGNAL_OFF
        assert not state.pump_on

    def test_no_repeat_signal_while_already_on(self):
        state, signal = ref.controller_step(ref.ControllerState(290, True), 280)
        assert signal is None  # already pumping, no second "on"

    def test_last_signal_is_remembered(self):
        state, _ = ref.controller_step(ref.ControllerState(500, False), 290)
        state, signal = ref.controller_step(state, 400)
        assert signal is None
        assert state.last_signal == SIGNAL_ON

    def test_unordered_thresholds_are_rejected(self):
        with pytest.raises(ValueError):
            ref.controller_step(ref.ControllerState(500, False), 500, Thresholds(700, 300))

    @given(st.lists(st.integers(0, 1000), max_size=60))
    def test_emitted_signals_strictly_alternate(self, readings):
        state = ref.ControllerState(500, False)
        emitted = []
        for reading in readings:
            state, signal = ref.controller_step(state, reading)
            if signal is not None:
                emitted.append(signal)
        assert all(a != b for a, b in zip(emitted, emitted[1:]))


class TestSimulateClosedLoop:
    def test_deterministic_under_seed(self):
        assert simulate_closed_loop(seed=5) == simulate_closed_loop(seed=5)
        assert simulate_closed_loop(seed=5) != simulate_closed_loop(seed=6)

    def test_stream_shapes(self):
        ins, outs = simulate_closed_loop(intervals=30, seed=1)
        assert set(ins) == {"steam"} and set(outs) == {"sensor", "ctrl"}
        assert len(ins["steam"]) == len(outs["sensor"]) == len(outs["ctrl"]) == 30
        assert ts(ins["steam"], 30)  # exactly one consumption per interval
        assert ts(outs["sensor"], 30)


class TestToTemporalSpec:
    def test_initial_state_is_the_half_full_idle_tank(self):
        spec = to_temporal_spec()
        [init] = initial_states(spec)
        assert init["level"] == 500
        assert init["pumpOn"] == FALSE

    def test_unordered_thresholds_are_rejected(self):
        with pytest.raises(ValueError):
            to_temporal_spec(Thresholds(700, 300))

    def test_every_transition_moves_the_level_at_most_ten(self):
        graph, _, _ = explore(to_temporal_spec())
        for source, action, target in graph.edges:
            delta = target["level"] - source["level"]
            if action == "PumpFills":
                assert delta == 10
            else:
                assert -10 <= delta <= 0

    def test_default_loop_is_safe(self):
        graph, stats, cexs = explore(to_temporal_spec())
        assert cexs == []
        assert stats.distinct_states == 818
        assert all(200 <= s["level"] <= 800 for s in graph.nodes)

    def test_loose_loop_is_not(self):
        _, _, cexs = explore(to_temporal_spec(Thresholds(190, 810)))
        assert any(c.invariant == "LevelInBand" for c in cexs)

    def test_parameters_are_recorded(self):
        spec = to_temporal_spec(Thresholds(250, 750))
        assert spec.param_map() == {"low": 250, "high": 750}


def loop_behavior(outputs: dict) -> sp.Behavior:
    """A closed-loop run as states over {level, pumpOn}: the idle tank at
    its starting level, then each sensor reading with the pump mode that
    the signals emitted so far leave."""
    pump = FALSE
    states = [sp.State({"level": INITIAL_LEVEL, "pumpOn": pump})]
    for (reading,), signals in zip(outputs["sensor"].intervals,
                                   outputs["ctrl"].intervals):
        for signal in signals:
            pump = TRUE if signal == SIGNAL_ON else FALSE
        states.append(sp.State({"level": reading, "pumpOn": pump}))
    return sp.Behavior(states)


ORDERED_THRESHOLDS = st.lists(
    st.integers(100, 900), min_size=2, max_size=2, unique=True).map(
        lambda pair: Thresholds(*sorted(pair)))


class TestClosedLoopAgainstItsSpec:
    """Every run of `simulate_closed_loop` is a behavior of
    `to_temporal_spec`.  The loop steps that same spec, so this checks
    only that it takes successors: each state it moves to is one the
    spec's actions build, or the state it is in.  The independent check
    of what the loop computes is TestSimulationAgainstTheReference."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           thresholds=st.one_of(st.just(Thresholds()), ORDERED_THRESHOLDS))
    def test_every_run_is_a_behavior_of_the_spec(self, seed, thresholds):
        ins, outs = simulate_closed_loop(thresholds, 100, seed)
        behavior = loop_behavior(outs)
        assert behavior_satisfies(to_temporal_spec(thresholds), behavior)
        if thresholds == Thresholds():
            verdict = check_asm_gar(closed_loop_component_spec(), ins, outs, 100)
            assert verdict == Conforms()


class TestSimulationAgainstTheReference:
    """The spec-stepped loop gives the streams the Python loop gave."""

    @pytest.mark.parametrize("thresholds", [
        Thresholds(), Thresholds(190, 810), Thresholds(450, 550)],
        ids=["300-700", "190-810", "450-550"])
    def test_the_streams_equal_the_reference_on_the_grid(self, thresholds):
        for seed in range(40):
            assert simulate_closed_loop(thresholds, 200, seed) == (
                ref.simulate_closed_loop(thresholds, 200, seed)), seed

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), thresholds=ORDERED_THRESHOLDS)
    def test_the_streams_equal_the_reference_for_any_thresholds(
            self, seed, thresholds):
        assert simulate_closed_loop(thresholds, 100, seed) == (
            ref.simulate_closed_loop(thresholds, 100, seed))
