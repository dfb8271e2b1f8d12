"""Stateful property-based testing engine, driven by the boiler model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmbt.spec as sp
from tmbt.boiler import (
    BoilerSystem,
    build_boiler_binding,
    build_sut_model_spec,
    reference_adapter,
)
from tmbt import pbt
from tmbt.errors import PreconditionViolated, ProtocolError, TypeMismatch
from tmbt.explore import initial_states
from tmbt.pbt import (
    Command,
    InProcessAdapter,
    generate_commands,
    run_case,
    shrink,
)
from tmbt.values import FALSE, TRUE

BINDING = build_boiler_binding()
SPEC = build_sut_model_spec()


def wlc(amount):
    return Command("waterLevelDidChange", {"amount": amount})


class TestCommand:
    def test_dict_args_are_normalized_to_sorted_pairs(self):
        command = Command("op", {"b": 2, "a": 1})
        assert command.args == (("a", 1), ("b", 2))
        assert command.arg_map() == {"a": 1, "b": 2}

    def test_commands_are_hashable_values(self):
        assert wlc(3) == wlc(3)
        assert len({wlc(3), wlc(3), wlc(4)}) == 2

    def test_json_round_trip(self):
        command = wlc(-7)
        data = command.to_json()
        assert data == {"op": "waterLevelDidChange", "args": {"amount": -7}}
        assert Command.from_json(data) == command

    def test_json_tolerates_missing_args(self):
        assert Command.from_json({"op": "endSystem"}) == Command("endSystem")

    def test_json_refuses_integers_past_signed_64_bit(self):
        data = {"op": "waterLevelDidChange", "args": {"amount": 2**63}}
        with pytest.raises(TypeMismatch, match="outside signed 64-bit range"):
            Command.from_json(data)


class TestBinding:
    def test_alphabet_lookup(self):
        assert BINDING.op("openPump").name == "openPump"
        assert len(BINDING.op_names()) == 9

    def test_unknown_operation_is_rejected(self):
        with pytest.raises(TypeMismatch, match="not in the alphabet"):
            BINDING.op("fillTank")


class TestGeneration:
    def test_same_seed_same_sequence(self):
        first = generate_commands(BINDING, 12, 5)
        assert first == generate_commands(BINDING, 12, 5)
        assert len(first) == 12

    def test_zero_length_budget(self):
        assert generate_commands(BINDING, 0, 5) == ()

    def test_budget_is_an_upper_bound(self):
        for seed in range(10):
            assert len(generate_commands(BINDING, 7, seed)) <= 7

    @pytest.mark.parametrize("low,high", [(300, 700), (190, 810)])
    def test_the_initial_state_is_the_one_the_spec_admits(self, low, high):
        assert SPEC.actions == ()
        (initial,) = initial_states(SPEC)
        assert build_boiler_binding(low, high).initial == initial

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_generated_sequences_respect_preconditions(self, seed):
        commands = generate_commands(BINDING, 20, seed)
        # run_case raises PreconditionViolated on any invalid step
        assert run_case(BINDING, reference_adapter(), commands).ok

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_generation_walk_preserves_the_type_invariant(self, seed):
        type_ok = SPEC.invariant_map()["TypeOK"]
        state = BINDING.initial
        for command in generate_commands(BINDING, 20, seed):
            op = BINDING.op(command.op)
            state = op.effect(state, command.arg_map())
            assert sp.eval_state_formula(type_ok, state)


def _cases(seed):
    """The command sequences pbt.test generates for `seed` in its default
    configuration."""
    config = pbt.TestConfig(seed=seed)
    rng = random.Random(seed)
    return [generate_commands(BINDING, config.max_len, rng.getrandbits(64))
            for _ in range(config.cases)]


def _steps(commands):
    """(operation, state, next state) for each command of a sequence."""
    state = BINDING.initial
    for command in commands:
        op = BINDING.op(command.op)
        nxt = op.effect(state, command.arg_map())
        yield op, state, nxt
        state = nxt


class TestModelAgainstSpec:
    """The operations keep the model inside its spec, and each expected
    reply is the next state read at the operation's observed variables."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_reached_state_satisfies_type_ok(self, seed):
        type_ok = SPEC.invariant_map()["TypeOK"]
        steps = 0
        for commands in _cases(seed):
            for _, _, nxt in _steps(commands):
                assert sp.eval_state_formula(type_ok, nxt)
                steps += 1
        assert steps == 4000

    @pytest.mark.parametrize("seed", range(5))
    def test_each_reply_is_the_next_state_at_the_observed_variables(self,
                                                                    seed):
        for commands in _cases(seed):
            projected = [{name: nxt[name] for name in op.observes}
                         for op, _, nxt in _steps(commands)]
            assert pbt._expected(BINDING, commands) == projected
            # the reference system replies with exactly those variables
            assert list(reference_adapter().replies(commands)) == projected

    def test_observed_names_are_spec_variables(self):
        for op in BINDING.alphabet:
            assert set(op.observes) <= set(SPEC.variables), op.name

    def test_queries_leave_the_state_unchanged(self):
        queries = {"pumpDidOpen", "pumpDidClose", "checkWaterLevel",
                   "controlSignalDidChange"}
        seen = set()
        for commands in _cases(0):
            for op, state, nxt in _steps(commands):
                if op.name in queries:
                    assert nxt == state, op.name
                    seen.add(op.name)
        assert seen == queries


class FaultySystem:
    """Boiler stand-in that faults on the first pump command."""

    def reset(self):
        self.running = False

    def handle(self, op, args):
        if op == "startSystem":
            self.running = True
            return {"level": 500, "pump": False}
        if op == "openPump":
            raise ValueError("pump actuator jammed")
        return {}


class ChattySystem:
    """Returns a bare string instead of an observation map."""

    def reset(self):
        pass

    def handle(self, op, args):
        return "fine"


class HugeLevelSystem:
    """Reports a level one past the largest signed 64-bit integer."""

    def reset(self):
        pass

    def handle(self, op, args):
        return {"level": 2**63, "pump": False}


class RecordingSystem(BoilerSystem):
    """The pump mutant, noting each call it receives."""

    def __init__(self):
        self.calls = []
        super().__init__(ignore_pump_commands=True)

    def reset(self):
        self.calls = ["reset"]
        super().reset()

    def handle(self, op, args):
        self.calls.append(op)
        return super().handle(op, args)


class TestRunCase:
    def test_reference_system_passes(self):
        commands = generate_commands(BINDING, 30, 1)
        result = run_case(BINDING, reference_adapter(), commands)
        assert result == run_case(BINDING, reference_adapter(), commands)
        assert result.ok
        assert result.index is None

    def test_divergence_reports_both_sides(self):
        commands = (Command("startSystem"), Command("openPump"))
        result = run_case(BINDING, reference_adapter("pump"), commands)
        assert not result.ok
        assert result.index == 1
        assert result.expected == (("pump", TRUE),)
        assert result.observed == (("pump", FALSE),)
        assert result.error is None

    def test_divergence_json_uses_wire_values(self):
        commands = (Command("startSystem"), Command("openPump"))
        result = run_case(BINDING, reference_adapter("pump"), commands)
        assert result.to_json() == {
            "ok": False,
            "index": 1,
            "expected": {"pump": True},
            "observed": {"pump": False},
            "error": None,
        }

    def test_extra_observed_keys_are_ignored(self):
        # checkWaterLevel's model expects only "level"; the reference
        # reply carries exactly that, so projection equality holds
        commands = (Command("startSystem"), Command("checkWaterLevel"))
        assert run_case(BINDING, reference_adapter(), commands).ok

    def test_sut_fault_fails_the_case_at_that_index(self):
        commands = (Command("startSystem"), Command("openPump"))
        result = run_case(BINDING, InProcessAdapter(FaultySystem()), commands)
        assert not result.ok
        assert result.index == 1
        assert result.observed is None
        assert result.error == "pump actuator jammed"

    def test_non_map_observation_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="observation map"):
            run_case(BINDING, InProcessAdapter(ChattySystem()),
                     (Command("startSystem"),))

    def test_reply_past_signed_64_bit_is_refused(self):
        with pytest.raises(TypeMismatch) as err:
            run_case(BINDING, InProcessAdapter(HugeLevelSystem()),
                     (Command("startSystem"),))
        assert str(err.value) == (
            "integer 9223372036854775808 outside signed 64-bit range")

    def test_unmet_precondition_is_a_harness_error(self):
        with pytest.raises(PreconditionViolated, match="openPump"):
            run_case(BINDING, reference_adapter(), (Command("openPump"),))

    def test_an_invalid_sequence_reaches_no_system(self):
        system = RecordingSystem()
        with pytest.raises(PreconditionViolated, match="closePump"):
            run_case(BINDING, InProcessAdapter(system),
                     (Command("startSystem"), Command("closePump")))
        assert system.calls == ["reset"]  # from its constructor

    def test_in_process_replay_stops_at_the_divergence(self):
        system = RecordingSystem()
        commands = (Command("startSystem"), Command("openPump"),
                    Command("checkWaterLevel"))
        assert run_case(BINDING, InProcessAdapter(system), commands).index == 1
        assert system.calls == ["reset", "startSystem", "openPump"]

    def test_wrong_argument_names_are_a_harness_error(self):
        bad = Command("waterLevelDidChange", {"amt": 3})
        with pytest.raises(PreconditionViolated, match="argument names"):
            run_case(BINDING, reference_adapter(),
                     (Command("startSystem"), bad))

    def test_out_of_domain_argument_is_a_harness_error(self):
        with pytest.raises(PreconditionViolated, match="outside its domain"):
            run_case(BINDING, reference_adapter(),
                     (Command("startSystem"), wlc(500)))


def assert_one_minimal(shrunk, adapter_factory):
    """Every single removal either passes or is no longer a valid run."""
    for index in range(len(shrunk)):
        candidate = shrunk[:index] + shrunk[index + 1:]
        try:
            result = run_case(BINDING, adapter_factory(), candidate)
        except PreconditionViolated:
            continue
        assert result.ok


class TestShrink:
    def test_passing_sequence_is_rejected(self):
        commands = (Command("startSystem"), Command("endSystem"))
        with pytest.raises(PreconditionViolated, match="failing"):
            shrink(BINDING, reference_adapter(), commands)

    def test_pump_fault_shrinks_to_the_two_step_core(self):
        commands = generate_commands(BINDING, 40, 99)
        adapter = reference_adapter("pump")
        assert not run_case(BINDING, adapter, commands).ok
        shrunk = shrink(BINDING, adapter, commands)
        assert shrunk == (Command("startSystem"), Command("openPump"))

    def test_band_fault_shrinks_to_a_threshold_crossing(self):
        report = pbt.test(BINDING, reference_adapter("band"),
                      pbt.TestConfig(seed=7))
        shrunk = report.failing.shrunk
        assert shrunk[0] == Command("startSystem")
        assert all(c.op == "waterLevelDidChange" for c in shrunk[1:])
        drained = sum(c.arg_map()["amount"] for c in shrunk[1:])
        assert drained == -200  # lands exactly on the 300 threshold

    def test_shrunk_sequences_still_fail(self):
        for mutant in ("band", "pump"):
            report = pbt.test(BINDING, reference_adapter(mutant),
                          pbt.TestConfig(seed=7))
            shrunk = report.failing.shrunk
            assert not run_case(BINDING, reference_adapter(mutant), shrunk).ok

    def test_shrunk_sequences_are_one_minimal(self):
        for mutant in ("band", "pump"):
            report = pbt.test(BINDING, reference_adapter(mutant),
                          pbt.TestConfig(seed=7))
            assert_one_minimal(report.failing.shrunk,
                               lambda: reference_adapter(mutant))

    def test_integer_arguments_are_pulled_toward_zero(self):
        report = pbt.test(BINDING, reference_adapter("band"),
                      pbt.TestConfig(seed=7))
        amounts = [c.arg_map()["amount"]
                   for c in report.failing.shrunk[1:]]
        assert amounts == [-35, -93, -72]  # joint fixpoint for seed 7


class TestLoop:
    def test_reference_report(self):
        report = pbt.test(BINDING, reference_adapter(),
                      pbt.TestConfig(seed=3, cases=25))
        assert report.verdict == "pass"
        assert report.cases_run == 25
        assert report.failing is None
        assert report.seed == 3

    def test_failure_stops_the_run(self):
        report = pbt.test(BINDING, reference_adapter("band"),
                      pbt.TestConfig(seed=7))
        assert report.verdict == "fail"
        assert report.cases_run == 4  # cases 1-3 passed, case 4 failed

    def test_pump_fault_is_found_immediately(self):
        report = pbt.test(BINDING, reference_adapter("pump"),
                      pbt.TestConfig(seed=7))
        assert report.cases_run == 1
        assert report.failing.result.index == 7

    def test_continue_on_fail_runs_the_whole_budget(self):
        report = pbt.test(BINDING, reference_adapter("band"),
                      pbt.TestConfig(seed=7, cases=10, continue_on_fail=True))
        assert report.verdict == "fail"
        assert report.cases_run == 10
        assert report.failing is not None  # first failure is kept

    def test_reports_are_reproducible(self):
        first = pbt.test(BINDING, reference_adapter("pump"),
                     pbt.TestConfig(seed=7))
        again = pbt.test(BINDING, reference_adapter("pump"),
                     pbt.TestConfig(seed=7))
        assert first == again  # elapsed_seconds is excluded from equality

    def test_invocation_counts_cover_the_alphabet(self):
        report = pbt.test(BINDING, reference_adapter(), pbt.TestConfig(seed=0))
        counts = report.invocation_map()
        assert set(counts) == set(BINDING.op_names())
        assert all(count > 0 for count in counts.values())

    def test_counts_include_the_failing_prefix(self):
        report = pbt.test(BINDING, reference_adapter("pump"),
                      pbt.TestConfig(seed=7))
        executed = report.failing.result.index + 1
        assert sum(report.invocation_map().values()) == executed

    def test_report_json_shape(self):
        report = pbt.test(BINDING, reference_adapter("pump"),
                      pbt.TestConfig(seed=7))
        data = report.to_json()
        assert set(data) == {"seed", "cases_run", "verdict",
                             "invocation_counts", "failing",
                             "elapsed_seconds"}
        failing = data["failing"]
        assert set(failing) == {"commands", "shrunk", "index",
                                "expected", "observed", "error"}
        assert failing["shrunk"] == [
            {"op": "startSystem", "args": {}},
            {"op": "openPump", "args": {}},
        ]
        assert failing["expected"] == {"pump": True}
