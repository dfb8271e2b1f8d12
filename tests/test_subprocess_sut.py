"""Wire protocol: driving SUT processes over line-delimited JSON."""

import json
import os
import signal
import subprocess
import sys
import time

import pbt_reference as ref
import pytest

import tmbt.spec as sp
from tmbt import pbt, wire
from tmbt.boiler import build_boiler_binding, reference_adapter
from tmbt.errors import ProtocolError, SutCrashed
from tmbt.pbt import CaseResult, Command, SubprocessAdapter, generate_commands, run_case
from tmbt.values import FALSE, TRUE

BINDING = build_boiler_binding()

BOILER_ARGV = [sys.executable, "-m", "tmbt.boiler"]


def boiler_process(*flags):
    return SubprocessAdapter(BOILER_ARGV + list(flags))


def script_adapter(tmp_path, body):
    path = tmp_path / "sut.py"
    path.write_text(body)
    return SubprocessAdapter([sys.executable, str(path)])


ECHO_LOOP = """\
import json, sys
for line in sys.stdin:
    print({reply}, flush=True)
"""

# The boiler SUT with `openPump` replaced by {action}.
FAULTY_BOILER = """\
import os, sys, time
from tmbt import boiler
handle = boiler.BoilerSystem.handle
def patched(self, op, args):
    if op == "openPump":
        {action}
    return handle(self, op, args)
boiler.BoilerSystem.handle = patched
sys.exit(boiler.main([]))
"""


@pytest.fixture
def spawned(monkeypatch):
    """Every process the adapters start during the test."""
    processes = []
    spawn = SubprocessAdapter._spawn

    def recording(self):
        spawn(self)
        processes.append(self.process)

    monkeypatch.setattr(SubprocessAdapter, "_spawn", recording)
    return processes


def assert_all_reaped(processes):
    assert processes
    assert all(process.returncode is not None for process in processes)


class TestBoilerProcess:
    def test_observation_values_come_back_typed(self):
        with boiler_process() as sut:
            sut.reset()
            observed = sut.apply(Command("startSystem"))
        assert observed == {"level": 500, "pump": FALSE}

    def test_reference_process_passes_generated_cases(self):
        commands = generate_commands(BINDING, 25, 11)
        with boiler_process() as sut:
            assert run_case(BINDING, sut, commands).ok

    def test_process_and_in_process_adapters_agree(self):
        for mutant_flags, mutant in ((), None), (("--mutant", "pump"), "pump"):
            commands = generate_commands(BINDING, 25, 11)
            with boiler_process(*mutant_flags) as sut:
                over_pipe = run_case(BINDING, sut, commands)
            in_process = run_case(BINDING, reference_adapter(mutant), commands)
            assert over_pipe == in_process

    def test_full_run_matches_the_in_process_report(self):
        config = pbt.TestConfig(seed=7, cases=5)
        with boiler_process("--mutant", "pump") as sut:
            over_pipe = pbt.test(BINDING, sut, config)
        in_process = pbt.test(BINDING, reference_adapter("pump"), config)
        assert over_pipe == in_process  # elapsed_seconds excluded from ==

    def test_sut_level_fault_is_a_crash(self):
        with boiler_process() as sut:
            sut.reset()
            with pytest.raises(SutCrashed, match="before startSystem"):
                sut.apply(Command("openPump"))

    def test_reset_starts_a_fresh_history(self):
        with boiler_process() as sut:
            sut.reset()
            sut.apply(Command("startSystem"))
            sut.reset()
            sut.apply(Command("startSystem"))  # no "already running" fault

    def test_restart_replaces_the_process(self):
        sut = boiler_process()
        try:
            first = sut.process.pid
            sut.restart()
            assert sut.process.pid != first
            sut.reset()
            assert sut.apply(Command("startSystem"))["level"] == 500
        finally:
            sut.close()

    def test_malformed_arguments_are_answered_and_serving_goes_on(self):
        malformed = {"ok": False, "error": "malformed request"}
        exchanges = [
            ({"op": "startSystem"},
             {"ok": True, "observed": {"level": 500, "pump": False}}),
            ({"op": "waterLevelDidChange", "args": {}}, malformed),
            ({"op": "waterLevelDidChange", "args": {"amount": "5"}}, malformed),
            ({"op": "waterLevelDidChange", "args": {"amount": True}}, malformed),
            ({"op": "waterLevelDidChange", "args": {"amount": 1.5}}, malformed),
            ({"op": "waterLevelDidChange", "args": [5]}, malformed),
            ({"op": "checkWaterLevel", "args": None}, malformed),
            ({"op": "waterLevelDidChange", "args": {"amount": -5}},
             {"ok": True,
              "observed": {"level": 495, "pump": False, "signal": -1}}),
        ]
        requests = "".join(json.dumps(r) + "\n" for r, _ in exchanges)
        done = subprocess.run(BOILER_ARGV, input=requests, capture_output=True,
                              text=True, timeout=30)
        assert (done.returncode, done.stderr) == (0, "")
        replies = [json.loads(line) for line in done.stdout.splitlines()]
        assert replies == [reply for _, reply in exchanges]

    def test_close_is_idempotent(self):
        sut = boiler_process()
        sut.close()
        sut.close()
        with pytest.raises(SutCrashed, match="not running"):
            sut.reset()


class TestBrokenProcesses:
    def test_missing_binary(self):
        with pytest.raises(OSError):
            SubprocessAdapter(["/no/such/binary"])

    def test_exiting_process_is_a_crash(self, tmp_path):
        sut = script_adapter(tmp_path, "import sys; sys.exit(0)\n")
        try:
            with pytest.raises(SutCrashed):
                sut.reset()
        finally:
            sut.close()

    def test_close_after_a_broken_pipe(self, tmp_path):
        # The SUT shuts its input, says so and lingers, so the request meets
        # a broken pipe and is still buffered when the adapter closes.
        body = ("import os, time\nos.close(0)\n"
                "print('closed', flush=True)\ntime.sleep(0.3)\n")
        sut = script_adapter(tmp_path, body)
        assert sut.process.stdout.readline() == "closed\n"
        with pytest.raises(SutCrashed, match="pipe broke"):
            sut.reset()
        sut.close()
        assert sut.process is None

    def test_unparseable_reply(self, tmp_path):
        body = ECHO_LOOP.format(reply='"not json at all"')
        sut = script_adapter(tmp_path, body)
        try:
            with pytest.raises(ProtocolError, match="unparseable"):
                sut.reset()
        finally:
            sut.close()

    def test_reply_without_a_verdict_field(self, tmp_path):
        body = ECHO_LOOP.format(reply='json.dumps({"observed": {}})')
        sut = script_adapter(tmp_path, body)
        try:
            with pytest.raises(ProtocolError, match="malformed reply"):
                sut.reset()
        finally:
            sut.close()

    def test_non_map_observation(self, tmp_path):
        body = ECHO_LOOP.format(reply='json.dumps({"ok": True, "observed": 5})')
        sut = script_adapter(tmp_path, body)
        try:
            with pytest.raises(ProtocolError, match="malformed reply"):
                sut.reset()
        finally:
            sut.close()

    def test_declared_fault_carries_its_message(self, tmp_path):
        body = ECHO_LOOP.format(
            reply='json.dumps({"ok": False, "error": "boom"})')
        sut = script_adapter(tmp_path, body)
        try:
            with pytest.raises(SutCrashed, match="boom"):
                sut.reset()
        finally:
            sut.close()


    def test_a_json_true_where_the_model_expects_1_diverges(self, tmp_path):
        read = pbt.OpSpec("read", sp.Const(TRUE),
                          sp.Eq(sp.Primed("x"), sp.Var("x")), observes=("x",))
        binding = pbt.ModelBinding(sp.State({"x": 1}), (read,))
        results = []
        for reply in ("True", "1"):
            body = ECHO_LOOP.format(
                reply=f'json.dumps({{"ok": True, "observed": {{"x": {reply}}}}})')
            with script_adapter(tmp_path, body) as sut:
                results.append(run_case(binding, sut, [Command("read")]))
        assert results == [
            CaseResult(False, 0, (("x", 1),), (("x", TRUE),)),
            CaseResult(True)]


class TestPipelinedCases:
    """A case goes out in one write and its replies are judged in order."""

    def test_matches_one_exchange_at_a_time(self):
        failed = []
        for flags in ((), ("--mutant", "band"), ("--mutant", "pump")):
            with boiler_process(*flags) as sut:
                for seed in range(20):
                    commands = generate_commands(BINDING, 40, seed)
                    result = run_case(BINDING, sut, commands)
                    assert result == ref.run_case(BINDING, sut, commands)
                    if not result.ok:
                        failed.append(flags)
                        assert (pbt.shrink(BINDING, sut, commands)
                                == ref.shrink(BINDING, sut, commands))
        # every mutant fails some seeds, so the shrinks are compared too
        assert () not in failed
        assert {flags[1] for flags in failed} == {"band", "pump"}

    def test_a_case_larger_than_the_pipe_buffers(self):
        commands = generate_commands(BINDING, 5000, 3)
        requests = sum(len(json.dumps(c.to_json())) + 1 for c in commands)
        assert len(commands) == 5000 and requests > 1 << 16
        with boiler_process() as sut:
            assert run_case(BINDING, sut, commands).ok
            # the replies of a case that diverged early are drained
            with boiler_process("--mutant", "pump") as mutant:
                failed = run_case(BINDING, mutant, commands)
                assert not failed.ok and failed.index < 100
                assert run_case(BINDING, mutant, commands[:2]).ok

    def test_malformed_reply_mid_case(self, tmp_path):
        body = ("import json, sys\n"
                "replies = [{}, {'level': 500, 'pump': False}]\n"
                "for n, line in enumerate(sys.stdin):\n"
                "    print(json.dumps({'ok': True, 'observed': replies[n]})\n"
                "          if n < len(replies) else 'not json', flush=True)\n")
        sut = script_adapter(tmp_path, body)
        try:
            with pytest.raises(ProtocolError, match="unparseable"):
                run_case(BINDING, sut, (Command("startSystem"),
                                        Command("checkWaterLevel"),
                                        Command("endSystem")))
        finally:
            sut.close()


class TestFailingProcesses:
    """A SUT that hangs, dies or lingers ends as a failing step or a clean
    close, and no process it started is left behind."""

    def test_hanging_sut_times_out(self, tmp_path, monkeypatch, spawned):
        monkeypatch.setattr(wire, "CASE_DEADLINE_S", 1.0)
        sut = script_adapter(tmp_path,
                             FAULTY_BOILER.format(action="time.sleep(60)"))
        try:
            result = run_case(BINDING, sut, (Command("startSystem"),
                                             Command("openPump"),
                                             Command("checkWaterLevel")))
            assert result == CaseResult(False, 1, (("pump", TRUE),), None,
                                        "SUT sent no reply within 1.0 s")
            assert run_case(BINDING, sut, (Command("startSystem"),
                                           Command("checkWaterLevel"))).ok
        finally:
            sut.close()
        assert len(spawned) == 2
        assert_all_reaped(spawned)

    def test_dying_sut_fails_a_step_and_shrinks(self, tmp_path, spawned):
        sut = script_adapter(tmp_path, FAULTY_BOILER.format(action="os._exit(3)"))
        try:
            report = pbt.test(BINDING, sut, pbt.TestConfig(seed=1))
        finally:
            sut.close()
        assert report.verdict == "fail"
        assert report.failing.result.error == "SUT closed its output stream"
        assert report.failing.shrunk == (Command("startSystem"),
                                         Command("openPump"))
        assert_all_reaped(spawned)

    def test_lingering_sut_is_killed_on_close(self, tmp_path, monkeypatch,
                                              spawned):
        monkeypatch.setattr(wire, "CLOSE_GRACE_S", 0.2)
        body = ("import signal, sys, time\n"
                "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                "sys.stdin.read()\n"
                "time.sleep(60)\n")
        sut = script_adapter(tmp_path, body)
        sut.close()
        assert sut.process is None
        assert spawned[0].returncode == -signal.SIGKILL
        assert_all_reaped(spawned)

    def test_exit_is_seen_while_a_child_holds_the_output_open(
            self, tmp_path, monkeypatch, spawned):
        # The SUT leaves a child holding its output open and exits on EOF,
        # so close() sees the exit without an EOF, long before the grace
        # period ends, and neither terminates nor kills it.
        monkeypatch.setattr(wire, "CLOSE_GRACE_S", 30.0)
        body = ("import subprocess, sys\n"
                "child = subprocess.Popen([sys.executable, '-c',"
                " 'import time; time.sleep(60)'])\n"
                "print(child.pid, flush=True)\n"
                "sys.stdin.read()\n")
        sut = script_adapter(tmp_path, body)
        child = int(sut.process.stdout.readline())
        try:
            started = time.monotonic()
            sut.close()
            assert time.monotonic() - started < 10.0
            assert spawned[0].returncode == 0
        finally:
            os.kill(child, signal.SIGKILL)
