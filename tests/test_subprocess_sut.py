"""Wire protocol: driving SUT processes over line-delimited JSON."""

import sys

import pytest

from tmbt import pbt
from tmbt.boiler import build_boiler_binding, build_sut_model_spec, reference_adapter
from tmbt.errors import ProtocolError, SutCrashed
from tmbt.pbt import Command, SubprocessAdapter, generate_commands, run_case
from tmbt.values import FALSE, IntVal

BINDING = build_boiler_binding()
SPEC = build_sut_model_spec()

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


class TestBoilerProcess:
    def test_observation_values_come_back_typed(self):
        with boiler_process() as sut:
            sut.reset()
            observed = sut.apply(Command("startSystem"))
        assert observed == {"level": IntVal(500), "pump": FALSE}

    def test_reference_process_passes_generated_cases(self):
        commands = generate_commands(BINDING, SPEC, 25, 11)
        with boiler_process() as sut:
            assert run_case(BINDING, sut, commands).ok

    def test_process_and_in_process_adapters_agree(self):
        for mutant_flags, mutant in ((), None), (("--mutant", "pump"), "pump"):
            commands = generate_commands(BINDING, SPEC, 25, 11)
            with boiler_process(*mutant_flags) as sut:
                over_pipe = run_case(BINDING, sut, commands)
            in_process = run_case(BINDING, reference_adapter(mutant), commands)
            assert over_pipe == in_process

    def test_full_run_matches_the_in_process_report(self):
        config = pbt.TestConfig(seed=7, cases=5)
        with boiler_process("--mutant", "pump") as sut:
            over_pipe = pbt.test(BINDING, SPEC, sut, config)
        in_process = pbt.test(BINDING, SPEC, reference_adapter("pump"), config)
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
            assert sut.apply(Command("startSystem"))["level"].value == 500
        finally:
            sut.close()

    def test_restarting_processes_between_cases(self):
        config = pbt.TestConfig(seed=2, cases=3, max_len=10,
                                restart_processes=True)
        with boiler_process() as sut:
            report = pbt.test(BINDING, SPEC, sut, config)
        assert report.verdict == "pass"

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
