"""Command-line interface: output contracts and exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import tmbt
import tmbt.ir as ir
import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.cli import main
from tmbt.explore import behavior_satisfies
from tmbt.values import value_from_json

from cli_runner import CliRunner

ONEBIT_TLA = pathlib.Path(__file__).parent.parent / "src/tmbt/specs/onebit.tla"

DEAD_SOURCE = """\
VARIABLE b
Init == (b = 0) /\\ (b = 1)
Next == b' = b
"""


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def cli_env() -> dict:
    """This environment, with the tmbt under test first on PYTHONPATH."""
    src = str(pathlib.Path(tmbt.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


class TestTranslate:
    def test_stdout_is_the_canonical_document(self, runner):
        result = invoke(runner, "translate", str(ONEBIT_TLA))
        assert result.exit_code == 0
        assert result.stdout == ir.spec_to_text(specs.onebit())

    def test_output_file_mode_is_quiet(self, runner, tmp_path):
        out = tmp_path / "onebit.json"
        result = invoke(runner, "translate", str(ONEBIT_TLA), str(out))
        assert result.exit_code == 0
        assert result.stdout == ""
        assert out.read_text() == ir.spec_to_text(specs.onebit())

    def test_translated_document_parses_back(self, runner):
        result = invoke(runner, "translate", str(ONEBIT_TLA))
        assert ir.spec_from_text(result.stdout) == specs.onebit()

    def test_empty_file_is_a_usage_error(self, runner, tmp_path):
        empty = tmp_path / "empty.tla"
        empty.write_text("")
        result = invoke(runner, "translate", str(empty))
        assert result.exit_code == 2
        assert result.stderr == "empty.tla: no definition named 'Init'\n"

    def test_unsupported_construct_is_reported_with_position(self, runner,
                                                             tmp_path):
        fancy = tmp_path / "fancy.tla"
        fancy.write_text("EXTENDS Naturals\n")
        result = invoke(runner, "translate", str(fancy))
        assert result.exit_code == 2
        assert result.stderr == (
            "fancy.tla: 1:0: EXTENDS is outside the supported subset\n")

    def test_missing_source_file(self, runner):
        result = invoke(runner, "translate", "ghost.tla")
        assert result.exit_code == 2


class TestCheck:
    def test_json_stats_line(self, runner):
        result = invoke(runner, "check", "--example", "onebit",
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {
            "diameter": 1,
            "distinct_states": 2,
            "states_found": 4,
            "truncated": False,
        }

    def test_human_stats_layout(self, runner):
        result = invoke(runner, "check", "--example", "onebit")
        assert result.exit_code == 0
        assert result.stdout == ("states found:    4\n"
                                 "distinct states: 2\n"
                                 "diameter:        1\n")

    def test_violated_invariant_fails_with_a_trace(self, runner):
        result = invoke(runner, "check", "--example", "diehard",
                        "--format", "json")
        assert result.exit_code == 1
        stats, cex = [json.loads(line) for line in
                      result.stdout.splitlines()]
        assert stats["states_found"] == 97
        assert stats["distinct_states"] == 16
        assert cex["invariant"] == "big_ne_4"
        assert len(cex["trace"]) == 7
        assert cex["trace"][0] == {"big": 0, "small": 0}
        assert cex["trace"][-1] == {"big": 4, "small": 3}

    def test_human_trace_is_numbered(self, runner):
        result = invoke(runner, "check", "--example", "diehard",
                        "--invariant", "big_ne_4")
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[3] == "invariant big_ne_4 violated; shortest trace (7 states):"
        assert lines[4] == "  1. big=0 small=0"
        assert lines[10] == "  7. big=4 small=3"

    def test_restricting_invariants_keeps_the_full_exploration(self, runner):
        result = invoke(runner, "check", "--example", "diehard",
                        "--invariant", "TypeOK", "--format", "json")
        assert result.exit_code == 0  # big_ne_4 is not being checked
        assert json.loads(result.stdout)["distinct_states"] == 16

    def test_unknown_invariant_name(self, runner):
        result = invoke(runner, "check", "--example", "diehard",
                        "--invariant", "Nope")
        assert result.exit_code == 2
        assert "no invariant named 'Nope'" in result.stderr

    def test_spec_file_input(self, runner):
        result = invoke(runner, "check", "--spec", str(ONEBIT_TLA),
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["distinct_states"] == 2

    def test_a_digit_that_is_no_decimal_digit_is_a_lex_error(self, runner,
                                                              tmp_path):
        square = tmp_path / "square.tla"
        square.write_text("VARIABLE x\nInit == x = ²\nNext == x' = x\n")
        result = invoke(runner, "check", "--spec", str(square))
        assert result.exit_code == 2
        assert result.stderr == "error: 2:12: unexpected character '²'\n"

    def test_an_integer_past_int64_is_a_positioned_error(self, runner,
                                                         tmp_path):
        big = tmp_path / "big.tla"
        big.write_text(f"VARIABLE x\nInit == x = {'9' * 5000}\nNext == x' = x\n")
        for args, prefix in ((("check", "--spec"), "error"),
                             (("translate",), "big.tla")):
            result = invoke(runner, *args, str(big))
            assert result.exit_code == 2
            assert result.stderr == (
                f"{prefix}: 2:12: integer literal outside signed 64-bit range\n")

    def test_spec_and_example_are_mutually_exclusive(self, runner):
        result = invoke(runner, "check", "--example", "onebit",
                        "--spec", str(ONEBIT_TLA))
        assert result.exit_code == 2
        assert "exactly one of --spec or --example" in result.stderr
        assert invoke(runner, "check").exit_code == 2

    def test_parameters_reshape_an_example(self, runner):
        result = invoke(runner, "check", "--example", "euclid",
                        "--param", "M=9", "--param", "N=5",
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["distinct_states"] == 6  # gcd run 9,5 .. 1,1

    def test_parameters_require_integers(self, runner):
        result = invoke(runner, "check", "--example", "euclid",
                        "--param", "M=banana")
        assert result.exit_code == 2
        assert "--param M needs an integer" in result.stderr

    # steamboiler under a limit, not euclid: an unrefused huge M or N would
    # have the explorer enumerate TypeOK's range 1..M first
    @pytest.mark.parametrize("args", [
        ["check", "--example", "steamboiler", "--max-distinct", "3",
         "--param", "low=-9223372036854775809"],
        ["behaviors", "--example", "steamboiler", "--param",
         "high=9223372036854775808"],
        ["test", "--param", "high=99999999999999999999"],
    ], ids=["check", "behaviors", "test"])
    def test_parameters_stay_within_signed_64_bit(self, runner, args):
        result = invoke(runner, *args)
        key = args[-1].partition("=")[0]
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: ")
        assert result.stderr.endswith(
            f"error: --param {key} is outside signed 64-bit range\n")

    def test_parameters_may_reach_the_signed_64_bit_bounds(self, runner):
        result = invoke(runner, "check", "--example", "steamboiler",
                        "--param", "low=-9223372036854775808",
                        "--param", "high=9223372036854775807",
                        "--max-distinct", "3", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["distinct_states"] == 3

    def test_parameters_need_a_key_and_value(self, runner):
        result = invoke(runner, "check", "--example", "euclid",
                        "--param", "M24")
        assert result.exit_code == 2
        assert "--param expects K=V" in result.stderr

    def test_parameters_do_not_apply_to_spec_files(self, runner):
        result = invoke(runner, "check", "--spec", str(ONEBIT_TLA),
                        "--param", "M=1")
        assert result.exit_code == 2
        assert "built-in examples only" in result.stderr

    def test_truncation_is_flagged_on_stderr(self, runner):
        result = invoke(runner, "check", "--example", "diehard",
                        "--max-distinct", "5", "--format", "json")
        assert result.exit_code == 0  # no violation inside the prefix
        assert json.loads(result.stdout) == {
            "diameter": 3,
            "distinct_states": 5,
            "states_found": 31,
            "truncated": True,
        }
        assert result.stderr == ("limit exceeded: exploration truncated, "
                                 "result is a lower bound\n")

    @pytest.mark.parametrize("init", ["(b = 0) /\\ (b = 1)", "b \\in 5..1"])
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_an_init_with_no_state_is_an_input_error(self, runner, tmp_path,
                                                     init, fmt):
        # as `behaviors` reads it: not zero states found with exit 0
        dead = tmp_path / "dead.tla"
        dead.write_text(f"VARIABLE b\nInit == {init}\nNext == b' = b\n")
        for command in ("check", "behaviors"):
            args = [command, "--spec", str(dead)]
            if command == "check":
                args += ["--format", fmt]
            result = invoke(runner, *args)
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr == ("error: spec dead: init is unsatisfiable "
                                     "over the derived domains\n")

    def test_a_truncated_init_is_no_input_error(self, runner, tmp_path):
        # --max-distinct 0 keeps none of Init's states, which exist
        source = tmp_path / "one.tla"
        source.write_text("VARIABLE b\nInit == b = 0\nNext == b' = b\n")
        result = invoke(runner, "check", "--spec", str(source),
                        "--max-distinct", "0", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["states_found"] == 1

    def test_loose_thresholds_violate_the_band(self, runner):
        result = invoke(runner, "check", "--example", "steamboiler",
                        "--param", "low=190", "--param", "high=810",
                        "--format", "json")
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert json.loads(lines[1])["invariant"] == "LevelInBand"

    def test_default_thresholds_stay_in_the_band(self, runner):
        result = invoke(runner, "check", "--example", "steamboiler",
                        "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["distinct_states"] == 818


class TestBehaviors:
    def rebuild(self, line):
        data = json.loads(line)
        states = tuple(
            sp.State({name: value_from_json(value)
                      for name, value in item.items()})
            for item in data["states"])
        return sp.Behavior(states)

    def test_emitted_behaviors_satisfy_the_spec(self, runner):
        result = invoke(runner, "behaviors", "--example", "diehard",
                        "--count", "5", "--max-len", "6", "--seed", "2")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 5
        spec = specs.diehard()
        for line in lines:
            behavior = self.rebuild(line)
            assert len(behavior.states) <= 6
            assert behavior_satisfies(spec, behavior)

    def test_output_is_seed_deterministic(self, runner):
        args = ("behaviors", "--example", "onebit", "--seed", "9")
        assert invoke(runner, *args).stdout == invoke(runner, *args).stdout

    def test_zero_count_emits_nothing(self, runner):
        result = invoke(runner, "behaviors", "--example", "onebit",
                        "--count", "0")
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_unsatisfiable_init_is_an_input_error(self, runner, tmp_path):
        dead = tmp_path / "dead.tla"
        dead.write_text(DEAD_SOURCE)
        result = invoke(runner, "behaviors", "--spec", str(dead))
        assert result.exit_code == 2
        assert "init is unsatisfiable" in result.stderr


class TestIntegerSetOrder:
    """`{8, 16}` and `{16, 8}` are one set, though a frozenset of them
    iterates in insertion order (8 and 16 share a slot of a small table):
    `check` and `behaviors` print the same bytes for either."""

    SOURCE = """\
VARIABLES x, y
TypeOK == x \\in {SET} /\\ y \\in {SET}
Init == x \\in {SET} /\\ y = (CHOOSE v \\in {SET} : TRUE)
Next == x' \\in {SET} /\\ y' = x
Small == x + y < 32
"""

    def outputs(self, runner, path) -> list:
        runs = [("check", "--spec", str(path), "--invariant", "Small",
                 "--format", fmt) for fmt in ("human", "json")]
        runs += [("behaviors", "--spec", str(path), "--seed", str(seed))
                 for seed in range(3)]
        return [invoke(runner, *args) for args in runs]

    def test_member_order_does_not_reach_the_output(self, runner, tmp_path):
        results = []
        for name, members in (("up", "{8, 16}"), ("down", "{16, 8}")):
            path = tmp_path / f"{name}.tla"
            path.write_text(self.SOURCE.replace("{SET}", members))
            results.append(self.outputs(runner, path))
        assert results[0] == results[1]
        assert [result.exit_code for result in results[0]] == [1, 1, 0, 0, 0]
        assert "x=16 y=16" in results[0][0].stdout


class TestTest:
    def test_reference_run_passes(self, runner):
        result = invoke(runner, "test", "--cases", "5", "--seed", "3",
                        "--format", "json")
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "pass"
        assert report["cases_run"] == 5
        assert report["failing"] is None

    def test_subprocess_mutant_fails_with_a_shrunk_core(self, runner):
        sut = f"{sys.executable} -m tmbt.boiler --mutant pump"
        result = invoke(runner, "test", "--sut", sut, "--seed", "7",
                        "--format", "json")
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["verdict"] == "fail"
        assert report["failing"]["shrunk"] == [
            {"op": "startSystem", "args": {}},
            {"op": "openPump", "args": {}},
        ]

    def test_human_failure_report(self, runner):
        sut = f"{sys.executable} -m tmbt.boiler --mutant pump"
        result = invoke(runner, "test", "--sut", sut, "--seed", "7")
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[0] == "verdict: fail (1 cases, seed 7)"
        assert "shrunk counterexample:" in lines
        # the index counts in the generated case, which the text omits
        assert lines[-1] == \
            "first divergence at index 7 of the 40-command generated case"

    def test_missing_sut_binary(self, runner):
        result = invoke(runner, "test", "--sut", "/no/such/sut")
        assert result.exit_code == 2
        assert "No such file" in result.stderr

    @pytest.mark.parametrize("cmdline", ["", "   "], ids=["empty", "blank"])
    def test_an_empty_sut_is_a_usage_error(self, runner, cmdline):
        result = invoke(runner, "test", "--sut", cmdline)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: the SUT command line is empty\n"

    @pytest.mark.parametrize("low,high", [(800, 100), (500, 500)])
    def test_unordered_thresholds_are_a_usage_error(self, runner, low, high):
        params = ["--param", f"low={low}", "--param", f"high={high}"]
        for args in (["test", *params],
                     ["check", "--example", "steamboiler", *params]):
            result = invoke(runner, *args)
            assert result.exit_code == 2, args
            assert result.stdout == ""
            assert result.stderr == (
                f"error: thresholds low={low}, high={high} are not ordered\n")

    def test_only_the_boiler_has_a_test_model(self, runner):
        result = invoke(runner, "test", "--example", "onebit")
        assert result.exit_code == 2
        assert "only the steamboiler example" in result.stderr

    def test_unknown_parameter_name(self, runner):
        result = invoke(runner, "test", "--param", "lo=1")
        assert result.exit_code == 2
        assert "unknown parameter 'lo'" in result.stderr

    def test_thresholds_move_the_model(self, runner):
        # the reference system reacts at 300/700, so a model told to
        # expect 250/700 sees a divergence as soon as levels reach 300
        result = invoke(runner, "test", "--param", "low=250",
                        "--cases", "40", "--seed", "0", "--format", "json")
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["verdict"] == "fail"


class TestDeepFormulas:
    """A formula nested past the recursion limit is an input error."""

    def source(self, tmp_path, init):
        path = tmp_path / "deep.tla"
        path.write_text(f"VARIABLE x\nInit == {init}\nNext == x' = x\n")
        return path

    @pytest.fixture
    def deep_source(self, tmp_path):
        return self.source(tmp_path, " /\\ ".join(["x = 0"] * 1000))

    @pytest.fixture
    def deep_sum(self, tmp_path):
        return self.source(tmp_path, "x = " + "(" * 1000 + "0"
                           + " + 0)" * 1000)

    def run(self, *args):
        return subprocess.run([sys.executable, "-m", "tmbt.cli", *args],
                              capture_output=True, text=True, env=cli_env())

    def test_check_reports_it(self, deep_sum):
        result = self.run("check", "--spec", str(deep_sum))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == "error: formula nests too deeply\n"

    def test_check_passes_a_long_conjunction(self, deep_source):
        # the explorer walks a 1,000-conjunct Init without recursion
        result = self.run("check", "--spec", str(deep_source), "--format", "json")
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == {
            "diameter": 1, "distinct_states": 1, "states_found": 2,
            "truncated": False}

    def test_translate_reports_it(self, deep_source):
        result = self.run("translate", str(deep_source))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == "deep.tla: formula nests too deeply\n"
        assert result.stdout == ""


class TestUnboundedDomain:
    """A variable a formula leaves unbound, with no TypeOK domain, is an input error."""

    def test_check_names_the_action_and_the_variable(self, runner, tmp_path):
        path = tmp_path / "free.tla"
        path.write_text("VARIABLE x\nInit == x = 0\nGrow == x' > x\nNext == Grow\n")
        result = invoke(runner, "check", "--spec", str(path))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: no finite domain for variable x: action "
                                 "Grow leaves it free and TypeOK gives it no domain\n")

    @pytest.mark.parametrize("type_ok", [
        "", "TypeOK == x \\in 9223372036854775800..9223372036854775807\n",
    ], ids=["without-TypeOK", "with-TypeOK"])
    def test_an_assignment_that_cannot_be_evaluated_says_why(self, runner,
                                                             tmp_path, type_ok):
        path = tmp_path / "overflow.tla"
        path.write_text(f"VARIABLE x\n{type_ok}Init == x = 9223372036854775806\n"
                        "Next == x' = x + 1\n")
        result = invoke(runner, "check", "--spec", str(path))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: arithmetic result 9223372036854775808 "
                                 "outside signed 64-bit range\n")


class TestDeadSut:
    """A SUT that dies is an input error, not a failed property."""

    def run(self, *args):
        return subprocess.run([sys.executable, "-m", "tmbt.cli", *args],
                              capture_output=True, text=True, env=cli_env())

    def test_exited_sut_is_exit_2(self):
        result = self.run("test", "--sut", "true", "--cases", "2")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: SUT ")
        assert result.stdout == ""

    def test_sut_that_shuts_its_input_is_exit_2(self, tmp_path):
        script = tmp_path / "sut.py"
        script.write_text("import os, time\nos.close(0)\ntime.sleep(0.3)\n")
        result = self.run("test", "--sut", f"{sys.executable} {script}",
                          "--cases", "2")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: SUT ")

    def test_sut_reply_past_signed_64_bit_is_exit_2(self, tmp_path):
        script = tmp_path / "sut.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('{\"ok\": true, \"observed\": "
            "{\"level\": 9223372036854775808, \"pump\": false}}', "
            "flush=True)\n")
        result = self.run("test", "--sut", f"{sys.executable} {script}",
                          "--cases", "2")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: integer 9223372036854775808 outside signed 64-bit range\n")


class TestUsage:
    """Argument errors are argparse's: exit 2, a usage message, no output."""

    @pytest.mark.parametrize("args", [
        ["check", "--example", "onebit", "--nosuch"],
        ["check", "--example", "nosuch"],
        ["test", "--cases", "x"],
        ["check", "--example", "onebit", "--max-distinct", "x"],
        ["check", "--example", "diehard", "--inv", "big_ne_4"],
        ["translate"],
        [],
    ], ids=["unknown-option", "unknown-example", "cases-not-int",
            "max-distinct-not-int", "abbreviated-option", "missing-source",
            "no-command"])
    def test_is_exit_2_without_output(self, runner, args):
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("args", [
        ["test", "--cases", "-3"],
        ["test", "--max-len", "-1"],
        ["behaviors", "--example", "onebit", "--count", "-2"],
        ["behaviors", "--example", "onebit", "--max-len", "-1"],
        ["check", "--example", "onebit", "--max-distinct", "-1"],
        ["check", "--example", "onebit", "--max-depth", "-1"],
    ], ids=["cases", "test-max-len", "count", "behaviors-max-len",
            "max-distinct", "max-depth"])
    def test_a_negative_count_is_a_usage_error(self, runner, args):
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: ")
        assert f"argument {args[-2]}: must be 0 or more, got {args[-1]}" \
            in result.stderr

    # zero keeps its meaning: no cases, no states kept, no level expanded
    @pytest.mark.parametrize("args", [
        ["test", "--cases", "0"],
        ["check", "--example", "onebit", "--max-distinct", "0"],
        ["check", "--example", "onebit", "--max-depth", "0"],
    ], ids=["cases", "max-distinct", "max-depth"])
    def test_a_zero_count_is_accepted(self, runner, args):
        assert invoke(runner, *args).exit_code == 0

    def test_example_choices_are_the_examples(self):
        import tmbt.cli as cli
        assert cli.EXAMPLE_NAMES == specs.EXAMPLE_NAMES

    @pytest.mark.parametrize("command,names", [
        ("translate", ["source", "output"]),
        ("check", ["--spec", "--example", "--param", "--invariant",
                   "--max-distinct", "--max-depth", "--format"]),
        ("behaviors", ["--spec", "--example", "--param", "--count",
                       "--max-len", "--seed"]),
        ("test", ["--example", "--param", "--sut", "--cases", "--max-len",
                  "--seed", "--continue-on-fail", "--format"]),
    ])
    def test_help_names_every_option(self, runner, command, names):
        result = invoke(runner, command, "--help")
        assert result.exit_code == 0
        assert result.stderr == ""
        for name in names:
            assert name in result.stdout

    def test_main_takes_args_and_a_program_name(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(args=["check", "--example", "onebit", "--format", "json"],
                 prog_name="x")
        assert done.value.code == 0
        assert json.loads(capsys.readouterr().out)["distinct_states"] == 2
        with pytest.raises(SystemExit) as done:
            main(args=["--nosuch"], prog_name="x")
        assert done.value.code == 2
        assert capsys.readouterr().err.startswith("usage: x ")


class TestInterrupted:
    """Neither Ctrl-C nor a closed stdout reads as a failed property."""

    def test_ctrl_c_is_exit_130(self, runner, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("tmbt.cli.explore", interrupt)
        result = invoke(runner, "check", "--example", "onebit")
        assert result.exit_code == 130
        assert result.stdout == ""
        assert result.stderr == "interrupted\n"

    def test_ctrl_c_closes_the_sut(self, runner, monkeypatch):
        import tmbt.pbt as pbt

        adapters = []

        def interrupt(binding, adapter, config):
            adapters.append(adapter)
            raise KeyboardInterrupt

        monkeypatch.setattr(pbt, "test", interrupt)
        result = invoke(runner, "test", "--sut", f"{sys.executable} -m tmbt.boiler")
        assert result.exit_code == 130
        assert result.stderr == "interrupted\n"
        assert adapters[0].process is None  # closed and reaped

    def test_a_closed_stdout_is_exit_141(self):
        # 2,000 behaviors overflow the pipe, so a write meets the closed end
        argv = [sys.executable, "-m", "tmbt.cli", "behaviors", "--example",
                "steamboiler", "--count", "2000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=cli_env()) as child:
            first = child.stdout.readline()
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=60)
        assert json.loads(first)["states"]
        assert (code, stderr) == (141, "")
