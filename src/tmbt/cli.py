"""Command-line front end: translate, check, behaviors, test.

Exit codes are a stable scripting contract: 0 for success or pass, 1
when a property or invariant fails, 2 for usage and input errors, 130
when interrupted (Ctrl-C) and 141 when stdout is closed before the
output is written (as a shell reports a process killed by SIGPIPE).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

from .errors import NoInitialStates, TmbtError
from .explore import (
    behavior_to_json,
    behaviors as spec_behaviors,
    counterexample_to_json,
    explore,
    stats_to_json,
)
from .values import INT64_MAX, INT64_MIN, value_to_json

# Each command imports the layers only it runs (the parser where a
# source file is read, the examples where one is named, the IR in
# translate, PBT and the boiler in test), so a process pays start-up only
# for what its command needs.

# tmbt.specs.EXAMPLE_NAMES, repeated so that parsing the arguments loads
# no example; test_cli.py holds the two equal
EXAMPLE_NAMES = ("onebit", "diehard", "euclid", "therac25", "steamboiler")

PASS, FAIL, USAGE = 0, 1, 2
INTERRUPTED, PIPE_CLOSED = 130, 141

# A formula nested past Python's recursion limit is an input error too.
INPUT_ERRORS = (TmbtError, ValueError, OSError, RecursionError)


class UsageError(Exception):
    """A combination of arguments the parser alone cannot reject."""


def _input_error(options, problem: Exception) -> int:
    """Report one of INPUT_ERRORS on one stderr line, which names the
    source file in translate."""
    prefix = (pathlib.Path(options.source).name if options.run is translate
              else "error")
    deep = isinstance(problem, RecursionError)
    print(f"{prefix}: {'formula nests too deeply' if deep else problem}",
          file=sys.stderr)
    return USAGE


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--param expects K=V, got {pair!r}")
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"--param {key} needs an integer, got {raw!r}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise UsageError(f"--param {key} is outside signed 64-bit range")
        params[key] = value
    return params


def _load_spec(spec_path, example, params, invariants=()):
    """Resolve --spec/--example plus --param into a TemporalSpec."""
    if (spec_path is None) == (example is None):
        raise UsageError("give exactly one of --spec or --example")
    if spec_path is not None:
        if params:
            raise UsageError("--param applies to built-in examples only")
        from .tla import parse_module, to_spec

        path = pathlib.Path(spec_path)
        module = parse_module(path.read_text())
        return to_spec(module, name=path.stem, invariant_names=tuple(invariants))
    from . import specs

    spec = specs.load(example, params)
    known = {name for name, _ in spec.invariants}
    missing = [inv for inv in invariants if inv not in known]
    if missing:
        raise UsageError(
            f"example {example} has no invariant named {missing[0]!r}")
    return spec


def _state_line(state) -> str:
    return " ".join(f"{name}={json.dumps(value_to_json(value))}"
                    for name, value in state.bindings)


def translate(options) -> int:
    """Translate a .tla-subset file to canonical spec IR JSON."""
    from . import ir
    from .tla import parse_module, to_spec

    path = pathlib.Path(options.source)
    text = ir.spec_to_text(to_spec(parse_module(path.read_text()),
                                   name=path.stem))
    if options.output:
        pathlib.Path(options.output).write_text(text)
    else:
        sys.stdout.write(text)
    return PASS


def check(options) -> int:
    """Explore the state space and check invariants."""
    invariants = options.invariants
    spec = _load_spec(options.spec_path, options.example,
                      _parse_params(options.params), invariants)
    _, stats, counterexamples = explore(
        spec, max_distinct=options.max_distinct, max_depth=options.max_depth)
    if not stats.states_found:  # an Init with no state, as `behaviors` reads it
        raise NoInitialStates.of(spec)
    if invariants:
        # reporting is restricted; the exploration itself is not
        counterexamples = [cex for cex in counterexamples
                           if cex.invariant in invariants]
    if options.fmt == "json":
        print(json.dumps(stats_to_json(stats), sort_keys=True))
        for cex in counterexamples:
            print(json.dumps(counterexample_to_json(cex), sort_keys=True))
    else:
        print(f"states found:    {stats.states_found}")
        print(f"distinct states: {stats.distinct_states}")
        print(f"diameter:        {stats.diameter}")
        for cex in counterexamples:
            print(f"invariant {cex.invariant} violated; "
                  f"shortest trace ({len(cex.trace)} states):")
            for step, state in enumerate(cex.trace.states, start=1):
                print(f"  {step}. {_state_line(state)}")
    if stats.truncated:
        sys.stdout.flush()  # the note follows the report on a shared stream
        print("limit exceeded: exploration truncated, result is a lower bound",
              file=sys.stderr)
    return FAIL if counterexamples else PASS


def behaviors(options) -> int:
    """Emit seeded random behaviors as JSON lines."""
    spec = _load_spec(options.spec_path, options.example,
                      _parse_params(options.params))
    walks = spec_behaviors(spec, options.count, options.max_len, options.seed)
    for walk in walks:
        print(json.dumps(behavior_to_json(walk), sort_keys=True))
    return PASS


def test(options) -> int:
    """Property-test a system under test against the model."""
    import shlex

    from . import pbt
    from .boiler_model import build_boiler_binding, reference_adapter

    if options.example != "steamboiler":
        raise UsageError("only the steamboiler example has a test model")
    values = _parse_params(options.params)
    unknown = set(values) - {"low", "high"}
    if unknown:
        raise UsageError(f"unknown parameter {sorted(unknown)[0]!r}")
    binding = build_boiler_binding(**values)
    config = pbt.TestConfig(cases=options.cases, max_len=options.max_len,
                            seed=options.seed,
                            continue_on_fail=options.continue_on_fail)
    if options.sut_cmdline is None:
        report = pbt.test(binding, reference_adapter(), config)
    else:
        with pbt.SubprocessAdapter(shlex.split(options.sut_cmdline)) as sut:
            report = pbt.test(binding, sut, config)
    if options.fmt == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(f"verdict: {report.verdict} "
              f"({report.cases_run} cases, seed {report.seed})")
        for op, count in report.invocation_counts:
            print(f"  {op}: {count}")
        if report.failing:
            print("shrunk counterexample:")
            for command in report.failing.shrunk:
                print(f"  {json.dumps(command.to_json(), sort_keys=True)}")
            failing = report.failing
            print(f"first divergence at index {failing.result.index} of the "
                  f"{len(failing.commands)}-command generated case")
    return PASS if report.verdict == "pass" else FAIL


def _existing_path(text: str) -> str:
    import argparse

    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _count(text: str) -> int:
    """A count option's value: an integer, 0 or more."""
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


# options that more than one command takes
SPEC = dict(dest="spec_path", type=_existing_path, metavar="FILE",
            help="a .tla-subset source file (or --example)")
EXAMPLE = dict(choices=EXAMPLE_NAMES,
               help="a built-in example spec (or --spec)")
PARAM = dict(dest="params", action="append", default=[], metavar="K=V",
             help="example parameter K=V (repeatable; default: the "
                  "example's own)")
FORMAT = dict(dest="fmt", choices=("human", "json"), default="human",
              help="output format (default: %(default)s)")


def _parser(prog_name):
    """The `tmbt` argparse parser.  Each subcommand's parser sets `run`,
    the function that runs it, and `parser`, itself."""
    # argparse loads here, after the tmbt layers have compiled: compiling
    # them with argparse loaded raises the process's peak RSS by 0.4 MB
    import argparse

    parser = argparse.ArgumentParser(
        prog=prog_name or "tmbt", allow_abbrev=False,
        description="Temporal-spec tooling: translate, explore, and test "
                    "against models.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__,
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        return sub

    sub = command(translate)
    sub.add_argument("source", type=_existing_path,
                     help="a .tla-subset source file")
    sub.add_argument("output", nargs="?",
                     help="write the IR to this file (default: stdout)")

    sub = command(check)
    sub.add_argument("--spec", **SPEC)
    sub.add_argument("--example", **EXAMPLE)
    sub.add_argument("--param", **PARAM)
    sub.add_argument("--invariant", dest="invariants", action="append",
                     default=[], metavar="NAME",
                     help="check only this invariant (repeatable; default: "
                          "all)")
    sub.add_argument("--max-distinct", type=_count, metavar="N",
                     help="stop after this many distinct states (default: "
                          "no limit)")
    sub.add_argument("--max-depth", type=_count, metavar="N",
                     help="do not explore past this BFS depth (default: "
                          "no limit)")
    sub.add_argument("--format", **FORMAT)

    sub = command(behaviors)
    sub.add_argument("--spec", **SPEC)
    sub.add_argument("--example", **EXAMPLE)
    sub.add_argument("--param", **PARAM)
    sub.add_argument("--count", type=_count, default=10, metavar="N",
                     help="behaviors to emit (default: %(default)s)")
    sub.add_argument("--max-len", type=_count, default=10, metavar="N",
                     help="maximum states per behavior (default: "
                          "%(default)s)")
    sub.add_argument("--seed", type=int, default=0, metavar="N",
                     help="random seed (default: %(default)s)")

    sub = command(test)
    sub.add_argument("--example", choices=EXAMPLE_NAMES,
                     default="steamboiler",
                     help="the example whose test model to run (default: "
                          "%(default)s, the only one with a test model)")
    sub.add_argument("--param", **PARAM)
    sub.add_argument("--sut", dest="sut_cmdline", metavar="CMDLINE",
                     help="SUT command line speaking the adapter protocol "
                          "(default: in-process reference implementation)")
    sub.add_argument("--cases", type=_count, default=100, metavar="N",
                     help="cases to generate (default: %(default)s)")
    sub.add_argument("--max-len", type=_count, default=40, metavar="N",
                     help="maximum commands per case (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0, metavar="N",
                     help="random seed (default: %(default)s)")
    sub.add_argument("--continue-on-fail", action="store_true",
                     help="keep running cases after the first failure "
                          "(default: stop there)")
    sub.add_argument("--format", **FORMAT)
    return parser


def main(args=None, prog_name=None) -> None:
    """Run one `tmbt` command and exit with its code.

    `args` defaults to the process's arguments and `prog_name`, the
    name usage messages give the program, to `tmbt`.
    """
    options = _parser(prog_name).parse_args(args)
    try:
        code = options.run(options)
        sys.stdout.flush()
    except UsageError as problem:
        options.parser.error(str(problem))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = INTERRUPTED
    except BrokenPipeError:
        # The reader has gone: what is left, and the flush at exit, go
        # nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PIPE_CLOSED
    except INPUT_ERRORS as problem:  # after BrokenPipeError, an OSError
        code = _input_error(options, problem)
    sys.exit(code)


if __name__ == "__main__":
    main()
