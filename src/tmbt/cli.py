"""Command-line front end: translate, check, behaviors, test.

Exit codes are a stable scripting contract: 0 for success or pass, 1
when a property or invariant fails, 2 for usage and input errors.
"""

from __future__ import annotations

import json
import pathlib
import shlex
import sys

import click

from . import specs
from .errors import TmbtError
from .explore import (
    behavior_to_json,
    behaviors as spec_behaviors,
    counterexample_to_json,
    explore,
    stats_to_json,
)
from .values import value_to_json

# Each command imports the layers only it runs (the parser where a
# source file is read, the IR in translate, PBT and the boiler in test),
# so a process pays start-up only for what its command needs.

PASS, FAIL, USAGE = 0, 1, 2

# A formula nested past Python's recursion limit is an input error too.
INPUT_ERRORS = (TmbtError, ValueError, OSError, RecursionError)


def _usage_error(prefix: str, problem: Exception):
    deep = isinstance(problem, RecursionError)
    click.echo(f"{prefix}: {'formula nests too deeply' if deep else problem}",
               err=True)
    sys.exit(USAGE)


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise click.UsageError(f"--param expects K=V, got {pair!r}")
        try:
            params[key] = int(raw)
        except ValueError:
            raise click.UsageError(f"--param {key} needs an integer, got {raw!r}")
    return params


def _load_spec(spec_path, example, params, invariants=()):
    """Resolve --spec/--example plus --param into a TemporalSpec."""
    if (spec_path is None) == (example is None):
        raise click.UsageError("give exactly one of --spec or --example")
    if spec_path is not None:
        if params:
            raise click.UsageError("--param applies to built-in examples only")
        from .tla import parse_module, to_spec

        path = pathlib.Path(spec_path)
        module = parse_module(path.read_text())
        return to_spec(module, name=path.stem, invariant_names=tuple(invariants))
    spec = specs.load(example, params)
    known = {name for name, _ in spec.invariants}
    missing = [inv for inv in invariants if inv not in known]
    if missing:
        raise click.UsageError(
            f"example {example} has no invariant named {missing[0]!r}")
    return spec


def _state_line(state) -> str:
    return " ".join(f"{name}={json.dumps(value_to_json(value))}"
                    for name, value in state.bindings)


spec_option = click.option("--spec", "spec_path", type=click.Path(exists=True),
                           default=None, help="a .tla-subset source file")
example_option = click.option("--example", type=click.Choice(specs.EXAMPLE_NAMES),
                              default=None, help="a built-in example spec")
param_option = click.option("--param", "params", multiple=True,
                            help="example parameter K=V (repeatable)")
format_option = click.option("--format", "fmt",
                             type=click.Choice(("human", "json")),
                             default="human", show_default=True)


@click.group()
def main() -> None:
    """Temporal-spec tooling: translate, explore, and test against models."""


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.argument("output", type=click.Path(), required=False)
def translate(source, output) -> None:
    """Translate a .tla-subset file to canonical spec IR JSON."""
    from . import ir
    from .tla import parse_module, to_spec

    path = pathlib.Path(source)
    try:
        spec = to_spec(parse_module(path.read_text()), name=path.stem)
        text = ir.spec_to_text(spec)
        if output:
            pathlib.Path(output).write_text(text)
    except INPUT_ERRORS as problem:
        _usage_error(path.name, problem)
    if not output:
        click.echo(text, nl=False)
    sys.exit(PASS)


@main.command()
@spec_option
@example_option
@param_option
@click.option("--invariant", "invariants", multiple=True,
              help="check only this invariant (repeatable)")
@click.option("--max-distinct", type=int, default=None,
              help="stop after this many distinct states")
@click.option("--max-depth", type=int, default=None,
              help="do not explore past this BFS depth")
@format_option
def check(spec_path, example, params, invariants, max_distinct, max_depth,
          fmt) -> None:
    """Explore the state space and check invariants."""
    try:
        spec = _load_spec(spec_path, example, _parse_params(params), invariants)
        _, stats, counterexamples = explore(
            spec, max_distinct=max_distinct, max_depth=max_depth)
    except INPUT_ERRORS as problem:
        _usage_error("error", problem)
    if invariants:
        # reporting is restricted; the exploration itself is not
        counterexamples = [cex for cex in counterexamples
                           if cex.invariant in invariants]
    if fmt == "json":
        click.echo(json.dumps(stats_to_json(stats), sort_keys=True))
        for cex in counterexamples:
            click.echo(json.dumps(counterexample_to_json(cex),
                                  sort_keys=True))
    else:
        click.echo(f"states found:    {stats.states_found}")
        click.echo(f"distinct states: {stats.distinct_states}")
        click.echo(f"diameter:        {stats.diameter}")
        for cex in counterexamples:
            click.echo(f"invariant {cex.invariant} violated; "
                       f"shortest trace ({len(cex.trace)} states):")
            for step, state in enumerate(cex.trace.states, start=1):
                click.echo(f"  {step}. {_state_line(state)}")
    if stats.truncated:
        click.echo("limit exceeded: exploration truncated, result is a "
                   "lower bound", err=True)
    sys.exit(FAIL if counterexamples else PASS)


@main.command()
@spec_option
@example_option
@param_option
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--max-len", type=int, default=10, show_default=True,
              help="maximum states per behavior")
@click.option("--seed", type=int, default=0, show_default=True)
def behaviors(spec_path, example, params, count, max_len, seed) -> None:
    """Emit seeded random behaviors as JSON lines."""
    try:
        spec = _load_spec(spec_path, example, _parse_params(params))
        walks = spec_behaviors(spec, count, max_len, seed)
    except INPUT_ERRORS as problem:
        _usage_error("error", problem)
    for walk in walks:
        click.echo(json.dumps(behavior_to_json(walk), sort_keys=True))
    sys.exit(PASS)


@main.command()
@example_option
@param_option
@click.option("--sut", "sut_cmdline", default=None,
              help="SUT command line speaking the adapter protocol "
                   "(default: in-process reference implementation)")
@click.option("--cases", type=int, default=100, show_default=True)
@click.option("--max-len", type=int, default=40, show_default=True,
              help="maximum commands per case")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--continue-on-fail", is_flag=True, default=False,
              help="keep running cases after the first failure")
@format_option
def test(example, params, sut_cmdline, cases, max_len, seed,
         continue_on_fail, fmt) -> None:
    """Property-test a system under test against the model."""
    from . import pbt
    from .boiler import build_boiler_binding, reference_adapter

    if example is None:
        example = "steamboiler"
    if example != "steamboiler":
        raise click.UsageError("only the steamboiler example has a test model")
    values = _parse_params(params)
    low = values.get("low", 300)
    high = values.get("high", 700)
    unknown = set(values) - {"low", "high"}
    if unknown:
        raise click.UsageError(f"unknown parameter {sorted(unknown)[0]!r}")
    binding = build_boiler_binding(low, high)
    config = pbt.TestConfig(cases=cases, max_len=max_len, seed=seed,
                            continue_on_fail=continue_on_fail)
    adapter = None
    try:
        if sut_cmdline is None:
            adapter = reference_adapter()
        else:
            adapter = pbt.SubprocessAdapter(shlex.split(sut_cmdline))
        report = pbt.test(binding, adapter, config)
    except INPUT_ERRORS as problem:
        _usage_error("error", problem)
    finally:
        if sut_cmdline is not None and adapter is not None:
            adapter.close()
    if fmt == "json":
        click.echo(json.dumps(report.to_json(), sort_keys=True))
    else:
        click.echo(f"verdict: {report.verdict} "
                   f"({report.cases_run} cases, seed {report.seed})")
        for op, count in report.invocation_counts:
            click.echo(f"  {op}: {count}")
        if report.failing:
            click.echo("shrunk counterexample:")
            for command in report.failing.shrunk:
                click.echo(f"  {json.dumps(command.to_json(), sort_keys=True)}")
            detail = report.failing.result
            click.echo(f"first divergence at index {detail.index}")
    sys.exit(PASS if report.verdict == "pass" else FAIL)


if __name__ == "__main__":
    main()
