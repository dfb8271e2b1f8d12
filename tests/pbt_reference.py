"""Command generation and validation as `tmbt.pbt` shipped them before
argument domains were read through set views, kept as the reference.

`_arg_domain`, `generate_commands` and `_check_step` are unchanged: each
argument domain is evaluated to a set, and so sorted, for every draw,
and each check evaluates a new `In(Const(value), domain)` node.
`op_by_scan` is the linear alphabet lookup that `ModelBinding.op` made.
The differential test in test_pbt_domains.py holds the new code to the
commands these draw and to their error types and messages.
"""

from __future__ import annotations

import random

from tmbt.errors import PreconditionViolated, TypeMismatch
from tmbt.pbt import Command, ArgSpec, ModelBinding, OpSpec
from tmbt.spec import Const, In, State, TemporalSpec, eval_expr, eval_state_formula
from tmbt.values import set_members


def op_by_scan(binding: ModelBinding, name: str) -> OpSpec:
    for op in binding.alphabet:
        if op.name == name:
            return op
    msg = f"operation {name!r} is not in the alphabet"
    raise TypeMismatch(msg)


def _arg_domain(arg: ArgSpec, state: State, chosen: dict) -> list:
    domain = eval_expr(arg.domain, state, env=dict(chosen))
    return set_members(domain)


def _apply_effect(op: OpSpec, state: State, args: dict):
    nxt, observed = op.effect(state, dict(args))
    return nxt, observed


def _check_step(binding: ModelBinding, state: State, command: Command,
                index: int) -> OpSpec:
    """Validate one command against the model; raises PreconditionViolated."""
    op = binding.op(command.op)
    if not eval_state_formula(op.pre, state):
        msg = f"precondition of {op.name} does not hold at index {index}"
        raise PreconditionViolated(msg)
    given = command.arg_map()
    if set(given) != {a.name for a in op.args}:
        msg = f"{op.name} at index {index} has wrong argument names"
        raise PreconditionViolated(msg)
    chosen: dict = {}
    for arg in op.args:
        value = given[arg.name]
        if not eval_expr(In(Const(value), arg.domain), state, env=chosen).value:
            msg = (f"argument {arg.name}={value!r} of {op.name} "
                   f"at index {index} is outside its domain")
            raise PreconditionViolated(msg)
        chosen[arg.name] = value
    return op


def generate_commands(binding: ModelBinding, spec: TemporalSpec,
                      max_len: int, seed: int) -> tuple:
    """Generate one command sequence, walking the model from its
    initial state.  Stops early when no operation is enabled."""
    if set(binding.initial.variables()) != set(spec.variables):
        msg = "binding initial state does not bind the spec's variables"
        raise TypeMismatch(msg)
    if not eval_state_formula(spec.init, binding.initial):
        msg = "binding initial state does not satisfy the spec's init"
        raise TypeMismatch(msg)
    rng = random.Random(seed)
    state = binding.initial
    commands = []
    for _ in range(max_len):
        candidates = [op for op in binding.alphabet
                      if eval_state_formula(op.pre, state)]
        command = None
        while candidates:
            weights = [op.weight for op in candidates]
            op = rng.choices(candidates, weights=weights)[0]
            chosen: dict = {}
            for arg in op.args:
                members = _arg_domain(arg, state, chosen)
                if not members:
                    break
                chosen[arg.name] = members[rng.randrange(len(members))]
            else:
                command = Command(op.name, chosen)
                break
            candidates.remove(op)  # an argument domain was empty
        if command is None:
            break
        state, _ = _apply_effect(op, state, command.arg_map())
        commands.append(command)
    return tuple(commands)
