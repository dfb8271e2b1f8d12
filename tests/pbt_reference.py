"""Command generation, validation, replay and shrinking as `tmbt.pbt`
shipped them before, kept as the reference.

`_arg_domain`, `generate_commands` and `_check_step` are as they were
before argument domains were read through set views: each argument
domain is evaluated to a set, and so sorted, for every draw, each check
evaluates a new `In(Const(value), domain)` node, and every precondition
is evaluated at every step.  `op_by_scan` is the linear alphabet lookup
that `ModelBinding.op` made.  The differential test in
test_pbt_domains.py holds the new code to the commands these draw and to
their error types and messages.

`run_case` and `shrink` are as they were before cases were pipelined:
`run_case` validates each command just before it sends it, and exchanges
one request and one reply at a time through the adapter's `reset` and
`apply`; every shrink replay walks the model twice, once in `_valid` and
once in `run_case`.  test_subprocess_sut.py holds the pipelined replay
and its shrinks to the verdicts and sequences these give.
"""

from __future__ import annotations

import random

from tmbt.errors import PreconditionViolated, SutCrashed, TypeMismatch
from tmbt.pbt import CaseResult, Command, ArgSpec, ModelBinding, OpSpec, _divergence
from tmbt.spec import Const, In, State, TemporalSpec, eval_expr, eval_state_formula
from tmbt.values import IntVal, set_members


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


def run_case(binding: ModelBinding, sut, commands) -> CaseResult:
    """Replay one command sequence against a fresh SUT.

    Fails at the first index whose observation diverges from the model,
    treating a SUT crash as a failure at the crashing index.  An
    invalid sequence (precondition or argument-domain breach) raises
    PreconditionViolated instead: that is a harness bug, not a SUT bug.
    """
    sut.reset()
    state = binding.initial
    for index, command in enumerate(commands):
        op = _check_step(binding, state, command, index)
        state, expected = _apply_effect(op, state, command.arg_map())
        expected_pairs = tuple(sorted(expected.items()))
        try:
            observed = sut.apply(command)
        except SutCrashed as crash:
            return CaseResult(False, index, expected_pairs, None, str(crash))
        if _divergence(expected, observed):
            return CaseResult(False, index, expected_pairs,
                              tuple(sorted(observed.items())))
    return CaseResult(True)


def _valid(binding: ModelBinding, commands) -> bool:
    state = binding.initial
    for index, command in enumerate(commands):
        try:
            op = _check_step(binding, state, command, index)
        except PreconditionViolated:
            return False
        state, _ = _apply_effect(op, state, command.arg_map())
    return True


def _still_fails(binding: ModelBinding, sut, commands) -> bool:
    return _valid(binding, commands) and not run_case(binding, sut, commands).ok


def _int_shrink_candidates(n: int) -> list:
    if n == 0:
        return []
    out = []
    for candidate in (0, n // 2, n - 1 if n > 0 else n + 1):
        if candidate != n and candidate not in out:
            out.append(candidate)
    return out


def _shrink_segments(binding, sut, commands: list) -> bool:
    """Drop contiguous chunks, halving the window; True if anything dropped.

    Chunks catch command pairs whose members are individually load-bearing
    (a startSystem/endSystem bracket, say) but removable together.
    """
    progress = False
    size = len(commands) // 2
    while size >= 2:
        index = 0
        while index + size <= len(commands):
            candidate = commands[:index] + commands[index + size:]
            if _still_fails(binding, sut, candidate):
                commands[:] = candidate
                progress = True
            else:
                index += 1
        size //= 2
    return progress


def _shrink_removals(binding, sut, commands: list) -> bool:
    """One pass of single-command removals; True if anything dropped."""
    progress = False
    index = 0
    while index < len(commands):
        candidate = commands[:index] + commands[index + 1:]
        if _still_fails(binding, sut, candidate):
            commands[:] = candidate
            progress = True
        else:
            index += 1
    return progress


def _shrink_args(binding, sut, commands: list) -> bool:
    """One pass pulling integer arguments toward 0; True on progress."""
    progress = False
    for index, command in enumerate(commands):
        for name, value in command.args:
            if not isinstance(value, IntVal):
                continue
            for small in _int_shrink_candidates(value.value):
                replaced = command.arg_map()
                replaced[name] = IntVal(small)
                candidate = list(commands)
                candidate[index] = Command(command.op, replaced)
                if _still_fails(binding, sut, candidate):
                    commands[:] = candidate
                    command = candidate[index]
                    progress = True
                    break
    return progress


def shrink(binding: ModelBinding, sut, failing) -> tuple:
    """Greedy shrink: removal passes and integer-argument passes are
    interleaved to a joint fixpoint.  The result still fails and is
    1-minimal (no single removal keeps it failing and valid)."""
    if not _still_fails(binding, sut, failing):
        msg = "shrink requires a failing command sequence"
        raise PreconditionViolated(msg)
    commands = list(failing)
    while True:
        chunked = _shrink_segments(binding, sut, commands)
        removed = _shrink_removals(binding, sut, commands)
        adjusted = _shrink_args(binding, sut, commands)
        if not chunked and not removed and not adjusted:
            return tuple(commands)
