"""Stateful property-based testing against a temporal-spec model.

A ModelBinding turns a spec's state space into an executable test
model: each operation has a precondition (a state formula), argument
domains (expressions over the current model state) and an effect that
yields the expected next model state plus the expected observable
reply.  Cases are generated model-first, replayed against a system
under test through an adapter, and shrunk on failure.

Command sequences, case verdicts and reports are all plain immutable
data; everything is reproducible from the seed.
"""

from __future__ import annotations

import dataclasses
import random
import time
import typing as t

from .errors import (
    PreconditionViolated,
    ProtocolError,
    SutCrashed,
    TypeMismatch,
)
from .spec import (
    RangeMembers,
    State,
    TemporalSpec,
    Var,
    eval_state_formula,
    fold,
    set_view,
)
from .values import IntVal, value_from_json, value_to_json


# ---------------------------------------------------------------------------
# Commands and bindings


@dataclasses.dataclass(frozen=True)
class Command:
    op: str
    args: tuple = ()

    def __init__(self, op, args=()):
        object.__setattr__(self, "op", op)
        if isinstance(args, dict):
            args = tuple(sorted(args.items()))
        object.__setattr__(self, "args", tuple(args))

    def arg_map(self) -> dict:
        return dict(self.args)

    def to_json(self) -> dict:
        return {"op": self.op,
                "args": {k: value_to_json(v) for k, v in self.args}}

    @classmethod
    def from_json(cls, data: dict) -> "Command":
        args = {k: value_from_json(v) for k, v in data.get("args", {}).items()}
        return cls(data["op"], args)


@dataclasses.dataclass(frozen=True)
class ArgSpec:
    """One named argument; `domain` evaluates to the finite set of
    admissible values in the current model state (earlier arguments of
    the same command are visible as bound names)."""

    name: str
    domain: "t.Any"


@dataclasses.dataclass(frozen=True)
class OpSpec:
    name: str
    pre: "t.Any"  # state formula
    effect: t.Callable  # (State, {name: Value}) -> (State, {name: Value})
    args: tuple = ()
    weight: int = 1


def _variables_read(expr) -> frozenset:
    """The names of the variables a formula reads (bound names included)."""
    return fold(expr, lambda node, inner: frozenset().union(
        *inner, (node.name,) if isinstance(node, Var) else ()))


@dataclasses.dataclass(frozen=True)
class ModelBinding:
    """The test model: an initial state plus the operation alphabet."""

    initial: State
    alphabet: tuple

    def __init__(self, initial, alphabet):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "alphabet", tuple(alphabet))
        by_name: dict = {}
        for op in reversed(self.alphabet):  # the first of a name wins
            by_name[op.name] = op
        object.__setattr__(self, "_by_name", by_name)
        reads = frozenset().union(*(_variables_read(op.pre)
                                    for op in self.alphabet))
        object.__setattr__(self, "_reads", reads)
        object.__setattr__(self, "_enabled", {})

    def op(self, name: str) -> OpSpec:
        try:
            return self._by_name[name]
        except KeyError:
            msg = f"operation {name!r} is not in the alphabet"
            raise TypeMismatch(msg) from None

    def op_names(self) -> tuple:
        return tuple(op.name for op in self.alphabet)

    def enabled(self, state: State) -> tuple:
        """The operations whose preconditions hold in `state`, in alphabet
        order.  Preconditions read only the variables in `_reads`, so the
        list is evaluated once per distinct binding of those and kept."""
        key = tuple(pair for pair in state.bindings if pair[0] in self._reads)
        ops = self._enabled.get(key)
        if ops is None:
            ops = tuple(op for op in self.alphabet
                        if eval_state_formula(op.pre, state))
            self._enabled[key] = ops
        return ops


def _arg_domain(arg: ArgSpec, state: State, chosen: dict) -> t.Sequence:
    """The argument's admissible values in canonical order; a range `a..b`
    is indexed, not built."""
    return set_view(arg.domain).members(state, None, chosen,
                                        f"domain of argument {arg.name}")


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
        if not set_view(arg.domain).contains(value, state, None, chosen):
            msg = (f"argument {arg.name}={value!r} of {op.name} "
                   f"at index {index} is outside its domain")
            raise PreconditionViolated(msg)
        chosen[arg.name] = value
    return op


# ---------------------------------------------------------------------------
# Generation


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
        candidates = list(binding.enabled(state))
        command = None
        while candidates:
            weights = [op.weight for op in candidates]
            op = rng.choices(candidates, weights=weights)[0]
            chosen: dict = {}
            for arg in op.args:
                members = _arg_domain(arg, state, chosen)
                count = (members.size if isinstance(members, RangeMembers)
                         else len(members))
                if not count:
                    break
                chosen[arg.name] = members[rng.randrange(count)]
            else:
                command = Command(op.name, chosen)
                break
            candidates.remove(op)  # an argument domain was empty
        if command is None:
            break
        state, _ = _apply_effect(op, state, command.arg_map())
        commands.append(command)
    return tuple(commands)


# ---------------------------------------------------------------------------
# Adapters


class SutAdapter(t.Protocol):
    def reset(self) -> None: ...
    def restart(self) -> None: ...
    def apply(self, command: Command) -> dict: ...

    def replies(self, commands) -> t.Iterator[dict]:
        """Reset the SUT, then yield its observation of each command in
        order; raises SutCrashed at the first command it did not answer."""


class InProcessAdapter:
    """Drives an object exposing reset() and handle(op, args).

    handle receives and returns plain JSON data; raising ValueError
    signals a SUT-level fault, the in-process equivalent of the
    {"ok": false} branch of the wire protocol.  Commands are handled one
    at a time as the caller asks for their replies, so nothing after a
    divergence reaches the system.
    """

    def __init__(self, system):
        self.system = system

    def reset(self) -> None:
        self.system.reset()

    def restart(self) -> None:
        self.system.reset()

    def apply(self, command: Command) -> dict:
        args = {k: value_to_json(v) for k, v in command.args}
        try:
            observed = self.system.handle(command.op, args)
        except ValueError as fault:
            raise SutCrashed(str(fault)) from fault
        if not isinstance(observed, dict):
            msg = f"SUT returned {observed!r} instead of an observation map"
            raise ProtocolError(msg)
        return {k: value_from_json(v) for k, v in observed.items()}

    def replies(self, commands) -> t.Iterator[dict]:
        self.reset()
        return map(self.apply, commands)


def __getattr__(name: str):
    """`SubprocessAdapter`, the wire adapter, lives in `tmbt.wire` and
    loads on first use of its name (PEP 562), so a run that drives no SUT
    process does not compile it."""
    if name == "SubprocessAdapter":
        from .wire import SubprocessAdapter
        return SubprocessAdapter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Execution


@dataclasses.dataclass(frozen=True)
class CaseResult:
    ok: bool
    index: t.Optional[int] = None
    expected: t.Optional[tuple] = None  # sorted (name, Value) pairs
    observed: t.Optional[tuple] = None
    error: t.Optional[str] = None

    def to_json(self) -> dict:
        def pairs(p):
            return None if p is None else {k: value_to_json(v) for k, v in p}

        return {
            "ok": self.ok,
            "index": self.index,
            "expected": pairs(self.expected),
            "observed": pairs(self.observed),
            "error": self.error,
        }


def _divergence(expected: dict, observed: dict) -> bool:
    """The comparison is a projection: every expected key must be
    present and equal; extra observed keys are the SUT's business."""
    return any(key not in observed or observed[key] != value
               for key, value in expected.items())


def _expected(binding: ModelBinding, commands) -> list:
    """The observation the model expects at each step; raises
    PreconditionViolated for an invalid sequence."""
    state = binding.initial
    expected = []
    for index, command in enumerate(commands):
        op = _check_step(binding, state, command, index)
        state, observed = _apply_effect(op, state, command.arg_map())
        expected.append(observed)
    return expected


def run_case(binding: ModelBinding, sut, commands) -> CaseResult:
    """Replay one command sequence against a fresh SUT.

    Fails at the first index whose observation diverges from the model,
    treating a SUT crash as a failure at the crashing index.  An
    invalid sequence (precondition or argument-domain breach) raises
    PreconditionViolated before the SUT sees any of it: that is a
    harness bug, not a SUT bug.
    """
    expected = _expected(binding, commands)
    replies = sut.replies(commands)
    index = 0
    try:
        for observed in replies:
            if _divergence(expected[index], observed):
                return CaseResult(False, index,
                                  tuple(sorted(expected[index].items())),
                                  tuple(sorted(observed.items())))
            index += 1
    except SutCrashed as crash:
        return CaseResult(False, index, tuple(sorted(expected[index].items())),
                          None, str(crash))
    return CaseResult(True)


# ---------------------------------------------------------------------------
# Shrinking


def _still_fails(binding: ModelBinding, sut, commands) -> bool:
    try:
        return not run_case(binding, sut, commands).ok
    except PreconditionViolated:
        return False


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


# ---------------------------------------------------------------------------
# The test loop


@dataclasses.dataclass(frozen=True)
class TestConfig:
    cases: int = 100
    max_len: int = 40
    seed: int = 0
    continue_on_fail: bool = False
    restart_processes: bool = False


@dataclasses.dataclass(frozen=True)
class FailingCase:
    commands: tuple
    shrunk: tuple
    result: CaseResult

    def to_json(self) -> dict:
        out = {"commands": [c.to_json() for c in self.commands],
               "shrunk": [c.to_json() for c in self.shrunk]}
        out.update(self.result.to_json())
        del out["ok"]
        return out


@dataclasses.dataclass(frozen=True)
class TestReport:
    seed: int
    cases_run: int
    verdict: str  # "pass" | "fail"
    invocation_counts: tuple  # sorted (opName, count) pairs
    failing: t.Optional[FailingCase] = None
    elapsed_seconds: float = dataclasses.field(default=0.0, compare=False)

    def invocation_map(self) -> dict:
        return dict(self.invocation_counts)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "cases_run": self.cases_run,
            "verdict": self.verdict,
            "invocation_counts": dict(self.invocation_counts),
            "failing": self.failing.to_json() if self.failing else None,
            "elapsed_seconds": self.elapsed_seconds,
        }


def test(binding: ModelBinding, spec: TemporalSpec, sut,
         config: TestConfig = TestConfig()) -> TestReport:
    """Run seeded cases against the SUT and aggregate a report.

    Per-case seeds derive from config.seed, so a report is reproducible
    from the config alone.  On the first failing case the sequence is
    shrunk and, unless continue_on_fail is set, the run stops.
    """
    started = time.monotonic()
    rng = random.Random(config.seed)
    counts: dict = {op: 0 for op in binding.op_names()}
    failing: t.Optional[FailingCase] = None
    cases_run = 0
    for _ in range(config.cases):
        case_seed = rng.getrandbits(64)
        commands = generate_commands(binding, spec, config.max_len, case_seed)
        if config.restart_processes:
            sut.restart()
        result = run_case(binding, sut, commands)
        cases_run += 1
        executed = len(commands) if result.ok else result.index + 1
        for command in commands[:executed]:
            counts[command.op] += 1
        if not result.ok and failing is None:
            shrunk = shrink(binding, sut, commands)
            failing = FailingCase(tuple(commands), shrunk, result)
            if not config.continue_on_fail:
                break
    return TestReport(
        seed=config.seed,
        cases_run=cases_run,
        verdict="pass" if failing is None else "fail",
        invocation_counts=tuple(sorted(counts.items())),
        failing=failing,
        elapsed_seconds=time.monotonic() - started,
    )

