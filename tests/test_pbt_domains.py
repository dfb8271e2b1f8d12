"""Argument domains read through set views, against the reference.

`pbt_reference` holds command generation and validation as they were
before argument domains were read through `spec.set_view`: every draw
evaluated its domain to a sorted set, and every check evaluated a new
`In` node.  On random bindings both must draw the same commands and
accept the same commands, or raise the same exception type with the
same message.  The one intended difference is a domain that is not a
set, where the reference raised AttributeError from `set_members`.
"""

import random
import re

import astgen
import pbt_reference as ref
import pytest
import tree_eval

import tmbt.spec as sp
from tmbt import pbt
from tmbt.errors import PreconditionViolated, TmbtError, TypeMismatch
from tmbt.pbt import ArgSpec, Command, ModelBinding, OpSpec
from tmbt.values import (
    BOOLEANS, FALSE, TRUE, BoolVal, SeqVal, SetVal, set_members,
)

VARIABLES = ("b", "x", "y")
SPEC = sp.TemporalSpec("domains", VARIABLES, sp.Const(TRUE),
                       (sp.NamedAction("Any", sp.Const(TRUE)),))
POOL = (
    *range(-4, 5),
    TRUE, FALSE, BOOLEANS,
    SetVal((1, 2)),
    SeqVal((0, TRUE)),
)
NON_SET_MESSAGE = r"^domain of argument a\d must be a set, got "


def valid(binding, commands) -> bool:
    """Whether the model accepts the whole sequence."""
    try:
        pbt._expected(binding, commands)
    except PreconditionViolated:
        return False
    return True


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


# ---------------------------------------------------------------------------
# Random bindings


def _bound(rng: random.Random, earlier: list, faults: bool) -> sp.Expr:
    """A range bound: an integer read from the state, an earlier argument
    or a constant; with `faults`, also a bool, an unbound name or a
    primed variable, which make the bound raise."""
    pick = rng.randrange(16 if faults else 13)
    if pick < 4:
        return sp.intval(rng.randint(-4, 4))
    if pick < 7:
        return sp.Var(rng.choice(("x", "y")))
    if pick < 10 and earlier:
        return sp.Var(rng.choice(earlier))
    if pick < 13:
        node = sp.Add if rng.random() < 0.5 else sp.Sub
        return node(sp.Var(rng.choice(("x", "y"))), sp.intval(rng.randint(0, 3)))
    if pick == 13:
        return rng.choice((sp.Var("b"), sp.Const(TRUE), sp.Const(BOOLEANS)))
    if pick == 14:
        return sp.Var("a9")  # never bound
    return sp.Primed("x")


def _domain(rng: random.Random, earlier: list, faults: bool) -> sp.Expr:
    """A domain: a range, a set literal or a constant set; with `faults`,
    also a non-set, a non-expression or a random (mostly ill-typed) tree."""
    pick = rng.randrange(20 if faults else 15)
    if pick < 10:
        return sp.IntRange(_bound(rng, earlier, faults),
                           _bound(rng, earlier, faults))
    if pick < 13:
        items = [rng.choice((_bound(rng, earlier, faults),
                             sp.Const(rng.choice(POOL))))
                 for _ in range(rng.randrange(4))]
        return sp.SetLit(items)
    if pick < 15:
        return sp.Const(SetVal(rng.sample(POOL, rng.randrange(5))))
    if pick == 15:
        return sp.Const(rng.choice(POOL))  # a set or not
    if pick == 16:
        return rng.choice((sp.Var("b"), sp.Var("x")))  # not a set
    if pick == 17:
        return SetVal((1,))  # not an expression
    return astgen.random_expr(rng, depth=2, bound=4)


def _precondition(rng: random.Random) -> sp.Expr:
    return rng.choice((
        sp.Const(TRUE), sp.Var("b"), sp.Not(sp.Var("b")),
        sp.Lt(sp.Var("x"), sp.intval(rng.randint(-2, 3))),
        sp.Ge(sp.Var("y"), sp.intval(rng.randint(-3, 2))),
    ))


SMALL = sp.IntRange(sp.intval(-6), sp.intval(6))


def _held(name: str, value: sp.Expr) -> sp.Expr:
    """`name' = value`, held to -6..6."""
    below, above = sp.Lt(value, sp.intval(-6)), sp.Gt(value, sp.intval(6))
    return sp.disj(
        sp.And(below, sp.Eq(sp.Primed(name), sp.intval(-6))),
        sp.And(above, sp.Eq(sp.Primed(name), sp.intval(6))),
        sp.conj(sp.Not(below), sp.Not(above), sp.Eq(sp.Primed(name), value)))


def _action(shift: int, names=()) -> sp.Expr:
    """x and y move by `shift` and apart by the total of the arguments
    `names` that lie in -6..6, each held to -6..6, and b flips."""
    total, n = sp.intval(0), sp.Var("n")
    for name in names:
        arg = sp.Var(name)
        # the argument where it lies in -6..6, else 0
        part = sp.Choose("n", sp.SetLit((arg, sp.intval(0))), sp.And(
            sp.In(n, SMALL), sp.Or(sp.Eq(n, arg), sp.Not(sp.In(arg, SMALL)))))
        total = sp.Add(total, part)
    x, y = sp.Var("x"), sp.Var("y")
    return sp.conj(
        _held("x", sp.Add(sp.Add(x, total), sp.intval(shift))),
        _held("y", sp.Add(sp.Sub(y, total), sp.intval(shift))),
        sp.Eq(sp.Primed("b"), sp.Not(sp.Var("b"))))


def random_binding(rng: random.Random) -> ModelBinding:
    faults = rng.random() < 0.5
    alphabet = []
    for index in range(rng.randint(1, 4)):
        names: list = []
        args = []
        for position in range(rng.randrange(4)):
            name = f"a{position}"
            args.append(ArgSpec(name, _domain(rng, names, faults)))
            names.append(name)
        alphabet.append(OpSpec(f"op{index}", _precondition(rng),
                               _action(rng.randint(-2, 2), names), tuple(args),
                               rng.randint(1, 3)))
    initial = sp.State({"b": BoolVal(rng.random() < 0.5),
                        "x": rng.randint(-3, 3),
                        "y": rng.randint(-3, 3)})
    return ModelBinding(initial, alphabet)


def _same_generation(old, new):
    if old[0] == "error" and old[1] is AttributeError:
        assert new[:2] == ("error", TypeMismatch), (old, new)
        assert re.match(NON_SET_MESSAGE, new[2]), new
    else:
        assert old == new


# ---------------------------------------------------------------------------
# The enabled-operation cache against direct evaluation


def _direct(binding, state) -> tuple:
    return tuple(op for op in binding.alphabet
                 if sp.eval_state_formula(op.pre, state))


def _visited(binding, commands):
    state = binding.initial
    yield state
    for command in commands:
        state = binding.step(state, binding.op(command.op), command.args)
        yield state


class TestEnabledCache:
    def test_random_bindings(self):
        rng = random.Random(606)
        checked = 0
        for _ in range(200):
            binding = random_binding(rng)
            for seed in range(4):
                outcome = _outcome(pbt.generate_commands, binding, 12, seed)
                if outcome[0] == "value":
                    for state in _visited(binding, outcome[1]):
                        assert binding.enabled(state) == _direct(binding, state)
                        checked += 1
        assert checked > 2000

    def test_the_boiler_binding(self):
        from tmbt.boiler import build_boiler_binding
        binding = build_boiler_binding()
        for seed in range(100):
            for state in _visited(binding,
                                  pbt.generate_commands(binding, 40, seed)):
                assert binding.enabled(state) == _direct(binding, state)
        assert binding._reads == {"running", "pump", "signal"}
        assert len(binding._enabled) == 12

    def test_a_bound_name_hiding_a_variable(self):
        # \E b \in {x}: b > 0 reads x; its bound b hides the state's b
        pre = sp.Exists("b", sp.SetLit((sp.Var("x"),)),
                        sp.Gt(sp.Var("b"), sp.intval(0)))
        binding = ModelBinding(
            sp.State({"b": TRUE, "x": -3, "y": 0}),
            (OpSpec("positive", pre, _action(1)),
             OpSpec("any", sp.Const(TRUE), _action(1))))
        commands = pbt.generate_commands(binding, 12, 0)
        states = list(_visited(binding, commands))
        assert {len(binding.enabled(state)) for state in states} == {1, 2}
        for state in states:
            assert binding.enabled(state) == _direct(binding, state)


# ---------------------------------------------------------------------------
# Generation and validation against the reference


class TestGenerationMatchesReference:
    def test_random_bindings(self):
        rng = random.Random(20261018)
        drawn = failed = 0
        for _ in range(300):
            binding = random_binding(rng)
            for seed in range(8):
                old = _outcome(ref.generate_commands, binding, SPEC, 12, seed)
                new = _outcome(pbt.generate_commands, binding, 12, seed)
                _same_generation(old, new)
                drawn += old[0] == "value" and len(old[1]) > 0
                failed += old[0] == "error"
        # both outcomes are common, so neither side is compared vacuously
        assert drawn > 600 and failed > 600

    def test_the_boiler_binding(self):
        from tmbt.boiler import build_boiler_binding, build_sut_model_spec
        binding, spec = build_boiler_binding(), build_sut_model_spec()
        for seed in range(40):
            assert (pbt.generate_commands(binding, 40, seed)
                    == ref.generate_commands(binding, spec, 40, seed))

    def test_empty_ranges_skip_the_operation(self):
        empty = ArgSpec("a0", sp.IntRange(sp.intval(1), sp.intval(0)))
        binding = ModelBinding(
            sp.State({"b": TRUE, "x": 0, "y": 0}),
            (OpSpec("never", sp.Const(TRUE), _action(0), (empty,)),
             OpSpec("always", sp.Const(TRUE), _action(0))))
        for seed in range(5):
            commands = pbt.generate_commands(binding, 6, seed)
            assert commands == (Command("always"),) * 6
            assert commands == ref.generate_commands(binding, SPEC, 6, seed)

    def test_non_set_domain_names_the_argument(self):
        binding = ModelBinding(
            sp.State({"b": TRUE, "x": 3, "y": 0}),
            (OpSpec("op", sp.Const(TRUE), _action(0),
                    (ArgSpec("amount", sp.Var("x")),)),))
        with pytest.raises(AttributeError):
            ref.generate_commands(binding, SPEC, 3, 0)
        with pytest.raises(TypeMismatch,
                           match="^domain of argument amount must be a set, "
                                 "got integer 3$"):
            pbt.generate_commands(binding, 3, 0)


def _listable(op_arg, state, chosen):
    """The argument's members, lazily listed (an earlier far integer can
    make a range bound huge), or None when they cannot be counted."""
    try:
        members = pbt._arg_domain(op_arg, state, chosen)
        return members if len(members) else None
    except (TmbtError, OverflowError):
        return None


def _candidate_value(rng: random.Random, op_arg, state, chosen):
    """A value for one argument: often a member of its domain, else a
    neighbour just outside its integers, a non-integer or a far integer."""
    members = _listable(op_arg, state, chosen)
    pick = rng.randrange(5)
    if members is not None and pick < 2:
        return members[rng.randrange(len(members))]
    if members is not None and pick == 2:
        first, last = members[0], members[-1]
        if type(last) is int:
            return last + 1
        if type(first) is int:
            return first - 1
    if pick == 3:
        return rng.choice((2**40, -(2**63), 2**63 - 1))
    return rng.choice(POOL)


def _random_command(rng: random.Random, binding, state) -> Command:
    op = rng.choice(binding.alphabet + (OpSpec("nope", None, None),))
    chosen: dict = {}
    for arg in op.args:
        chosen[arg.name] = _candidate_value(rng, arg, state, chosen)
    if rng.random() < 0.1:  # wrong argument names
        if chosen:
            del chosen[next(iter(chosen))]
        else:
            chosen["extra"] = 0
    return Command(op.name, chosen)


class TestValidationMatchesReference:
    def test_random_commands(self):
        rng = random.Random(1705)
        accepted = rejected = 0
        for _ in range(600):
            binding = random_binding(rng)
            state = binding.initial
            for index in range(16):
                command = _random_command(rng, binding, state)
                old = _outcome(ref._check_step, binding, state, command, index)
                new = _outcome(pbt._check_step, binding, state, command, index)
                assert old == new, (command, state)
                if old[0] == "value":
                    accepted += 1
                    state = binding.step(state, old[1], command.args)
                else:
                    rejected += 1
        assert accepted > 800 and rejected > 800

    def test_generated_sequences_replay(self):
        rng = random.Random(33)
        for _ in range(100):
            binding = random_binding(rng)
            for seed in range(4):
                outcome = _outcome(ref.generate_commands, binding, SPEC, 10, seed)
                if outcome[0] == "value":
                    assert valid(binding, outcome[1])


class TestSetViews:
    """`set_view` against evaluating the set and testing `In` directly."""

    @staticmethod
    def _contexts(rng):
        def bindings(names):
            names = rng.sample(names, rng.randrange(len(names) + 1))
            return {name: rng.choice(POOL) for name in names}
        current = sp.State(bindings(astgen.NAMES))
        nxt = sp.State(bindings(astgen.NAMES))
        env = bindings(astgen.NAMES + ("a0", "a1"))
        return ((current, None, None), (current, nxt, env), (current, None, env))

    def test_members_and_membership(self):
        rng = random.Random(7)
        exprs = astgen.random_exprs(seed=99, count=2000, bound=4)
        exprs += [_domain(rng, ["a0", "a1"], True) for _ in range(2000)]
        ranges = 0
        for expr in exprs:
            view = sp.set_view(expr)
            for current, nxt, env in self._contexts(rng):
                value = _outcome(tree_eval.eval_expr, expr, current, nxt, env)
                members = _outcome(lambda: list(view.members(current, nxt, env,
                                                             "the domain")))
                if value[0] == "error":
                    assert members == value
                elif isinstance(value[1], SetVal):
                    assert members == ("value", set_members(value[1]))
                    ranges += isinstance(expr, sp.IntRange)
                else:
                    assert members[:2] == ("error", TypeMismatch)
                    assert members[2].startswith("the domain must be a set, got ")
                element = rng.choice(POOL)
                expected = _outcome(tree_eval.eval_expr,
                                    sp.In(sp.Const(element), expr),
                                    current, nxt, env)
                got = _outcome(view.contains, element, current, nxt, env)
                if expected[0] == "value":
                    expected = ("value", expected[1].value)
                assert got == expected
        assert ranges > 500  # the range path reaches a value, not only errors

    def test_bounds_raise_before_the_element_is_looked_at(self):
        view = sp.set_view(sp.IntRange(sp.Const(TRUE), sp.intval(3)))
        state = sp.State({})
        with pytest.raises(TypeMismatch, match="range bound must be an integer"):
            view.contains(BOOLEANS, state, None, None)

    def test_non_expression(self):
        view = sp.set_view(SetVal((1,)))
        with pytest.raises(TypeMismatch, match="not an expression"):
            view.members(sp.State({}), None, None, "the domain")
        with pytest.raises(TypeMismatch, match="not an expression"):
            view.contains(1, sp.State({}), None, None)

    def test_view_is_cached_on_the_node(self):
        domain = sp.IntRange(sp.intval(0), sp.intval(3))
        assert sp.set_view(domain) is sp.set_view(domain)
        assert domain == sp.IntRange(sp.intval(0), sp.intval(3))

    def test_range_members_is_a_sequence(self):
        members = sp.set_view(sp.IntRange(sp.intval(-2), sp.intval(2))).members(
            sp.State({}), None, None, "the domain")
        assert members == range(-2, 3)  # the range itself, never built
        assert len(members) == 5
        assert list(members) == list(range(-2, 3))
        assert members[-1] == 2
        assert list(members[1:3]) == [-1, 0]
        empty = sp.set_view(sp.IntRange(sp.intval(2), sp.intval(1))).members(
            sp.State({}), None, None, "the domain")
        assert not empty and len(empty) == 0
        with pytest.raises(IndexError):
            members[5]


# ---------------------------------------------------------------------------
# Laziness and the alphabet lookup


HUGE = 10**12


@pytest.fixture
def no_sets_built(monkeypatch):
    """Fail at the first SetVal made, before it can take any memory."""
    made = []
    original = SetVal.__init__

    def guard(self, elements=()):
        made.append(1)
        raise AssertionError("a SetVal was built")
    monkeypatch.setattr(SetVal, "__init__", guard)
    yield made
    monkeypatch.setattr(SetVal, "__init__", original)


def huge_binding() -> ModelBinding:
    domain = sp.IntRange(sp.Sub(sp.Var("x"), sp.intval(HUGE)), sp.intval(HUGE))
    op = OpSpec("draw", sp.Const(TRUE), _action(0), (ArgSpec("a0", domain),))
    return ModelBinding(sp.State({"b": TRUE, "x": 0, "y": 0}),
                        (op,))


class TestHugeRanges:
    def test_drawing_builds_no_set(self, no_sets_built):
        commands = pbt.generate_commands(huge_binding(), 20, 3)
        assert len(commands) == 20
        assert all(-HUGE <= c.arg_map()["a0"] <= HUGE for c in commands)
        assert len({c.args for c in commands}) == 20
        assert no_sets_built == []

    def test_validating_builds_no_set(self, no_sets_built):
        binding = huge_binding()
        commands = [Command("draw", {"a0": n})
                    for n in (-HUGE, 0, HUGE)]
        assert valid(binding, commands)
        with pytest.raises(PreconditionViolated, match="outside its domain"):
            pbt._check_step(binding, binding.initial,
                            Command("draw", {"a0": HUGE + 1}), 0)
        assert no_sets_built == []


    def test_a_range_past_sys_maxsize_draws_and_validates(self, no_sets_built):
        """`-(2^63)..2^63-1` has 2^64 members, too many for `len()`: the
        draws read all 2^64 of them, as `generate_commands` counts them."""
        full = sp.IntRange(sp.intval(-2**63), sp.intval(2**63 - 1))
        binding = ModelBinding(
            sp.State({"b": TRUE, "x": 0, "y": 0}),
            (OpSpec("draw", sp.Const(TRUE), _action(0), (ArgSpec("a0", full),)),))
        members = sp.set_view(full).members(binding.initial, None, {}, "domain")
        assert members == range(-2**63, 2**63)
        with pytest.raises(OverflowError):
            len(members)
        for seed in range(5):
            commands = pbt.generate_commands(binding, 10, seed)
            rng = random.Random(seed)
            expected = []
            for _ in range(10):
                rng.choices(binding.alphabet)  # the operation's draw
                expected.append(-2**63 + rng.randrange(2**64))
            assert [c.arg_map()["a0"] for c in commands] == expected
            assert valid(binding, list(commands))
        assert no_sets_built == []


class TestAlphabetLookup:
    def test_two_operations_of_one_name_are_refused(self):
        # generation draws from `enabled()`, which would list both, while
        # replay looks one up by name: the binding is refused where built
        first = OpSpec("op", sp.Const(TRUE), _action(0))
        second = OpSpec("op", sp.Const(FALSE), _action(1))
        with pytest.raises(ValueError, match=re.escape(
                "operation 'op' appears twice in the alphabet")):
            ModelBinding(sp.State({}), (first, OpSpec("other", None, None), second))

    def test_an_observed_name_the_model_lacks_is_refused(self):
        # run_case would read the reply's expectation at `y` and raise
        # KeyError: the binding is refused where built
        op = OpSpec("op", sp.Const(TRUE), _action(0), observes=("x", "y"))
        with pytest.raises(ValueError, match=re.escape(
                "operation 'op' observes 'y', which the model does not have")):
            ModelBinding(sp.State({"b": TRUE, "x": 0}), (op,))

    def test_unknown_name_matches_the_scan(self):
        binding = random_binding(random.Random(0))
        assert (_outcome(binding.op, "fillTank")
                == _outcome(ref.op_by_scan, binding, "fillTank"))
