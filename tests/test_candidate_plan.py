"""Init and Next built by the constructive walk, against candidate plans.

`explore_reference` holds enumeration as it was before the walk: a
candidate plan narrowed each variable to a set, the product of the sets
gave the candidates, and the whole formula was evaluated on each.  On
the examples the walk gives the same states in the same order.  On
random small specs:

- evaluating the formula on a state the walk builds never gives FALSE;
- where both give states, the plan's states are among the walk's, and
  each extra state has a variable outside TypeOK's domain: a value the
  formula states that the plan never tried (it dropped a variable that
  some disjunct leaves free to its domain, and never bound `v = e` where
  `e` reads a variable);
- where the outcomes differ otherwise, they fall in one of the classes
  below, each counted.

The classes, by what each engine returned:

  guard-first    the plan raised UnboundedDomain for a variable it left
                 free; the walk evaluated a guard first, which ended the
                 branch or raised
  walk-eager     the plan gave states and the walk raised: the walk
                 evaluates every disjunct and `\\E` witness where the
                 plan's whole-formula evaluation short-circuited, and
                 guards on branches an empty candidate product skipped
  walk-deferred  the plan raised and the walk gave states: the walk
                 evaluates a guard only once its variables are bound,
                 and a later part ended the branch first
  first-error    both raised, different errors: each evaluates the parts
                 in its own order

and, per built state, `raises`: evaluating the whole formula in order
on it raises, in a part that the walk deferred, on the branch where it
met that part, past a later part that ended that branch.
"""

import random

import astgen
import explore_reference as ref
import pytest

import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.errors import UnboundedDomain
from tmbt.explore import (
    _walk,
    derive_domains,
    explore,
    initial_states,
    successors,
)
from tmbt.tla import parse_module, to_spec
from tmbt.values import BOOLEANS, TRUE, SetVal

VARIABLES = ("x", "y", "b")
TYPE_OK = sp.conj(
    sp.In(sp.Var("x"), sp.IntRange(sp.intval(-2), sp.intval(3))),
    sp.In(sp.Var("y"), sp.IntRange(sp.intval(-2), sp.intval(3))),
    sp.In(sp.Var("b"), sp.Const(BOOLEANS)))


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


def _outside(state, domains) -> bool:
    return any(state[name] not in values for name, values in domains.items())


def judge(old, new, holds, domains, state_of, kinds: dict) -> None:
    """Holds the walk's outcome `new` to the plan's `old` under the
    contract in the module docstring, and tallies its class in `kinds`.
    `holds(entry)` evaluates the formula on an entry of `new`, `state_of`
    reads the entry's state, and `domains` are TypeOK's."""
    def tally(kind, count=1):
        kinds[kind] = kinds.get(kind, 0) + count

    if new[0] == "value":
        verdicts = [_outcome(holds, entry) for entry in new[1]]
        assert ("value", False) not in verdicts, (old, new)
        raised = sum(verdict[0] == "error" for verdict in verdicts)
        if raised:
            tally("raises", raised)
    if new == old:
        tally("same")
    elif old[0] == new[0] == "value":
        known = set(old[1])
        assert [entry for entry in new[1] if entry in known] == old[1], (old, new)
        assert all(_outside(state_of(entry), domains)
                   for entry in new[1] if entry not in known), (old, new)
        tally("widened")
    elif old[0] == "error" and old[1] is UnboundedDomain:
        tally("guard-first")
    elif old[0] == "value":
        tally("walk-eager")
    elif new[0] == "value":
        tally("walk-deferred")
    else:
        tally("first-error")


# ---------------------------------------------------------------------------
# Random small specs: Init and actions mix `v = e`, `v \in S`, `\/`, `\E`
# and guards, with the occasional random tree from astgen to raise errors.


def _term(rng: random.Random, target: type) -> sp.Expr:
    pick = rng.randrange(8)
    if pick == 0:
        return sp.intval(rng.randint(-3, 4))  # 4 lies outside the domain
    if pick == 1:
        return sp.boolval(rng.random() < 0.5)
    if pick == 2:
        return sp.Var(rng.choice(VARIABLES))
    if pick == 3:
        return sp.Add(sp.Var(rng.choice(("x", "y"))), sp.intval(rng.randint(-1, 1)))
    if pick == 4:
        return target(rng.choice(VARIABLES))
    if pick == 5:
        return astgen.random_expr(rng, 2, bound=4)
    return sp.intval(rng.randint(-2, 3))


def _set(rng: random.Random, target: type) -> sp.Expr:
    pick = rng.randrange(6)
    if pick == 0:
        return sp.SetLit(_term(rng, target) for _ in range(rng.randrange(4)))
    if pick == 1:
        return sp.IntRange(_term(rng, target), _term(rng, target))
    if pick == 2:
        return sp.Const(BOOLEANS)
    if pick == 3:
        return _term(rng, target)  # mostly not a set
    if pick == 4:
        return astgen.random_expr(rng, 2, bound=4)
    return sp.IntRange(sp.intval(rng.randint(-3, 1)), sp.intval(rng.randint(0, 4)))


def _atom(rng: random.Random, target: type) -> sp.Expr:
    pick = rng.randrange(8)
    name = rng.choice(VARIABLES)
    if pick <= 1:
        sides = (target(name), _term(rng, target))
        return sp.Eq(*(sides if rng.random() < 0.7 else sides[::-1]))
    if pick == 2:
        return sp.In(target(name), _set(rng, target))
    if pick == 3:
        kind = rng.choice((sp.Lt, sp.Le, sp.Gt, sp.Ge, sp.Neq))
        return kind(sp.Var(rng.choice(("x", "y"))), _term(rng, target))
    if pick == 4:
        return sp.Not(_atom(rng, target))
    if pick == 5:
        return sp.Eq(target(name), sp.Var(name))
    if pick == 6:
        # a witness bound to a name that a state variable may also have
        bound = rng.choice(("n", "x"))
        body = sp.Eq(target(name), sp.Add(sp.Var(bound), sp.intval(rng.randint(0, 1))))
        return sp.Exists(bound, _set(rng, target), sp.And(body, _atom(rng, target)))
    return astgen.random_expr(rng, 2, bound=4)


def random_formula(rng: random.Random, target: type, depth: int = 3) -> sp.Expr:
    pick = rng.randrange(5)
    if depth <= 0 or pick == 0:
        return _atom(rng, target)
    if pick <= 2:
        width = rng.randint(2, 4)
        return sp.conj(*(random_formula(rng, target, depth - 1) for _ in range(width)))
    if pick == 3:
        return sp.disj(*(random_formula(rng, target, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    return sp.And(_atom(rng, target), random_formula(rng, target, depth - 1))


def random_spec(rng: random.Random) -> sp.TemporalSpec:
    actions = tuple(sp.NamedAction(f"A{i}", random_formula(rng, sp.Primed))
                    for i in range(rng.randint(1, 2)))
    invariants = (("TypeOK", TYPE_OK),) if rng.random() < 0.8 else ()
    return sp.TemporalSpec("random", VARIABLES, random_formula(rng, sp.Var),
                           actions, invariants)


def test_domains_match_the_plan_on_random_type_oks():
    rng = random.Random(5)
    narrowed = 0
    for _ in range(5000):
        spec = sp.TemporalSpec("t", VARIABLES, sp.boolval(True), (),
                               (("TypeOK", random_formula(rng, sp.Var)),))
        domains = derive_domains(spec)
        assert domains == ref.derive_domains(spec)
        narrowed += bool(domains)
    assert narrowed > 1000


# ---------------------------------------------------------------------------
# Init


def compare_init(spec, kinds: dict) -> None:
    domains = derive_domains(spec)
    judge(_outcome(ref.initial_states, spec), _outcome(initial_states, spec),
          lambda state: sp.eval_state_formula(spec.init, state), domains,
          lambda state: state, kinds)


class TestInit:
    def test_random_specs(self):
        rng = random.Random(2024)
        kinds: dict = {}
        for _ in range(1500):
            compare_init(random_spec(rng), kinds)
        assert set(kinds) == {"same", "widened", "guard-first", "walk-eager",
                              "walk-deferred", "first-error"}, kinds
        # every class is common enough that none is compared vacuously
        assert all(count >= 5 for count in kinds.values()), kinds
        assert kinds["same"] > 500, kinds

    @pytest.mark.parametrize("name,params", [
        ("onebit", {}), ("diehard", {}), ("euclid", {}), ("therac25", {}),
        ("steamboiler", {}), ("steamboiler", {"low": 190, "high": 810}),
        ("euclid", {"M": 284, "N": 355}),
    ])
    def test_examples(self, name, params):
        spec = specs.load(name, params)
        assert initial_states(spec) == ref.initial_states(spec)

    def test_init_that_assigns_nothing_tries_the_whole_product(self):
        # every variable ranges over its TypeOK domain
        spec = sp.TemporalSpec("t", VARIABLES, sp.Lt(sp.Var("x"), sp.Var("y")),
                               (), (("TypeOK", TYPE_OK),))
        domains = derive_domains(spec)
        expected = [sp.State({"x": x, "y": y, "b": b}) for b in domains["b"]
                    for x in domains["x"] for y in domains["y"] if x < y]
        assert initial_states(spec) == sorted(expected, key=sp.state_key)
        assert initial_states(spec) == ref.initial_states(spec)

    def test_values_outside_the_domain_are_tried(self):
        # x = 9 lies outside TypeOK's -2..3 and b is read as b = TRUE
        init = sp.conj(sp.In(sp.Var("x"), sp.SetLit((sp.intval(9), sp.intval(1)))),
                       sp.Eq(sp.Var("y"), sp.intval(0)), sp.Var("b"))
        spec = sp.TemporalSpec("t", VARIABLES, init, (), (("TypeOK", TYPE_OK),))
        domains = derive_domains(spec)
        found = initial_states(spec, domains)
        assert [(s["x"], s["y"], s["b"]) for s in found] == \
            [(1, 0, TRUE), (9, 0, TRUE)]
        # a value the domain holds is the domain's own object
        assert found[0]["x"] is domains["x"][1]
        assert found == ref.initial_states(spec)


# ---------------------------------------------------------------------------
# Next


def compare_successors(spec, states, kinds: dict) -> int:
    """Holds `successors` to the plan's on every state and tallies the
    classes in `kinds`; returns how many states had any successor."""
    domains = derive_domains(spec)
    formulas = {action.name: action.formula for action in spec.actions}
    enabled = 0
    for state in states:
        new = _outcome(successors, spec, state, domains)
        judge(_outcome(ref.successors, spec, state, domains), new,
              lambda step: sp.eval_action_formula(formulas[step[0]], state, step[1]),
              domains, lambda step: step[1], kinds)
        enabled += new[0] == "value" and bool(new[1])
    return enabled


class TestNext:
    def test_random_specs(self):
        rng = random.Random(77)
        product = [sp.State(zip(VARIABLES, (x, y, b)))
                   for x in range(-2, 4) for y in range(-2, 4)
                   for b in BOOLEANS.elements]
        enabled = 0
        kinds: dict = {}
        for _ in range(400):
            spec = random_spec(rng)
            spec = sp.TemporalSpec(spec.name, VARIABLES, spec.init, spec.actions,
                                   (("TypeOK", TYPE_OK),))
            enabled += compare_successors(spec, rng.sample(product, 6), kinds)
        assert enabled > 250
        # with TypeOK always there, the plan never lacks a domain
        assert set(kinds) - {"raises"} == {"same", "widened", "walk-eager",
                                           "walk-deferred", "first-error"}, kinds
        assert all(count >= 5 for count in kinds.values()), kinds
        assert kinds["same"] > 1000, kinds

    @pytest.mark.parametrize("name,params", [
        ("onebit", {}), ("diehard", {}), ("euclid", {}), ("therac25", {}),
        ("steamboiler", {}), ("steamboiler", {"low": 190, "high": 810}),
    ])
    def test_examples(self, name, params):
        spec = specs.load(name, params)
        graph, _, _ = explore(spec)
        kinds: dict = {}
        assert compare_successors(spec, sorted(graph.nodes, key=sp.state_key),
                                  kinds) > 0
        assert set(kinds) == {"same"}, kinds

    def test_a_built_state_may_raise_where_the_walk_deferred(self):
        # the first disjunct's guard on y' waits for y', and `x > 5` ends
        # its branch first; evaluated in order on the built state, it raises
        formula = sp.disj(
            sp.conj(sp.Gt(sp.Primed("y"), sp.boolval(True)),
                    sp.Gt(sp.Var("x"), sp.intval(5))),
            sp.conj(sp.Eq(sp.Primed("x"), sp.intval(1)),
                    sp.Eq(sp.Primed("y"), sp.intval(2))))
        spec = sp.TemporalSpec("t", VARIABLES, sp.boolval(True),
                               (sp.NamedAction("A", formula),),
                               (("TypeOK", TYPE_OK),))
        state = sp.State({"x": 0, "y": 0, "b": TRUE})
        kinds: dict = {}
        compare_successors(spec, [state], kinds)
        # the plan, evaluating every candidate in order, raises there too;
        # b' is TRUE or FALSE, so two states are built
        assert kinds == {"walk-deferred": 1, "raises": 2}

    def test_walk_is_compiled_once_per_formula(self):
        spec = specs.load("steamboiler")
        formula, layout = spec.actions[1].formula, spec.layout
        walk = _walk(formula, sp.Primed, layout)
        assert _walk(formula, sp.Primed, layout) is walk
        assert _walk(formula, sp.Var, layout) is not walk
        # each place compiles once per context: a second exploration, and
        # the walk of a second spec over the same layout, compile nothing
        explore(spec)
        compiled = dict(walk.memo)
        explore(spec)
        explore(sp.TemporalSpec("again", spec.variables, spec.init,
                                spec.actions, spec.invariants))
        assert walk.memo == compiled and len(compiled) > 1

    def test_non_expression_formulas_raise_as_before(self):
        type_ok = sp.In(sp.Var("x"), sp.SetLit((sp.intval(1),)))
        spec = sp.TemporalSpec("t", ("x",), 5, (sp.NamedAction("A", 7),),
                               (("TypeOK", type_ok),))
        state = sp.State({"x": 1})
        assert _outcome(initial_states, spec) == _outcome(ref.initial_states, spec)
        assert _outcome(successors, spec, state) == \
            _outcome(ref.successors, spec, state)
        assert _outcome(successors, spec, state)[2] == "not an expression: 7"

    def test_range_membership_builds_no_set(self, monkeypatch):
        # steamboiler's `level' \in (level - k)..level` is read by its bounds
        spec = specs.load("steamboiler", {"low": 300, "high": 700})
        graph, _, _ = explore(spec)
        domains = derive_domains(spec)
        built = []
        original = SetVal.__init__

        def counted(self, elements=()):
            built.append(self)
            original(self, elements)
        monkeypatch.setattr(SetVal, "__init__", counted)
        steps = sum(len(successors(spec, state, domains))
                    for state in graph.nodes)
        assert len(graph.nodes) == 818 and steps == 4908
        assert built == []

    @pytest.mark.parametrize("kind", [sp.And, sp.Or], ids=["and", "or"])
    def test_deep_junctions_walk_without_recursion(self, kind):
        # 5,000 parts, walked as one loop over the chain
        if kind is sp.And:
            parts = [sp.Eq(sp.Primed("x"), sp.intval(1))]
            parts += [sp.Lt(sp.Var("x"), sp.intval(n)) for n in range(5, 5005)]
            expected = [1]
        else:
            parts = [sp.Eq(sp.Primed("x"), sp.intval(n)) for n in range(5000)]
            expected = list(range(5000))
        formula = sp.conj(*parts) if kind is sp.And else sp.disj(*parts)
        spec = sp.TemporalSpec("t", ("x",), sp.boolval(True),
                               (sp.NamedAction("A", formula),))
        found = successors(spec, sp.State({"x": 0}), {})
        assert [state["x"] for _, state in found] == expected

    def test_a_long_straight_line_action_runs_as_one_loop(self):
        # 3,000 variables, each bound once: one block of slot writes, with
        # no fork and no call nested per conjunct
        names = [f"x{n:04d}" for n in range(3000)]
        formula = sp.conj(*(
            sp.Eq(sp.Primed(name), sp.Add(sp.Var(name), sp.intval(1)))
            for name in names))
        spec = sp.TemporalSpec("t", names, sp.boolval(True),
                               (sp.NamedAction("A", formula),))
        start = sp.State({name: 0 for name in names})
        [(_, step)] = successors(spec, start, {})
        assert set(step.values) == {1}
        ops, fork, end = _walk(formula, sp.Primed, spec.layout).start
        assert (len(ops), fork, end) == (3000, None, None)


# ---------------------------------------------------------------------------
# Init that assigns every variable builds its one state directly


def toggle_spec(n: int):
    names = [f"b{i}" for i in range(1, n + 1)]
    source = "\n".join([
        "VARIABLES " + ", ".join(names),
        "TypeOK == " + " /\\ ".join(f"{v} \\in BOOLEAN" for v in names),
        "Init == " + " /\\ ".join(f"{v} = {'TRUE' if i % 3 else 'FALSE'}"
                                  for i, v in enumerate(names)),
        "Next == " + " /\\ ".join(f"{v}' = (~{v})" for v in names),
    ]) + "\n"
    return to_spec(parse_module(source), name="toggle")


@pytest.mark.parametrize("make", [lambda: specs.euclid(284, 355),
                                  lambda: toggle_spec(13)],
                         ids=["euclid-284x355", "toggle-13"])
def test_init_builds_its_one_state_without_a_product(make):
    spec = make()
    found = initial_states(spec)
    ops, fork, end = _walk(spec.init, sp.Var, spec.layout).start
    # one path, with no fork, that binds every variable (`end` None): one
    # op per variable, each a slot write, so no value is tried twice
    assert fork is None and end is None
    assert len(ops) == len(spec.variables)
    assert len(found) == 1
    assert found == ref.initial_states(spec)
