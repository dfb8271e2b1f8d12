"""Init and Next enumerated through candidate plans, against the reference.

`explore_reference` holds enumeration as it was before candidate plans
took narrowed values as they are: each state re-walked each action's
formula, Init was evaluated on every state of the domain product, and
both drew from domains guessed from TypeOK, Init membership or mined
constants, dropping any value outside them.  On the examples the new
code gives the same states in the same order.  On random small specs it
keeps the reference's contract but for the guessing it removes:

- where both give states, the new states are the reference's states, in
  their order, plus only states with some variable outside its old
  domain, all in canonical order;
- where the outcomes differ otherwise, the new code raised
  UnboundedDomain, or the error of the `v = e` or `v \\in S` that left a
  variable without a domain free, or it raised on a candidate the
  reference never tried (one with a value outside the old domains), or
  the reference raised on a candidate the new code never tries (its
  plan, which now also reads bare booleans, excludes it).
"""

import itertools
import random

import astgen
import explore_reference as ref
import pytest

import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.errors import TmbtError, UnboundedDomain
from tmbt.explore import (
    _candidates,
    candidate_plan,
    derive_domains,
    explore,
    initial_states,
    successors,
)
from tmbt.tla import parse_module, to_spec
from tmbt.values import BOOLEANS, TRUE, IntVal, SetVal

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


def _outside(state, old_domains) -> bool:
    return any(state[name] not in values for name, values in old_domains.items())


def _first_raising(variables, tries):
    """The first (try index, candidate) on which a try's check raises;
    `tries` yields (check, per-variable candidates) in evaluation order."""
    for index, (check, per_var) in enumerate(tries):
        for combo in itertools.product(*per_var):
            candidate = sp.State(zip(variables, combo))
            try:
                check(candidate)
            except Exception:
                return index, candidate
    return None


def judge(variables, old, new, old_domains, old_tries, new_tries,
          state_of, key) -> str:
    """Holds one new outcome to the reference's under the contract in the
    module docstring; returns which kind of agreement it found.  The
    tries are callables giving each side's `_first_raising` input;
    `state_of` reads the state of an outcome's entry and `key` is the
    entries' canonical sort key."""
    if new == old:
        return "states" if old[0] == "value" and old[1] else old[0]
    if old[0] == new[0] == "value":
        known = set(old[1])
        assert [entry for entry in new[1] if entry in known] == old[1], (old, new)
        assert all(_outside(state_of(entry), old_domains)
                   for entry in new[1] if entry not in known), (old, new)
        assert new[1] == sorted(new[1], key=key), new
        return "widened"
    if new[0] == "error" and new[1] is UnboundedDomain:
        return "unbounded"
    if new[0] == "error":
        try:
            _, raising = _first_raising(variables, new_tries())
        except TmbtError as error:  # the read that left a variable free
            assert new[1:] == (type(error), str(error)), (old, new)
            return "unbounded"
        if _outside(raising, old_domains):
            return "evaluated"
    assert old[0] == "error", (old, new)
    index, raising = _first_raising(variables, old_tries())
    _, tried = next(itertools.islice(new_tries(), index, None))
    assert any(raising[name] not in values
               for name, values in zip(variables, tried)), (old, new)
    return "skipped"


# ---------------------------------------------------------------------------
# Random small specs: Init and actions mix `v = e`, `v \in S`, `\/` and
# guards, with the occasional random tree from astgen to raise errors.


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
    pick = rng.randrange(7)
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


# ---------------------------------------------------------------------------
# Init


def _planned(spec, domains):
    narrowed = candidate_plan(spec.init, sp.Var)(sp.State({}))
    return _candidates(spec.variables, narrowed, domains, "Init")


def compare_init(spec) -> str:
    """Holds the new `initial_states` to the brute force; returns which
    kind of agreement it found."""
    old = _outcome(ref.initial_states, spec)
    new = _outcome(initial_states, spec)

    def old_tries():
        old_domains = ref.derive_domains(spec)
        yield check, [old_domains[name] for name in spec.variables]

    def new_tries():
        yield check, _planned(spec, derive_domains(spec))

    def check(candidate):
        sp.eval_state_formula(spec.init, candidate)
    try:
        old_domains = ref.derive_domains(spec)
    except UnboundedDomain:
        old_domains = {}
    return judge(spec.variables, old, new, old_domains, old_tries, new_tries,
                 lambda state: state, sp.state_key)


class TestInit:
    def test_random_specs(self):
        rng = random.Random(2024)
        seen = dict.fromkeys(("states", "value", "error", "widened", "unbounded",
                              "evaluated", "skipped"), 0)
        for _ in range(1500):
            seen[compare_init(random_spec(rng))] += 1
        # every kind of outcome is common, so none is compared vacuously
        assert all(count >= 25 for count in seen.values()), seen

    @pytest.mark.parametrize("name,params", [
        ("onebit", {}), ("diehard", {}), ("euclid", {}), ("therac25", {}),
        ("steamboiler", {}), ("steamboiler", {"low": 190, "high": 810}),
        ("euclid", {"M": 284, "N": 355}),
    ])
    def test_examples(self, name, params):
        spec = specs.load(name, params)
        assert initial_states(spec) == ref.initial_states(spec)

    def test_init_that_assigns_nothing_tries_the_whole_product(self):
        spec = sp.TemporalSpec("t", VARIABLES, sp.Lt(sp.Var("x"), sp.Var("y")),
                               (), (("TypeOK", TYPE_OK),))
        assert [list(values) for values in _planned(spec, derive_domains(spec))] == \
            [ref.derive_domains(spec)[name] for name in VARIABLES]
        assert initial_states(spec) == ref.initial_states(spec)

    def test_values_outside_the_domain_are_tried(self):
        # x = 9 lies outside TypeOK's -2..3 and b is read as b = TRUE
        init = sp.conj(sp.In(sp.Var("x"), sp.SetLit((sp.intval(9), sp.intval(1)))),
                       sp.Eq(sp.Var("y"), sp.intval(0)), sp.Var("b"))
        spec = sp.TemporalSpec("t", VARIABLES, init, (), (("TypeOK", TYPE_OK),))
        domains = derive_domains(spec)
        planned = _planned(spec, domains)
        assert planned == [[IntVal(1), IntVal(9)], [IntVal(0)], [TRUE]]
        # a value the domain holds is the domain's own object
        assert planned[0][0] is domains["x"][IntVal(1)]
        found = initial_states(spec)
        assert [state["x"] for state in found] == [IntVal(1), IntVal(9)]
        assert found[:1] == ref.initial_states(spec)


# ---------------------------------------------------------------------------
# Next


def compare_successors(spec, states, kinds=None) -> int:
    """Holds the new `successors` to the reference on every state, and
    tallies the kinds of agreement in `kinds` if given; returns how
    many states had any successor."""
    old_domains = ref.derive_domains(spec)
    index = ref._domain_index(old_domains)
    domains = derive_domains(spec)
    order = {action.name: i for i, action in enumerate(spec.actions)}
    enabled = 0
    for state in states:
        old = _outcome(ref.successors, spec, state, old_domains, index)
        new = _outcome(successors, spec, state, domains)

        def tries(plan):
            for action in spec.actions:
                def check(candidate, formula=action.formula):
                    sp.eval_action_formula(formula, state, candidate)
                yield check, plan(action)

        def old_tries():
            return tries(lambda action: ref.per_variable_candidates(
                spec, action, state, old_domains, index))

        def new_tries():
            return tries(lambda action: _candidates(
                spec.variables, candidate_plan(action.formula, sp.Primed)(state),
                domains, f"action {action.name}"))

        kind = judge(spec.variables, old, new, old_domains, old_tries, new_tries,
                     lambda step: step[1],
                     lambda step: (order[step[0]], sp.state_key(step[1])))
        if kinds is None:
            assert kind in ("states", "value", "error"), (state, old, new)
        else:
            kinds[kind] = kinds.get(kind, 0) + 1
        enabled += new[0] == "value" and bool(new[1])
    return enabled


class TestNext:
    def test_random_specs(self):
        rng = random.Random(77)
        product = [sp.State(zip(VARIABLES, (IntVal(x), IntVal(y), b)))
                   for x in range(-2, 4) for y in range(-2, 4)
                   for b in BOOLEANS.elements]
        enabled = 0
        kinds: dict = {}
        for _ in range(400):
            spec = random_spec(rng)
            spec = sp.TemporalSpec(spec.name, VARIABLES, spec.init, spec.actions,
                                   (("TypeOK", TYPE_OK),))
            enabled += compare_successors(spec, rng.sample(product, 6), kinds)
        assert enabled > 300
        # the outcomes that may change do, so none is compared vacuously
        assert kinds["widened"] >= 25 and kinds["evaluated"] >= 25, kinds
        assert kinds["skipped"] >= 1, kinds

    @pytest.mark.parametrize("name,params", [
        ("onebit", {}), ("diehard", {}), ("euclid", {}), ("therac25", {}),
        ("steamboiler", {}), ("steamboiler", {"low": 190, "high": 810}),
    ])
    def test_examples(self, name, params):
        spec = specs.load(name, params)
        graph, _, _ = explore(spec)
        assert compare_successors(spec, sorted(graph.nodes, key=sp.state_key)) > 0

    def test_plan_is_built_once_per_formula(self):
        spec = specs.load("euclid")
        formula = spec.actions[0].formula
        assert candidate_plan(formula, sp.Primed) is \
            candidate_plan(formula, sp.Primed)
        assert candidate_plan(formula, sp.Var) is not \
            candidate_plan(formula, sp.Primed)

    def test_non_expression_formulas_raise_as_before(self):
        type_ok = sp.In(sp.Var("x"), sp.SetLit((sp.intval(1),)))
        spec = sp.TemporalSpec("t", ("x",), 5, (sp.NamedAction("A", 7),),
                               (("TypeOK", type_ok),))
        state = sp.State({"x": IntVal(1)})
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

    def test_deep_junction_plans_without_recursion(self):
        parts = [sp.Eq(sp.Primed("x"), sp.intval(1))]
        parts += [sp.Lt(sp.Var("x"), sp.intval(n)) for n in range(5, 5005)]
        plan = candidate_plan(sp.conj(*parts), sp.Primed)
        assert plan(sp.State({"x": IntVal(0)})) == {"x": {IntVal(1)}}


# ---------------------------------------------------------------------------
# Init evaluated on one candidate where it assigns every variable


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


@pytest.fixture
def init_evaluations(monkeypatch):
    calls = []
    original = sp.eval_state_formula

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(sp, "eval_state_formula", counted)
    return calls


@pytest.mark.parametrize("make", [lambda: specs.euclid(284, 355),
                                  lambda: toggle_spec(13)],
                         ids=["euclid-284x355", "toggle-13"])
def test_init_is_evaluated_on_one_candidate(make, init_evaluations):
    spec = make()
    found = initial_states(spec)
    assert len(init_evaluations) == 1
    assert len(found) == 1
    assert found == ref.initial_states(spec)
