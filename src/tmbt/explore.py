"""Breadth-first state-space exploration.

The transition relation is executed, not solved: candidate successor
states are drawn per variable and filtered by evaluating the action
formula over the (current, candidate) pair.

Init and Next are enumerated by one engine, as TLC does.  Each formula
is turned once into a candidate plan (`candidate_plan`) that reads its
`v = e`, `v \\in S`, bare `v` and `~v` conjuncts and disjuncts: an
action's plan narrows the primed variables given the current state, and
Init's plan narrows the variables given the empty state.  A narrowed
variable takes the values the formula states, whatever they are.  A
variable the plan leaves free takes its domain from the TypeOK
invariant, read by the same plan; without one it is an UnboundedDomain
error, or the error its `v = e` or `v \\in S` raised.  Every candidate is
then checked against the whole formula.

Counting contract:
  states_found    initial states plus every successor generated from a
                  dequeued state, duplicates included
  distinct_states size of the reachable node set
  diameter        1 + the deepest BFS level (in edges) of any node, so a
                  spec whose reachable states are all initial has diameter 1
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from . import spec as sp
from .errors import NoInitialStates, TmbtError, UnboundedDomain
from .record import Record
from .values import FALSE, TRUE, Value, sorted_values, value_to_json

TYPE_OK_NAME = sp.TYPE_OK_NAME
_EMPTY = sp.State({})


# ---------------------------------------------------------------------------
# Result types


class StateGraph(Record):
    nodes: frozenset
    edges: frozenset
    initials: frozenset


class ExplorationStats(Record):
    diameter: int
    states_found: int
    distinct_states: int
    truncated: bool = False


class Counterexample(Record):
    invariant: str
    trace: sp.Behavior


def state_to_json(state: sp.State) -> dict:
    return {name: value_to_json(value) for name, value in state.bindings}


def stats_to_json(stats: ExplorationStats) -> dict:
    return {
        "diameter": stats.diameter,
        "states_found": stats.states_found,
        "distinct_states": stats.distinct_states,
        "truncated": stats.truncated,
    }


def behavior_to_json(behavior: sp.Behavior) -> dict:
    return {"states": [state_to_json(s) for s in behavior.states]}


def counterexample_to_json(cex: Counterexample) -> dict:
    return {
        "invariant": cex.invariant,
        "trace": [state_to_json(s) for s in cex.trace.states],
    }


# ---------------------------------------------------------------------------
# Candidate plans: Init and Next are enumerated by one engine


class _Unevaluated:
    """A variable left free because its `v = e` or `v \\in S` raised
    `error`: `&` gives the other side's candidates and `|` stays free."""

    def __init__(self, error: TmbtError):
        self.error = error

    def __and__(self, other):
        return other

    def __or__(self, other):
        return self

    __rand__, __ror__ = __and__, __or__


def _reading(name: str, read):
    def plan(current):
        try:
            return {name: read(current)}
        except TmbtError as error:
            return {name: _Unevaluated(error)}
    return plan


def _mentions(expr, target: type) -> bool:
    return sp.fold(expr, lambda node, inner: isinstance(node, target) or any(inner))


def _assigns(name: str, value: Value):
    return lambda current: {name: {value}}


def _plan_leaf(expr, target: type):
    """The plan of a formula that is not a junction: `v = e` (either way
    round) or `v \\in S`, where `v` is a `target` node and `e` or `S`
    mentions none, or a bare `v` or `~v`, read as `v = TRUE` or
    `v = FALSE`; None for any other formula, which never narrows."""
    if isinstance(expr, target):
        return _assigns(expr.name, TRUE)
    if isinstance(expr, sp.Not) and isinstance(expr.operand, target):
        return _assigns(expr.operand.name, FALSE)
    if isinstance(expr, sp.Eq):
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(side, target) and not _mentions(other, target):
                return _reading(side.name, lambda current, value=other: {
                    sp.eval_expr(value, current, _EMPTY)})
    if (isinstance(expr, sp.In) and isinstance(expr.element, target)
            and not _mentions(expr.domain, target)):
        members = sp.set_view(expr.domain).members
        return _reading(expr.element.name, lambda current: set(
            members(current, _EMPTY, None, "right side of \\in")))
    return None


def _plan_node(expr, parts: list, target: type):
    if isinstance(expr, sp.And):
        parts = [part for part in parts if part is not None]
        if len(parts) < 2:
            return parts[0] if parts else None

        def conjunction(current):
            # conjuncts intersect; a variable one leaves free stays as is
            out = None
            for part in parts:
                found = part(current)
                if found is None:
                    continue
                if out is None:
                    out = dict(found)
                    continue
                for name, values in found.items():
                    out[name] = out[name] & values if name in out else values
            return out
        return conjunction
    if isinstance(expr, sp.Or):
        if None in parts:
            return None

        def disjunction(current):
            # disjuncts unite; a variable free in one disjunct is free
            out = None
            for part in parts:
                found = part(current)
                if found is None:
                    return None
                out = found if out is None else {
                    name: out[name] | found[name]
                    for name in out.keys() & found.keys()}
            return out or None
        return disjunction
    return _plan_leaf(expr, target)


def _junction_parts(expr) -> list:
    if isinstance(expr, (sp.And, sp.Or)):
        return sp.junction_parts(expr, type(expr))
    return []


def _build_plan(formula, target: type):
    plan = sp.fold(formula, lambda node, parts: _plan_node(node, parts, target),
                   _junction_parts)
    return plan if plan is not None else (lambda current: None)


def candidate_plan(formula, target: type):
    """The formula's candidate values for the variables it assigns, as a
    closure `current -> {name: set of values} | None`, built once per
    formula and target and kept on its root node.

    `target` is `sp.Primed` for an action (next-state values, given the
    current state) or `sp.Var` for Init (initial values, given the empty
    state).  Conjuncts intersect their candidates and disjuncts unite
    them; `v = e` offers the value of `e` and `v \\in S` the members of
    `S` (if these raise, the variable is free and keeps the error), and
    a bare `v` or `~v` offers TRUE or FALSE.  An absent variable is
    unconstrained and None means nothing is known.  Every candidate set
    is a superset of the values the full evaluation accepts, so
    narrowing loses no state.
    """
    if not isinstance(formula, sp.ExprNode):
        return _build_plan(formula, target)
    key = "plan_" + target.__name__
    cache = vars(formula)
    if key not in cache:
        cache[key] = _build_plan(formula, target)
    return cache[key]


def derive_domains(spec: sp.TemporalSpec) -> dict:
    """Each variable's domain as the TypeOK invariant states it.

    TypeOK is read by Init's candidate plan on the empty state, so its
    `v \\in S` and `v = e` conjuncts and disjuncts give the values.  Per
    variable it is a dict mapping each value to itself, in canonical
    order: it iterates as the sorted domain, and a lookup yields the
    domain's own value object, so that states share them instead of
    holding fresh copies.  A variable TypeOK does not narrow, or any
    variable of a spec without TypeOK, is absent.
    """
    type_ok = spec.invariant_map().get(TYPE_OK_NAME)
    if type_ok is None:
        return {}
    narrowed = candidate_plan(type_ok, sp.Var)(_EMPTY) or {}
    return {name: {value: value for value in sorted_values(narrowed[name])}
            for name in spec.variables if isinstance(narrowed.get(name), set)}


def _candidates(variables: tuple, narrowed: dict | None, domains: dict,
                formula: str) -> list:
    """Per variable, its narrowed values, or its domain where the plan
    of `formula` (named for the error) leaves it free; canonically
    sorted."""
    per_var = []
    for name in variables:
        domain = domains.get(name)
        values = narrowed.get(name) if narrowed else None
        if isinstance(values, set):
            if domain is not None:
                values = [domain.get(value, value) for value in values]
            per_var.append(sorted_values(values))
        elif domain is not None:
            per_var.append(domain)
        elif values is not None:
            raise values.error  # the read that left the variable free
        else:
            msg = (f"no finite domain for variable {name}: {formula} leaves it "
                   f"free and {TYPE_OK_NAME} gives it no domain")
            raise UnboundedDomain(msg)
    return per_var


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None) -> list:
    """All (actionName, nextState) steps enabled from `state`.

    Entries are ordered by action declaration order, then canonically by
    next state.  The same next state reached through two actions appears
    twice; a stuttering step appears only if some action admits it.
    Each action tries the values its plan narrows to, and the `domains`
    of derive_domains for the variables it leaves free; explore()
    derives them once and passes them for every state.
    """
    if domains is None:
        domains = derive_domains(spec)
    out = []
    for action in spec.actions:
        narrowed = candidate_plan(action.formula, sp.Primed)(state)
        per_var = _candidates(spec.variables, narrowed, domains,
                              f"action {action.name}")
        accepted = []
        for combo in itertools.product(*per_var):
            candidate = sp.State(zip(spec.variables, combo))
            if sp.eval_action_formula(action.formula, state, candidate):
                accepted.append(candidate)
        accepted.sort(key=sp.state_key)
        out.extend((action.name, t) for t in accepted)
    return out


def initial_states(spec: sp.TemporalSpec, domains: dict | None = None) -> list:
    """The states satisfying init, canonically sorted.

    Init is narrowed like Next: its candidate plan, evaluated against the
    empty state, gives each variable's candidates, so
    `x = 0 /\\ y \\in {1, 2}` tries two states; a variable it leaves free
    takes its domain from `domains`.  Each candidate is then checked
    against the whole of init.
    """
    if domains is None:
        domains = derive_domains(spec)
    narrowed = candidate_plan(spec.init, sp.Var)(_EMPTY)
    per_var = _candidates(spec.variables, narrowed, domains, "Init")
    found = []
    for combo in itertools.product(*per_var):
        candidate = sp.State(zip(spec.variables, combo))
        if sp.eval_state_formula(spec.init, candidate):
            found.append(candidate)
    found.sort(key=sp.state_key)
    return found


# ---------------------------------------------------------------------------
# Exploration


def explore(spec: sp.TemporalSpec, max_distinct: int | None = None,
            max_depth: int | None = None,
            shuffle: random.Random | None = None):
    """Explore the reachable state space breadth-first.

    Returns (StateGraph, ExplorationStats, counterexamples).  Results do
    not depend on frontier processing order; `shuffle` only exists so
    tests can permute each BFS level and check exactly that.  When a
    limit cuts the search short the stats carry truncated=True and count
    only what was actually generated.
    """
    domains = derive_domains(spec)
    inits = initial_states(spec, domains)

    depth = {s: 0 for s in inits}  # every reached state, by BFS level
    edges = set()
    states_found = len(inits)
    truncated = False

    level = list(inits)
    while level:
        if shuffle is not None:
            shuffle.shuffle(level)
        if max_depth is not None and level and depth[level[0]] >= max_depth:
            truncated = True
            break
        next_level = []
        for state in level:
            succs = successors(spec, state, domains)
            states_found += len(succs)
            for action_name, target in succs:
                if target not in depth:
                    if max_distinct is not None and len(depth) >= max_distinct:
                        truncated = True
                        continue
                    depth[target] = depth[state] + 1
                    next_level.append(target)
                edges.add((state, action_name, target))
        level = next_level

    graph = StateGraph(frozenset(depth), frozenset(edges), frozenset(inits))
    diameter = 1 + max(depth.values()) if depth else 0
    stats = ExplorationStats(diameter, states_found, len(depth), truncated)
    cexs = _counterexamples(spec, graph, depth)
    return graph, stats, cexs


def _counterexamples(spec: sp.TemporalSpec, graph: StateGraph,
                     depth: dict) -> list:
    """Shortest counterexample per violated invariant, deterministically.

    Recomputed from the finished graph so the result is independent of
    the order the frontier was processed in.
    """
    violated = []
    for inv_name, formula in spec.invariants:
        bad = [s for s in graph.nodes if not sp.eval_state_formula(formula, s)]
        if bad:
            target = min(bad, key=lambda s: (depth[s], sp.state_key(s)))
            violated.append((inv_name, target))
    if not violated:
        return []

    adjacency: dict = {}
    for source, _, target in graph.edges:
        adjacency.setdefault(source, set()).add(target)
    parent = {s: None for s in sorted(graph.initials, key=sp.state_key)}
    queue = deque(parent)
    while queue:
        state = queue.popleft()
        for target in sorted(adjacency.get(state, ()), key=sp.state_key):
            if target not in parent:
                parent[target] = state
                queue.append(target)

    out = []
    for inv_name, target in violated:
        path = []
        walk = target
        while walk is not None:
            path.append(walk)
            walk = parent[walk]
        out.append(Counterexample(inv_name, sp.Behavior(reversed(path))))
    return out


# ---------------------------------------------------------------------------
# Behaviors


def behaviors(spec: sp.TemporalSpec, count: int, max_len: int,
              seed: int) -> list:
    """Seeded random walks from the initial states, in TLC's simulation mode.

    Each behavior starts in an initial state, follows action steps, and
    stops at max_len states or in a state with no successors.  The same
    seed always produces the same list.  Only the states a walk visits
    are expanded, each once.  A state's steps are its distinct
    (action name, next state) pairs, ordered by the action's place in
    declaration order, then canonically by next state; actions that
    share a name share the place of the last of them.
    """
    domains = derive_domains(spec)
    inits = initial_states(spec, domains)
    if not inits:
        msg = f"spec {spec.name}: init is unsatisfiable over the derived domains"
        raise NoInitialStates(msg)
    action_order = {a.name: i for i, a in enumerate(spec.actions)}
    steps: dict = {}

    def steps_from(state) -> list:
        if state not in steps:
            found = set(successors(spec, state, domains))
            steps[state] = sorted(found, key=lambda step: (
                action_order[step[0]], sp.state_key(step[1])))
        return steps[state]

    rng = random.Random(seed)
    walks = []
    for _ in range(count):
        state = inits[rng.randrange(len(inits))]
        states = [state]
        while len(states) < max_len:
            outs = steps_from(state)
            if not outs:
                break
            _, state = outs[rng.randrange(len(outs))]
            states.append(state)
        walks.append(sp.Behavior(states))
    return walks


def behavior_satisfies(spec: sp.TemporalSpec, behavior: sp.Behavior) -> bool:
    """Init holds at the start and every step is an action step or stutter."""
    if not behavior.states:
        return False
    if not sp.eval_state_formula(spec.init, behavior.states[0]):
        return False
    for current, nxt in zip(behavior.states, behavior.states[1:]):
        if nxt == current:
            continue
        if not any(sp.eval_action_formula(a.formula, current, nxt)
                   for a in spec.actions):
            return False
    return True
