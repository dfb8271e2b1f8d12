"""Breadth-first state-space exploration.

The transition relation is executed, not solved: one walk of Init or of
an action builds its states as it goes, as TLC's `getNextStates` does
(Yu, Manolios and Lamport, CHARME 1999), with a partial binding per
branch.  Conjuncts extend each branch in turn; disjuncts and `\\E`
witnesses branch.  `v = e`, `v \\in S`, a bare `v` and `~v` bind an
unbound `v` to the values they state, and are guards once `v` is bound.
Any other conjunct is a guard, evaluated once the variables it reads are
bound.  A variable a branch leaves unbound ranges over its TypeOK domain.

Counting contract:
  states_found    initial states plus every successor generated from a
                  dequeued state, duplicates included
  distinct_states size of the reachable node set
  diameter        1 + the deepest BFS level (in edges) of any node, so a
                  spec whose reachable states are all initial has diameter 1
"""

from __future__ import annotations

import functools
import random

from . import spec as sp
from .errors import NoInitialStates, TmbtError, UnboundedDomain, UnboundVariable
from .record import Record
from .values import FALSE, TRUE, Value, require_bool, sorted_values, value_to_json

TYPE_OK_NAME = sp.TYPE_OK_NAME
UNBOUND = object()  # the value of a slot that a walk branch has not bound


# ---------------------------------------------------------------------------
# Result types


class StateGraph(Record):
    """The explored graph: `nodes`, every reached state, and `initials`.

    The search keeps no edge, as TLC keeps none.  `edges`, every
    (state, action name, target) step of an expanded state whose target
    is a node, is derived on first read by stepping those states again.
    Every node is expanded but those in `unexpanded`: the level at which
    `max_depth` stopped the search.
    """

    nodes: frozenset
    initials: frozenset
    spec: sp.TemporalSpec
    unexpanded: frozenset = frozenset()

    @functools.cached_property
    def edges(self) -> frozenset:
        domains = derive_domains(self.spec)
        return frozenset(
            (state, action_name, target)
            for state in self.nodes - self.unexpanded
            for action_name, target in successors(self.spec, state, domains)
            if target in self.nodes)


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
    return {name: getattr(stats, name) for name in stats._fields}


def behavior_to_json(behavior: sp.Behavior) -> dict:
    return {"states": [state_to_json(s) for s in behavior.states]}


def counterexample_to_json(cex: Counterexample) -> dict:
    return {
        "invariant": cex.invariant,
        "trace": [state_to_json(s) for s in cex.trace.states],
    }


# ---------------------------------------------------------------------------
# The walk: Init and Next are built by one engine.  A formula compiles once
# into closures `(branches, env) -> branches`; a guard is a closure
# `(branch, env, final=False) -> branch or None` (see `_walk_node`).


class _Branch:
    """A branch of a walk, read as a state: `values`, a value or UNBOUND
    per slot of `layout`; `current`, the state an action steps from (None
    walking Init); and the (guard, env)s waiting for a variable it has not
    bound.  A bind copies `values`; nothing changes them in place."""

    __slots__ = ("layout", "values", "current", "waiting")

    def __init__(self, layout, values: list, current, waiting=()):
        self.layout, self.values = layout, values
        self.current, self.waiting = current, waiting

    def bind(self, name: str, value: Value, at):
        """The branch with `name` bound in slot `at`, or None if a guard
        waiting fails.  A name no variable has (`at` None) gets a slot past
        the variables' ones, in a layout of its own: `_states` raises."""
        layout, values = self.layout, self.values.copy()
        if at is None:
            layout = sp.Layout(layout.names + (name,))
            values.append(value)
        else:
            values[at] = value
        out = _Branch(layout, values, self.current)
        for guard, env in self.waiting:
            if (out := guard(out, env)) is None:
                break
        return out


def _unbound(names, initial: bool):
    """`unbound(branch, env)`: whether a name of `names` is unbound on the
    branch, whose slots it looks up once per layout; walking Init, a name
    that `env` binds is bound.  None if there are no names."""
    names, cache = tuple(sorted(names)), (None, ())

    def unbound(branch, env) -> bool:
        nonlocal cache
        if cache[0] is not branch.layout:
            cache = branch.layout, tuple(map(branch.layout.slot.get, names))
        values = branch.values
        if initial and env:
            return any((at is None or values[at] is UNBOUND) and name not in env
                       for name, at in zip(names, cache[1]))
        for at in cache[1]:
            if at is None or values[at] is UNBOUND:
                return True
        return False
    return unbound if names else None


def _binding(expr, kind: type):
    """(name, the `kind` names its values read, values(current, nxt, env))
    for a leaf that binds a `kind` variable (Var or Primed): `v = e` and
    `v \\in S` where `e` or `S` does not read `v`, and a bare `v` or `~v`
    as `v = TRUE` or `v = FALSE`.  None for any other formula."""
    if isinstance(expr, kind):
        return expr.name, (), lambda current, nxt, env: (TRUE,)
    if isinstance(expr, sp.Not) and isinstance(expr.operand, kind):
        return expr.operand.name, (), lambda current, nxt, env: (FALSE,)
    if isinstance(expr, sp.Eq):
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            reads = sp.names_read(other, kind)
            if (isinstance(side, kind) and side.name not in reads
                    and isinstance(other, sp.ExprNode)):
                value = other.compiled
                return side.name, reads, lambda current, nxt, env: (
                    value(current, nxt, env),)
    if isinstance(expr, sp.In) and isinstance(expr.element, kind):
        reads = sp.names_read(expr.domain, kind)
        if expr.element.name not in reads:
            members = sp.set_view(expr.domain).members
            return expr.element.name, reads, lambda current, nxt, env: members(
                current, nxt, env, "right side of \\in")
    return None


def _parts(node) -> tuple:
    if isinstance(node, sp.Junction):
        return sp.flat_parts(node)
    return (node.body,) if isinstance(node, sp.Exists) else ()


def _walk(formula, kind: type):
    """The formula's walk over `kind` variables (sp.Primed for an action,
    sp.Var for Init), compiled once and kept on its root node."""
    cache = vars(formula) if isinstance(formula, sp.ExprNode) else {}
    key = "walk_" + kind.__name__
    if key not in cache:
        top = "state formula" if kind is sp.Var else "action formula"
        cache[key] = sp.fold(formula, lambda node, parts: _walk_node(
            node, parts, kind, top if node is formula else "operand"), _parts)
    return cache[key]


def _walk_node(node, parts: list, kind: type, what: str):
    if isinstance(node, sp.And):
        def conjunction(branches, env):
            for part in parts:
                branches = part(branches, env) if branches else branches
            return branches
        return conjunction
    if isinstance(node, sp.Or):
        return lambda branches, env: [
            branch for part in parts for branch in part(branches, env)]
    fn = node.compiled if isinstance(node, sp.ExprNode) else (
        lambda current, nxt, env: sp.eval_expr(node, current, nxt, env))
    initial = kind is sp.Var  # walking Init, a branch is the current state
    unbound = _unbound(sp.names_read(node, kind), initial)

    def guard(branch, env, final=False):
        """The branch if the leaf holds on it, else None, or a copy where
        it waits for a variable it reads; `final` waits for none."""
        if unbound is not None and not final and unbound(branch, env):
            return _Branch(branch.layout, branch.values, branch.current,
                           branch.waiting + ((guard, env),))
        value = fn(branch, None, env) if initial else fn(branch.current, branch, env)
        return branch if value is TRUE or (
            value is not FALSE and require_bool(value, what)) else None
    # `expand` gives the branches a leaf binds, or None where it is a guard
    if isinstance(node, sp.Exists):  # `\E v \in S : P` walks P per member
        var, members, body = node.var, sp.set_view(node.domain).members, parts[0]
        waits = _unbound(sp.names_read(node.domain, kind), initial)

        def expand(branch, env):
            if waits is not None and waits(branch, env):
                return None
            domain = members(branch, None, env, "quantifier domain") if initial \
                else members(branch.current, branch, env, "quantifier domain")
            return [grown for member in domain
                    for grown in body([branch], {**(env or {}), var: member})]
    elif (binding := _binding(node, kind)) is not None:
        name, reads, values = binding
        waits = _unbound(reads, initial)
        cache = (None, None)  # the last layout and the slot of `name` in it

        def expand(branch, env):
            nonlocal cache
            layout, at = cache
            if layout is not branch.layout:
                layout = branch.layout
                cache = layout, (at := layout.slot.get(name))
            if (at is not None and branch.values[at] is not UNBOUND
                    or initial and env and name in env
                    or waits is not None and waits(branch, env)):
                return None
            found = values(branch, None, env) if initial \
                else values(branch.current, branch, env)
            return [child for value in found
                    if (child := branch.bind(name, value, at)) is not None]
    else:
        return lambda branches, env: [
            kept for branch in branches if (kept := guard(branch, env)) is not None]

    def leaf(branches, env):
        out = []
        for branch in branches:
            if (grown := expand(branch, env)) is not None:
                out += grown
            elif (kept := guard(branch, env)) is not None:
                out.append(kept)
        return out
    return leaf


def _states(branches: list, spec: sp.TemporalSpec, domains: dict,
            formula: str) -> list:
    """The branches' states, each once, canonically sorted.  A variable a
    branch leaves unbound ranges over its domain, or is UnboundedDomain
    naming `formula`; a value the domain holds is the domain's own."""
    layout = spec.layout
    for name in spec.variables:
        at = layout.slot[name]
        if all(branch.values[at] is not UNBOUND for branch in branches):
            continue
        if name not in domains:
            msg = (f"no finite domain for variable {name}: {formula} leaves "
                   f"it free and {TYPE_OK_NAME} gives it no domain")
            raise UnboundedDomain(msg)
        branches = [child for branch in branches for child in (
            [branch] if branch.values[at] is not UNBOUND else
            (branch.bind(name, value, at) for value in domains[name]))
            if child is not None]
    canonical = [domains.get(name, {}) for name in layout.names]  # per slot
    found = set()
    for branch in branches:
        if branch.layout is not layout:  # it bound a name no variable has
            name = branch.layout.names[len(layout.names)]
            raise UnboundVariable(f"variable {name} is not bound")
        # a guard still waiting reads such a name
        if not branch.waiting or all(guard(branch, env, True) is not None
                                     for guard, env in branch.waiting):
            values = branch.values
            found.add(sp.positional(layout, tuple(
                map(dict.get, canonical, values, values))))
    return sorted(found, key=sp.values_key)


def _narrowing(node, parts: list):
    """TypeOK's values per variable as {name: set}, or None: conjuncts
    intersect, disjuncts unite, and a `v = e` or `v \\in S` gives values
    if it reads no variable and does not raise."""
    if isinstance(node, sp.And):
        out = {}
        for found in parts:
            for name, values in (found or {}).items():
                out[name] = out[name] & values if name in out else values
        return out or None
    if isinstance(node, sp.Or):
        if None in parts:
            return None
        out = parts[0]
        for found in parts[1:]:
            out = {name: out[name] | found[name]
                   for name in out.keys() & found.keys()}
        return out or None
    binding = _binding(node, sp.Var)
    if binding is None or binding[1]:
        return None
    try:
        return {binding[0]: set(binding[2](sp.State(()), None, None))}
    except TmbtError:
        return None


def derive_domains(spec: sp.TemporalSpec) -> dict:
    """Each variable's domain as TypeOK narrows it (see `_narrowing`): a
    dict mapping each value to itself in canonical order, so it iterates
    as the sorted domain and a lookup yields the domain's own value."""
    type_ok = spec.invariant_map().get(TYPE_OK_NAME)  # None narrows nothing
    narrowed = sp.fold(type_ok, _narrowing, _parts) or {}
    return {name: {value: value for value in sorted_values(narrowed[name])}
            for name in spec.variables if name in narrowed}


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None) -> list:
    """All (actionName, nextState) steps enabled from `state`.

    Entries are ordered by action declaration order, then canonically by
    next state.  The same next state reached through two actions appears
    twice; a stuttering step appears only if some action admits it.
    explore() derives the `domains` once and passes them for every state.
    """
    if domains is None:
        domains = derive_domains(spec)
    out, unbound = [], [UNBOUND] * len(spec.layout.names)
    for action in spec.actions:
        start = _Branch(spec.layout, unbound, state)
        branches = _walk(action.formula, sp.Primed)([start], None)
        out += [(action.name, t) for t in _states(
            branches, spec, domains, f"action {action.name}")]
    return out


def initial_states(spec: sp.TemporalSpec, domains: dict | None = None) -> list:
    """The states satisfying init, canonically sorted, as Init's walk
    builds them from nothing bound: `x = 0 /\\ y \\in {1, 2}` builds two."""
    if domains is None:
        domains = derive_domains(spec)
    start = _Branch(spec.layout, [UNBOUND] * len(spec.layout.names), None)
    branches = _walk(spec.init, sp.Var)([start], None)
    return _states(branches, spec, domains, "Init")


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
    only what was actually generated.  `max_distinct` bounds the initial
    states too: the first in `state_key` order are kept.

    The same search picks each state's trace parent, as TLC keeps a
    predecessor per state: of the states one level up with a step to it,
    the one of least rank.  Initial states rank in `state_key` order, and
    each later level by (rank of parent, `state_key`): the order in which
    a BFS that visits every state's successors in key order reaches them.
    """
    domains = derive_domains(spec)
    inits = initial_states(spec, domains)
    states_found = len(inits)
    truncated = max_distinct is not None and len(inits) > max_distinct
    if truncated:
        inits = inits[:max_distinct]

    # Each reached state's one record: (BFS level, rank, trace parent).
    # While its level is being found, rank is its trace parent's rank;
    # once the whole level is found, its own.
    seen = {s: (0, rank, None) for rank, s in enumerate(inits)}

    level, here = list(inits), 0
    while level:
        if shuffle is not None:
            shuffle.shuffle(level)
        if max_depth is not None and here >= max_depth:
            truncated = True
            break
        found = []
        for state in level:
            succs = successors(spec, state, domains)
            states_found += len(succs)
            rank = seen[state][1]
            for _, target in succs:
                record = seen.get(target)
                if record is None:
                    if max_distinct is not None and len(seen) >= max_distinct:
                        truncated = True
                        continue
                    seen[target] = (here + 1, rank, state)
                    found.append(target)
                elif record[0] > here and rank < record[1]:
                    seen[target] = (here + 1, rank, state)
        ranked = sorted(found, key=lambda s: (seen[s][1], sp.values_key(s)))
        for rank, s in enumerate(ranked):
            seen[s] = (here + 1, rank, seen[s][2])
        level, here = found, here + 1

    # `level` is empty unless max_depth stopped the search at level `here`
    graph = StateGraph(frozenset(seen), frozenset(inits), spec, frozenset(level))
    diameter = here + 1 if level else here
    stats = ExplorationStats(diameter, states_found, len(seen), truncated)
    return graph, stats, _counterexamples(spec, seen)


def _counterexamples(spec: sp.TemporalSpec, seen: dict) -> list:
    """Per violated invariant, the trace to its shallowest violating state
    of least `state_key`, read back through the trace parents."""
    out = []
    for inv_name, formula in spec.invariants:
        bad = [s for s in seen if not sp.eval_state_formula(formula, s)]
        if bad:
            path = [min(bad, key=lambda s: (seen[s][0], sp.state_key(s)))]
            while seen[path[-1]][2] is not None:
                path.append(seen[path[-1]][2])
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
    """Whether the walk builds `behavior`: its first state is initial, and
    each later one is a successor of the one before, or equal to it."""
    states = behavior.states
    if not states:
        return False
    domains = derive_domains(spec)
    return states[0] in initial_states(spec, domains) and all(
        nxt == current or nxt in [target for _, target in
                                  successors(spec, current, domains)]
        for current, nxt in zip(states, states[1:]))
