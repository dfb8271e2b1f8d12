"""Breadth-first state-space exploration.

The transition relation is executed, not solved: candidate successor
states are drawn from finite per-variable domains and filtered by
evaluating the action formula over the (current, candidate) pair.
Domains come from the TypeOK invariant when one is declared, from
membership constraints in init otherwise, and as a last resort from
constants compared against the variable anywhere in the spec.

Init and Next are enumerated by one engine.  Each formula is turned
once into a candidate plan (`candidate_plan`) that reads its `v = e`
and `v \\in S` conjuncts and disjuncts: an action's plan narrows the
primed variables given the current state, and Init's plan narrows the
variables given the empty state.  A variable the plan leaves free takes
its whole domain, and narrowed values outside the domain are dropped.
Every candidate is then checked against the whole formula.

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
from .values import IntVal, SetVal, Value, sorted_values, value_to_json

TYPE_OK_NAME = "TypeOK"
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
# Domain derivation


def _closed_eval(expr) -> Value | None:
    """Evaluate an expression with nothing in scope, or None if it needs one."""
    try:
        return sp.eval_expr(expr, _EMPTY, _EMPTY)
    except TmbtError:
        return None


def _membership_domains(expr, through_or: bool) -> dict:
    """Per-variable value sets from `v \\in D` constraints with constant D.

    Conjuncts intersect; disjunct branches union when `through_or` is set.
    """
    if isinstance(expr, sp.And):
        left = _membership_domains(expr.left, through_or)
        right = _membership_domains(expr.right, through_or)
        out = dict(left)
        for name, vals in right.items():
            out[name] = out[name] & vals if name in out else vals
        return out
    if through_or and isinstance(expr, sp.Or):
        left = _membership_domains(expr.left, through_or)
        right = _membership_domains(expr.right, through_or)
        # a variable unconstrained on either side stays unconstrained
        out = {}
        for name in left.keys() & right.keys():
            out[name] = left[name] | right[name]
        return out
    if isinstance(expr, sp.In) and isinstance(expr.element, sp.Var):
        domain = _closed_eval(expr.domain)
        if isinstance(domain, SetVal):
            return {expr.element.name: set(domain.elements)}
    return {}


def _mine_constants(expr, out: dict) -> None:
    """Collect constants equated with or containing a variable, any polarity."""
    if isinstance(expr, (sp.And, sp.Or, sp.Implies, sp.Eq, sp.Neq)):
        pairs = [(expr.left, expr.right), (expr.right, expr.left)]
        if isinstance(expr, (sp.Eq, sp.Neq)):
            for side, other in pairs:
                if isinstance(side, (sp.Var, sp.Primed)):
                    value = _closed_eval(other)
                    if value is not None:
                        out.setdefault(side.name, set()).add(value)
        _mine_constants(expr.left, out)
        _mine_constants(expr.right, out)
        return
    if isinstance(expr, sp.In) and isinstance(expr.element, (sp.Var, sp.Primed)):
        domain = _closed_eval(expr.domain)
        if isinstance(domain, SetVal):
            out.setdefault(expr.element.name, set()).update(domain.elements)
        return
    if isinstance(expr, sp.Not):
        _mine_constants(expr.operand, out)
    if isinstance(expr, sp.QUANTIFIERS):
        _mine_constants(expr.body, out)


def derive_domains(spec: sp.TemporalSpec) -> dict:
    """Finite candidate domain per variable, canonically sorted.

    Raises UnboundedDomain naming the first variable (in declaration
    order) for which no source yields any candidate values.
    """
    type_ok = spec.invariant_map().get(TYPE_OK_NAME)
    from_type_ok = _membership_domains(type_ok, False) if type_ok is not None else {}
    from_init = _membership_domains(spec.init, True)
    mined: dict = {}
    _mine_constants(spec.init, mined)
    for action in spec.actions:
        _mine_constants(action.formula, mined)

    domains = {}
    for name in spec.variables:
        values = from_type_ok.get(name) or from_init.get(name) or mined.get(name)
        if not values:
            msg = (f"no finite domain for variable {name}: not constrained by "
                   f"{TYPE_OK_NAME}, init membership, or literal comparisons")
            raise UnboundedDomain(msg)
        domains[name] = sorted_values(values)
    return domains


# ---------------------------------------------------------------------------
# Candidate plans: Init and Next are enumerated by one engine


def _try_eval(expr, current: sp.State) -> Value | None:
    try:
        return sp.eval_expr(expr, current, _EMPTY)
    except TmbtError:
        return None


def _mentions(expr, target: type) -> bool:
    return sp.fold(expr, lambda node, inner: isinstance(node, target) or any(inner))


def _plan_leaf(expr, target: type):
    """The plan of a formula that is not a junction: `v = e` (either way
    round) or `v \\in S`, where `v` is a `target` node and `e` or `S`
    mentions none; None for any other formula, which never narrows."""
    if isinstance(expr, sp.Eq):
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(side, target) and not _mentions(other, target):
                name = side.name

                def assignment(current):
                    value = _try_eval(other, current)
                    return None if value is None else {name: {value}}
                return assignment
    if (isinstance(expr, sp.In) and isinstance(expr.element, target)
            and not _mentions(expr.domain, target)):
        name, domain = expr.element.name, expr.domain
        if isinstance(domain, sp.IntRange):
            members = sp.set_view(domain).members

            def range_membership(current):
                # read through the range's bounds, not built as a SetVal
                try:
                    numbers = members(current, _EMPTY, None, "range").numbers
                except TmbtError:
                    return None
                return {name: set(map(IntVal, numbers))}
            return range_membership

        def membership(current):
            members = _try_eval(domain, current)
            if isinstance(members, SetVal):
                return {name: set(members.elements)}
            return None
        return membership
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
    `S`, when these evaluate.  An absent variable is unconstrained and
    None means nothing is known.  Only a pruning aid: every candidate
    set is a superset of the values the full evaluation accepts.
    """
    if not isinstance(formula, sp.ExprNode):
        return _build_plan(formula, target)
    key = "plan_" + target.__name__
    cache = vars(formula)
    if key not in cache:
        cache[key] = _build_plan(formula, target)
    return cache[key]


def _domain_index(domains: dict) -> dict:
    """Per variable, each domain value mapped to itself: a set of the
    domain that also yields the domain's own value objects, so that
    successor states share them instead of holding fresh copies."""
    return {name: {value: value for value in values}
            for name, values in domains.items()}


def _candidates(variables: tuple, narrowed: dict | None, domains: dict,
                domain_index: dict) -> list:
    """Per variable, its narrowed values that lie in its domain, or its
    whole domain where the plan leaves it free; canonically sorted."""
    per_var = []
    for name in variables:
        if narrowed and name in narrowed:
            index = domain_index[name]
            per_var.append(sorted_values(index[value] for value in narrowed[name]
                                         if value in index))
        else:
            per_var.append(domains[name])
    return per_var


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None,
               domain_index: dict | None = None) -> list:
    """All (actionName, nextState) steps enabled from `state`.

    Entries are ordered by action declaration order, then canonically by
    next state.  The same next state reached through two actions appears
    twice; a stuttering step appears only if some action admits it.
    `domains` maps each variable to its canonically sorted candidate
    values, as derive_domains returns them, and `domain_index` is
    `_domain_index(domains)`.  explore() builds both once and passes
    them for every state.
    """
    if domains is None:
        domains = derive_domains(spec)
    if domain_index is None:
        domain_index = _domain_index(domains)
    out = []
    for action in spec.actions:
        narrowed = candidate_plan(action.formula, sp.Primed)(state)
        per_var = _candidates(spec.variables, narrowed, domains, domain_index)
        accepted = []
        for combo in itertools.product(*per_var):
            candidate = sp.State(zip(spec.variables, combo))
            if sp.eval_action_formula(action.formula, state, candidate):
                accepted.append(candidate)
        accepted.sort(key=sp.state_key)
        out.extend((action.name, t) for t in accepted)
    return out


def initial_states(spec: sp.TemporalSpec, domains: dict | None = None) -> list:
    """States over the derived domains satisfying init, canonically sorted.

    Init is narrowed like Next: its candidate plan, evaluated against the
    empty state, picks each variable's candidates from its domain, so
    `x = 0 /\\ y \\in {1, 2}` tries two states and not the domain
    product.  Each candidate is then checked against the whole of init.
    """
    if domains is None:
        domains = derive_domains(spec)
    narrowed = candidate_plan(spec.init, sp.Var)(_EMPTY)
    per_var = _candidates(spec.variables, narrowed, domains,
                          _domain_index(domains))
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
    domain_index = _domain_index(domains)
    inits = initial_states(spec, domains)

    depth = {s: 0 for s in inits}
    nodes = set(inits)
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
            succs = successors(spec, state, domains, domain_index)
            states_found += len(succs)
            for action_name, target in succs:
                if target not in nodes:
                    if max_distinct is not None and len(nodes) >= max_distinct:
                        truncated = True
                        continue
                    nodes.add(target)
                    depth[target] = depth[state] + 1
                    next_level.append(target)
                edges.add((state, action_name, target))
        level = next_level

    graph = StateGraph(frozenset(nodes), frozenset(edges), frozenset(inits))
    diameter = 1 + max(depth.values()) if depth else 0
    stats = ExplorationStats(diameter, states_found, len(nodes), truncated)
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
    domain_index = _domain_index(domains)
    inits = initial_states(spec, domains)
    if not inits:
        msg = f"spec {spec.name}: init is unsatisfiable over the derived domains"
        raise NoInitialStates(msg)
    action_order = {a.name: i for i, a in enumerate(spec.actions)}
    steps: dict = {}

    def steps_from(state) -> list:
        if state not in steps:
            found = set(successors(spec, state, domains, domain_index))
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
