"""Initial-state and successor enumeration through candidate plans, as
`tmbt.explore` shipped them before Init and Next were built by one
constructive walk, kept as the reference.

Each formula was turned once into a candidate plan (`candidate_plan`)
that read its `v = e`, `v \\in S`, bare `v` and `~v` conjuncts and
disjuncts: conjuncts intersected their candidates and disjuncts united
them, and a variable some disjunct left free was dropped to its TypeOK
domain.  `successors` and `initial_states` took the product of the
per-variable candidates (`planned`) and evaluated the whole formula on
every candidate.  `derive_domains` read TypeOK through the same plan.
test_candidate_plan.py holds the walk to the states these give.

`behaviors` is the random walk as it was before it walked on the fly:
it explores the whole reachable graph first and walks its edges.
test_explore.py holds the new walk to the same walks.

`explore_then_search` is `explore` as it was before the BFS picked each
state's trace parent and before it stopped keeping edges: the same BFS
recorded every step in an edge set, then `counterexamples` turned the
finished graph's edges into an adjacency dict and ran a second BFS from
the initial states in key order, each state's successors in key order.
Its `Graph` holds that edge set.  test_explore.py holds `explore` to the
same nodes, edges, stats and traces.
"""

from __future__ import annotations

import itertools
import random

from collections import deque

import tmbt.spec as sp
from tmbt.errors import NoInitialStates, TmbtError, UnboundedDomain
from tmbt.explore import Counterexample, ExplorationStats, explore
from tmbt.explore import derive_domains as walk_domains
from tmbt.explore import initial_states as walk_initial_states
from tmbt.explore import successors as walk_successors
from tmbt.record import Record
from tmbt.values import FALSE, TRUE, Value, sorted_values

TYPE_OK_NAME = "TypeOK"
_EMPTY = sp.State({})


# ---------------------------------------------------------------------------
# Candidate plans


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


def _junction_parts(expr) -> tuple:
    return expr.parts if isinstance(expr, (sp.And, sp.Or)) else ()


def candidate_plan(formula, target: type):
    """The formula's candidate values for the variables it assigns, as a
    closure `current -> {name: set of values} | None`."""
    plan = sp.fold(formula, lambda node, parts: _plan_node(node, parts, target),
                   _junction_parts)
    return plan if plan is not None else (lambda current: None)


def derive_domains(spec: sp.TemporalSpec) -> dict:
    type_ok = spec.invariant_map().get(TYPE_OK_NAME)
    if type_ok is None:
        return {}
    narrowed = candidate_plan(type_ok, sp.Var)(_EMPTY) or {}
    return {name: {value: value for value in sorted_values(narrowed[name])}
            for name in spec.variables if isinstance(narrowed.get(name), set)}


def _candidates(variables: tuple, narrowed: dict | None, domains: dict,
                formula: str) -> list:
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
            raise values.error
        else:
            msg = (f"no finite domain for variable {name}: {formula} leaves it "
                   f"free and {TYPE_OK_NAME} gives it no domain")
            raise UnboundedDomain(msg)
    return per_var


def planned(spec: sp.TemporalSpec, formula, current: sp.State | None,
            domains: dict, name: str) -> list:
    """The per-variable candidates the plan of `formula` tries: an action
    given `current`, or Init where `current` is None."""
    target = sp.Var if current is None else sp.Primed
    narrowed = candidate_plan(formula, target)(current or _EMPTY)
    return _candidates(spec.variables, narrowed, domains, name)


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None) -> list:
    if domains is None:
        domains = derive_domains(spec)
    out = []
    for action in spec.actions:
        per_var = planned(spec, action.formula, state, domains,
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
    if domains is None:
        domains = derive_domains(spec)
    per_var = planned(spec, spec.init, None, domains, "Init")
    found = []
    for combo in itertools.product(*per_var):
        candidate = sp.State(zip(spec.variables, combo))
        if sp.eval_state_formula(spec.init, candidate):
            found.append(candidate)
    found.sort(key=sp.state_key)
    return found


# ---------------------------------------------------------------------------
# Behaviors


def behaviors(spec: sp.TemporalSpec, count: int, max_len: int,
              seed: int, graph=None) -> list:
    """`graph`, when given, is `explore(spec)`'s graph, explored once for
    many calls."""
    if graph is None:
        graph, _, _ = explore(spec)
    inits = sorted(graph.initials, key=sp.state_key)
    if not inits:
        msg = f"spec {spec.name}: init is unsatisfiable over the derived domains"
        raise NoInitialStates(msg)
    action_order = {a.name: i for i, a in enumerate(spec.actions)}
    adjacency: dict = {}
    for source, action_name, target in graph.edges:
        adjacency.setdefault(source, []).append((action_name, target))
    for outs in adjacency.values():
        outs.sort(key=lambda at: (action_order[at[0]], sp.state_key(at[1])))

    rng = random.Random(seed)
    walks = []
    for _ in range(count):
        state = inits[rng.randrange(len(inits))]
        states = [state]
        while len(states) < max_len:
            outs = adjacency.get(state)
            if not outs:
                break
            _, state = outs[rng.randrange(len(outs))]
            states.append(state)
        walks.append(sp.Behavior(states))
    return walks


# ---------------------------------------------------------------------------
# Counterexamples from a second search


class Graph(Record):
    nodes: frozenset
    edges: frozenset
    initials: frozenset


def explore_then_search(spec: sp.TemporalSpec, max_distinct: int | None = None,
                        max_depth: int | None = None,
                        shuffle: random.Random | None = None):
    domains = walk_domains(spec)
    inits = walk_initial_states(spec, domains)
    states_found = len(inits)
    truncated = max_distinct is not None and len(inits) > max_distinct
    if truncated:  # the first initial states in key order are kept
        inits = inits[:max_distinct]

    depth = {s: 0 for s in inits}  # every reached state, by BFS level
    edges = set()

    level = list(inits)
    while level:
        if shuffle is not None:
            shuffle.shuffle(level)
        if max_depth is not None and level and depth[level[0]] >= max_depth:
            truncated = True
            break
        next_level = []
        for state in level:
            succs = walk_successors(spec, state, domains)
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

    graph = Graph(frozenset(depth), frozenset(edges), frozenset(inits))
    diameter = 1 + max(depth.values()) if depth else 0
    stats = ExplorationStats(diameter, states_found, len(depth), truncated)
    cexs = counterexamples(spec, graph, depth)
    return graph, stats, cexs


def counterexamples(spec: sp.TemporalSpec, graph: Graph,
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
