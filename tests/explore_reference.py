"""Successor and initial-state enumeration as `tmbt.explore` shipped them
before Init and Next were narrowed by candidate plans, kept as the
reference.

`_primed_candidates`, `_mentions_primed`, `_try_eval` and `successors`
are unchanged: every state re-walks each action's formula to find its
primed assignments.  `initial_states` is the brute force: it evaluates
Init on every state of the derived domains' product.  The differential
tests in test_candidate_plan.py hold the new code to the states these
give, in the same order, and to their error types and messages.

`behaviors` is the random walk as it was before it walked on the fly:
it explores the whole reachable graph first and walks its edges.
test_explore.py holds the new walk to the same walks.
"""

from __future__ import annotations

import itertools
import random

import tmbt.spec as sp
from tmbt.errors import NoInitialStates, TmbtError
from tmbt.explore import _domain_index, derive_domains, explore
from tmbt.values import SetVal, Value, sorted_values


def _primed_candidates(expr, current: sp.State) -> dict | None:
    """Candidate next values implied by the formula's structure.

    Returns a map variable -> set of values, where an absent variable is
    unconstrained.  None means the whole branch is uninformative.  Only a
    pruning aid: every returned candidate set is a superset of the values
    the full evaluation would accept for that conjunct.
    """
    if isinstance(expr, sp.And):
        left = _primed_candidates(expr.left, current)
        right = _primed_candidates(expr.right, current)
        if left is None:
            return right
        if right is None:
            return left
        out = dict(left)
        for name, vals in right.items():
            out[name] = out[name] & vals if name in out else vals
        return out
    if isinstance(expr, sp.Or):
        left = _primed_candidates(expr.left, current)
        right = _primed_candidates(expr.right, current)
        if left is None or right is None:
            return None
        out = {}
        for name in left.keys() & right.keys():
            out[name] = left[name] | right[name]
        return out or None
    if isinstance(expr, sp.Eq):
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(side, sp.Primed) and not _mentions_primed(other):
                value = _try_eval(other, current)
                if value is not None:
                    return {side.name: {value}}
        return None
    if isinstance(expr, sp.In):
        if isinstance(expr.element, sp.Primed) and not _mentions_primed(expr.domain):
            domain = _try_eval(expr.domain, current)
            if isinstance(domain, SetVal):
                return {expr.element.name: set(domain.elements)}
    return None


def _mentions_primed(expr) -> bool:
    if isinstance(expr, sp.Primed):
        return True
    if isinstance(expr, (sp.Const, sp.Var)):
        return False
    if isinstance(expr, sp.Not):
        return _mentions_primed(expr.operand)
    if isinstance(expr, (sp.SetLit, sp.SeqLit)):
        return any(_mentions_primed(i) for i in expr.items)
    if isinstance(expr, sp.IntRange):
        return _mentions_primed(expr.low) or _mentions_primed(expr.high)
    if isinstance(expr, sp.In):
        return _mentions_primed(expr.element) or _mentions_primed(expr.domain)
    if isinstance(expr, sp.QUANTIFIERS):
        return _mentions_primed(expr.domain) or _mentions_primed(expr.body)
    return _mentions_primed(expr.left) or _mentions_primed(expr.right)


def _try_eval(expr, current: sp.State) -> Value | None:
    try:
        return sp.eval_expr(expr, current, sp.State({}))
    except TmbtError:
        return None


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None,
               domain_index: dict | None = None) -> list:
    if domains is None:
        domains = derive_domains(spec)
    if domain_index is None:
        domain_index = _domain_index(domains)
    out = []
    for action in spec.actions:
        narrowed = _primed_candidates(action.formula, state) or {}
        per_var = []
        for name in spec.variables:
            if name in narrowed:
                index = domain_index[name]
                per_var.append(sorted_values(index[value] for value in narrowed[name]
                                             if value in index))
            else:
                per_var.append(domains[name])
        accepted = []
        for combo in itertools.product(*per_var):
            candidate = sp.State(zip(spec.variables, combo))
            if sp.eval_action_formula(action.formula, state, candidate):
                accepted.append(candidate)
        accepted.sort(key=sp.state_key)
        out.extend((action.name, t) for t in accepted)
    return out


def initial_states(spec: sp.TemporalSpec, domains: dict | None = None) -> list:
    """States over the derived domains satisfying init, canonically sorted."""
    if domains is None:
        domains = derive_domains(spec)
    per_var = [domains[name] for name in spec.variables]
    found = []
    for combo in itertools.product(*per_var):
        candidate = sp.State(zip(spec.variables, combo))
        if sp.eval_state_formula(spec.init, candidate):
            found.append(candidate)
    found.sort(key=sp.state_key)
    return found


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
