"""Successor and initial-state enumeration as `tmbt.explore` shipped them
before Init and Next were narrowed by candidate plans, kept as the
reference, with the variable domains they were drawn from.

`derive_domains`, `_closed_eval`, `_membership_domains`,
`_mine_constants` and `_domain_index` are the domain derivation as it
was before domains came from TypeOK alone: TypeOK membership, else
Init membership, else constants compared with the variable anywhere in
the spec.  Narrowed values outside these domains were dropped.

`_primed_candidates`, `_mentions_primed`, `_try_eval` and `successors`
are unchanged: every state re-walks each action's formula to find its
primed assignments.  `initial_states` is the brute force: it evaluates
Init on every state of the derived domains' product.
`per_variable_candidates` is the candidate lists `successors` tries.
The differential tests in test_candidate_plan.py hold the new code to
the states these give and to their errors, except where a value lies
outside these domains or a variable has none left.

`behaviors` is the random walk as it was before it walked on the fly:
it explores the whole reachable graph first and walks its edges.
test_explore.py holds the new walk to the same walks.
"""

from __future__ import annotations

import itertools
import random

import tmbt.spec as sp
from tmbt.errors import NoInitialStates, TmbtError, UnboundedDomain
from tmbt.explore import explore
from tmbt.values import SetVal, Value, sorted_values

TYPE_OK_NAME = "TypeOK"
_EMPTY = sp.State({})


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

def _domain_index(domains: dict) -> dict:
    """Per variable, each domain value mapped to itself: a set of the
    domain that also yields the domain's own value objects, so that
    successor states share them instead of holding fresh copies."""
    return {name: {value: value for value in values}
            for name, values in domains.items()}



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


def per_variable_candidates(spec, action, state, domains, domain_index) -> list:
    """The candidate values `successors` tries for each variable."""
    narrowed = _primed_candidates(action.formula, state) or {}
    per_var = []
    for name in spec.variables:
        if name in narrowed:
            index = domain_index[name]
            per_var.append(sorted_values(index[value] for value in narrowed[name]
                                         if value in index))
        else:
            per_var.append(domains[name])
    return per_var


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None,
               domain_index: dict | None = None) -> list:
    if domains is None:
        domains = derive_domains(spec)
    if domain_index is None:
        domain_index = _domain_index(domains)
    out = []
    for action in spec.actions:
        per_var = per_variable_candidates(spec, action, state, domains,
                                          domain_index)
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
