"""Init and Next built by the walk as `tmbt.explore` shipped it before the
walk was scheduled when it compiles, kept as the reference.

Each formula compiled once into closures `(branches, env) -> branches`
over a list of branches, each a slot list, its current state and the
(guard, env)s waiting for a variable it had not bound.  Every leaf
decided at run time whether it bound, guarded or waited: `_unbound`
tested the slots it read, a bind copied the slot list and re-ran the
waiting guards, and `_states` expanded the slots left unbound over their
domains, ran the guards still waiting, and sorted.  Conjuncts extended
the whole branch list in turn; disjuncts and `\\E` witnesses branched.

test_walk_reference.py holds the scheduled walk to this one: the same
states, and the same class of any error raised.
"""

from __future__ import annotations

import tmbt.spec as sp
from tmbt.errors import UnboundedDomain, UnboundVariable
from tmbt.explore import derive_domains
from tmbt.values import FALSE, TRUE, Value, require_bool

TYPE_OK_NAME = sp.TYPE_OK_NAME
UNBOUND = object()  # the value of a slot that a walk branch has not bound


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
    branch; walking Init, a name that `env` binds is bound.  None if there
    are no names."""
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
    for a leaf that binds a `kind` variable: `v = e` and `v \\in S` where
    `e` or `S` does not read `v`, and a bare `v` or `~v` as `v = TRUE` or
    `v = FALSE`.  None for any other formula."""
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
    """The formula's walk over `kind` variables, compiled on each call."""
    top = "state formula" if kind is sp.Var else "action formula"
    return sp.fold(formula, lambda node, parts: _walk_node(
        node, parts, kind, top if node is formula else "operand"), _parts)


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
    steps, guard = leaf(node, kind, what)
    if isinstance(node, sp.Exists):  # `\E v \in S : P` walks P per member
        def expand(branch, env):
            found = steps(branch, env)
            return None if found is None else [
                grown for witness, inner in found
                for grown in parts[0]([witness], inner)]
    else:
        def expand(branch, env):
            found = steps(branch, env)
            return None if found is None else [child for child, _ in found]

    def leaf_walk(branches, env):
        out = []
        for branch in branches:
            if (grown := expand(branch, env)) is not None:
                out += grown
            elif (kept := guard(branch, env)) is not None:
                out.append(kept)
        return out
    return leaf_walk


def leaf(node, kind: type, what: str):
    """(steps, guard) for a leaf.  `guard(branch, env, final=False)` gives
    the branch if the leaf holds on it, else None, or a copy where it waits
    for a variable it reads; `final` waits for none.  `steps(branch, env)`
    is None where the leaf is a guard, else an iterator over the (branch,
    env) pairs it leads to: each branch a bind makes, whose waiting guards
    hold, or the branch with each `\\E` witness, whose body is still to
    walk.  The values or the members are read when `steps` is called."""
    fn = node.compiled if isinstance(node, sp.ExprNode) else (
        lambda current, nxt, env: sp.eval_expr(node, current, nxt, env))
    initial = kind is sp.Var  # walking Init, a branch is the current state
    unbound = _unbound(sp.names_read(node, kind), initial)

    def guard(branch, env, final=False):
        if unbound is not None and not final and unbound(branch, env):
            return _Branch(branch.layout, branch.values, branch.current,
                           branch.waiting + ((guard, env),))
        value = fn(branch, None, env) if initial else fn(branch.current, branch, env)
        return branch if value is TRUE or (
            value is not FALSE and require_bool(value, what)) else None
    if isinstance(node, sp.Exists):
        var, members = node.var, sp.set_view(node.domain).members
        waits = _unbound(sp.names_read(node.domain, kind), initial)

        def steps(branch, env):
            if waits is not None and waits(branch, env):
                return None
            domain = members(branch, None, env, "quantifier domain") if initial \
                else members(branch.current, branch, env, "quantifier domain")
            return ((branch, {**(env or {}), var: member}) for member in domain)
    elif (binding := _binding(node, kind)) is not None:
        name, reads, values = binding
        waits = _unbound(reads, initial)
        cache = (None, None)  # the last layout and the slot of `name` in it

        def steps(branch, env):
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
            return ((child, env) for value in found
                    if (child := branch.bind(name, value, at)) is not None)
    else:
        def steps(branch, env):
            return None
    return steps, guard


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


def successors(spec: sp.TemporalSpec, state: sp.State,
               domains: dict | None = None) -> list:
    """All (actionName, nextState) steps enabled from `state`, in action
    declaration order, then canonically by next state."""
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
    """The states satisfying init, canonically sorted."""
    if domains is None:
        domains = derive_domains(spec)
    start = _Branch(spec.layout, [UNBOUND] * len(spec.layout.names), None)
    branches = _walk(spec.init, sp.Var)([start], None)
    return _states(branches, spec, domains, "Init")
