"""Breadth-first state-space exploration.

The transition relation is executed, not solved: one walk of Init or of
an action builds its states as it goes, as TLC's `getNextStates` does
(Yu, Manolios and Lamport, CHARME 1999).  A path takes the conjuncts in
turn; disjuncts, the values of `v \\in S` and `\\E` witnesses branch it.
`v = e`, `v \\in S`, a bare `v` and `~v` bind an unbound `v` to the
values they state, and are guards once `v` is bound.  Any other conjunct
is a guard, evaluated once the variables it reads are bound.  A variable
a path leaves unbound ranges over its TypeOK domain.  Which names are
bound where is known when the walk compiles (see `_Walk`), as Apalache
finds an action's assignments (Kukovec, Tran and Konnov, ABZ 2018).

Counting contract:
  states_found    initial states plus every successor generated from a
                  dequeued state, duplicates included
  distinct_states size of the reachable node set
  diameter        1 + the deepest BFS level (in edges) of any node, so a
                  spec whose reachable states are all initial has diameter 1
"""

from __future__ import annotations

import functools
import itertools
import random

from . import spec as sp
from .errors import NoInitialStates, TmbtError, UnboundedDomain, UnboundVariable
from .record import Record
from .values import FALSE, TRUE, require_bool, sorted_values, value_to_json

TYPE_OK_NAME = sp.TYPE_OK_NAME


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
# The walk: Init and Next are built by one engine, scheduled when it
# compiles.  The names bound at a leaf follow from its path through the
# disjuncts, so each place compiles once per context met there: the names
# bound, the guards waiting and the names the enclosing `\E`s bind.  A run
# loops over straight-line blocks on one slot list: an op writes a slot or
# runs a guard, and a fork (`\/`, `v \in S`, `\E`) gives the blocks to run
# next, from an explicit stack.


class _View:
    """A run's slot list read as a state of `layout`."""

    __slots__ = ("layout", "values")

    def __init__(self, layout, values: list):
        self.layout, self.values = layout, values


class _Cell:
    """A place in a walk: `node`, walked in `scope` (the index of its env
    in a run's `envs`, the names the enclosing `\\E`s bind), then `rest`;
    `made` is what it leads to (see `_Walk.follow`)."""

    __slots__ = ("node", "scope", "rest", "made")

    def __init__(self, node, scope: tuple, rest):
        self.node, self.scope, self.rest, self.made = node, scope, rest, None


_TRUE, _FALSE = sp.Const(TRUE), sp.Const(FALSE)


def _binding(expr, kind: type):
    """(name, source, many) for a leaf that binds a `kind` variable (Var or
    Primed): `v = e` binds the value of `e`, and `v \\in S` (`many`) each
    member of `S`, where `e` or `S` does not read `v`; a bare `v` or `~v`
    binds TRUE or FALSE.  None for any other formula."""
    if isinstance(expr, kind):
        return expr.name, _TRUE, False
    if isinstance(expr, sp.Not) and isinstance(expr.operand, kind):
        return expr.operand.name, _FALSE, False
    if isinstance(expr, sp.Eq):
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if (isinstance(side, kind) and isinstance(other, sp.ExprNode)
                    and side.name not in sp.names_read(other, kind)):
                return side.name, other, False
    if (isinstance(expr, sp.In) and isinstance(expr.element, kind)
            and expr.element.name not in sp.names_read(expr.domain, kind)):
        return expr.element.name, expr.domain, True
    return None


def _parts(node) -> tuple:
    if isinstance(node, sp.Junction):
        return sp.flat_parts(node)
    return (node.body,) if isinstance(node, sp.Exists) else ()


def _write(at: int, fn, index: int):
    """The op that binds slot `at` to the value of `fn`."""
    def write(values, a, b, envs):
        values[at] = fn(a, b, envs[index])
        return True
    return write


def _compare(guard, at: int, holds, bound: int):
    """The op of a comparison between the variable in slot `at` and the
    integer `bound`, which reads the slot in place and runs `guard`, the
    comparison's own op, on a value that is no integer."""
    def compare(values, a, b, envs):
        value = values[at]
        if type(value) is int:
            return holds(value, bound)
        return guard(values, a, b, envs)
    return compare


def _run(block, values: list, a, b, envs: list, canonical: list) -> tuple:
    """Run a walk from `block` on `values`, which its closures read as
    (a, b): (the view, None) walking Init, else (the current state, the
    view).  Gives the complete ends' values, each the domain's own where
    it has it, and the partial ends as (context, values, envs)."""
    found, partial, forks = [], [], []
    while True:
        ops, fork, end = block
        for op in ops:
            if not op(values, a, b, envs):
                break
        else:
            if fork is not None:
                forks.append(fork(values, a, b, envs))
            elif end is None:
                found.append(tuple(map(dict.get, canonical, values, values)))
            else:
                partial.append((end, values.copy(), envs.copy()))
        while forks:
            if (block := next(forks[-1], None)) is not None:
                break
            forks.pop()
        else:
            return found, partial


class _Walk:
    """The walk of `formula` over `kind` variables (sp.Primed for an
    action, sp.Var for Init) in states of `layout`; `view` adds a slot for
    each name no variable has that it may bind.  A context is (the names
    bound, those no variable has in the order bound, the cells of the
    guards waiting); `memo` keeps each block by (cell, context), and a
    fork compiles its blocks when it first runs."""

    def __init__(self, formula, kind: type, layout: sp.Layout):
        self.formula, self.kind, self.layout = formula, kind, layout
        self.initial, self.memo = kind is sp.Var, {}
        self.scopes = itertools.count(1)  # an env index per `\E`, unique
        self.canonical = (None, None)  # the last domains, and theirs per slot
        named = sp.fold(formula, lambda node, inner: set().union(*inner, [
            binding[0] for binding in [_binding(node, kind)] if binding]), _parts)
        self.view = sp.Layout(layout.names + tuple(sorted(
            named - layout.slot.keys())))
        self.start = self.block(_Cell(formula, (0, frozenset()), None),
                                (frozenset(), (), ()))

    def follow(self, cell):
        """What `cell` leads to, made once: an And's first part's cell, an
        Or's disjuncts' cells, or for a leaf (guard, needs, binding, each):
        its guard op, the names it waits for, its `_binding` with the names
        that waits for, and for an `\\E` the names its domain waits for and
        its body's cell.  Walking Init, a name an `\\E` binds is bound."""
        if cell.made is not None:
            return cell.made
        node, (index, names) = cell.node, cell.scope
        shadow = names if self.initial else frozenset()

        def needs(expr) -> frozenset:
            return sp.names_read(expr, self.kind) - shadow
        if isinstance(node, sp.Junction):
            parts = [_Cell(part, cell.scope, cell.rest)
                     for part in sp.flat_parts(node)]
            if isinstance(node, sp.Or):
                cell.made = parts
                return parts
            for part, after in zip(parts, parts[1:]):
                part.rest = after
            cell.made = parts[0]
            return cell.made
        fn = node.compiled if isinstance(node, sp.ExprNode) else (
            lambda current, nxt, env: sp.eval_expr(node, current, nxt, env))
        what = "operand" if node is not self.formula else (
            "state formula" if self.initial else "action formula")

        def guard(values, a, b, envs):
            value = fn(a, b, envs[index])
            return value is TRUE or (
                value is not FALSE and require_bool(value, what))
        left, right = getattr(node, "left", None), getattr(node, "right", None)
        if (isinstance(node, sp.Comparison) and isinstance(left, self.kind)
                and isinstance(right, sp.Const) and type(right.value) is int
                and left.name in self.layout.slot.keys() - shadow):
            guard = _compare(guard, self.layout.slot[left.name], node.holds,
                             right.value)
        binding, each = _binding(node, self.kind), None
        if binding is not None and binding[0] not in shadow:
            binding += (needs(binding[1]),)
        elif isinstance(node, sp.Exists):
            body = _Cell(node.body, (next(self.scopes), names | {node.var}),
                         cell.rest)
            binding, each = None, (needs(node.domain), body)
        else:
            binding = None
        cell.made = guard, needs(node), binding, each
        return cell.made

    def flush(self, bound, pending: tuple) -> tuple:
        """The guard ops of the cells waiting that `bound` binds every name
        of, in the order they wait, and the cells still waiting."""
        ready = [cell for cell in pending if self.follow(cell)[1] <= bound]
        return [self.follow(cell)[0] for cell in ready], tuple(
            cell for cell in pending if cell not in ready)

    def block(self, cell, context: tuple) -> tuple:
        """What a run runs from `cell` in `context`, (ops, fork, end): the
        ops in turn while each holds, then the fork, if any, which gives the
        blocks to run next; else the run ends, complete (`end` None) or
        partial (`end` its context)."""
        key, (bound, extras, pending) = (cell, context), context
        if (made := self.memo.get(key)) is not None:
            return made
        (ops, pending), fork, bound = self.flush(bound, pending), None, set(bound)
        while cell is not None and fork is None:
            node, follows = cell.node, self.follow(cell)
            if isinstance(node, sp.And):
                cell = follows
                continue
            if isinstance(node, sp.Or):
                fork = self.disjuncts(follows, (frozenset(bound), extras, pending))
                break
            guard, needs, binding, each = follows
            if each is not None and each[0] <= bound:
                fork = self.each(cell, (frozenset(bound), extras, pending),
                                 cell.node.domain, each[1])
            elif (binding is not None and binding[0] not in bound
                  and binding[3] <= bound):
                at = self.view.slot[binding[0]]
                extras += binding[:1] if at >= len(self.layout.names) else ()
                bound.add(binding[0])
                if binding[2]:  # `v \in S`: the rest, after the guards it lets run
                    fork = self.each(cell, (frozenset(bound), extras, pending),
                                     binding[1], cell.rest, at)
                else:
                    ready, pending = self.flush(bound, pending)
                    ops += [_write(at, binding[1].compiled, cell.scope[0]), *ready]
            elif needs <= bound:
                ops.append(guard)
            else:
                pending += (cell,)
            cell = cell.rest
        complete = not (pending or extras) and len(bound) == len(self.layout.names)
        end = None if fork or complete else (frozenset(bound), extras, pending)
        made = self.memo[key] = tuple(ops), fork, end
        return made

    def disjuncts(self, cells: list, context: tuple):
        blocks = None

        def fork(values, a, b, envs):
            nonlocal blocks
            if blocks is None:  # one list, whole, even where two runs race
                blocks = [self.block(cell, context) for cell in cells]
            return iter(blocks)
        return fork

    def each(self, cell, context: tuple, source, then, at=None):
        """The fork of `cell`, a `v \\in S` that binds slot `at` or an `\\E v
        \\in S : P`: the block of `then` in `context` per member of S, the
        `source`.  A witness is the env of P's own index, so a guard
        waiting in P reads it after the quantifier."""
        var, outer = cell.node.var if at is None else None, cell.scope[0]
        members = sp.set_view(source).members
        index = 0 if at is not None else then.scope[0]
        what = "quantifier domain" if at is None else "right side of \\in"
        block = None

        def fork(values, a, b, envs):
            nonlocal block
            if block is None:
                block = self.block(then, context)
            env = envs[outer]
            domain = members(a, b, env, what)
            envs.extend([None] * (index + 1 - len(envs)))
            for member in domain:
                if at is None:
                    envs[index] = {**(env or {}), var: member}
                else:
                    values[at] = member
                yield block
        return fork

    def states(self, variables: tuple, current, domains: dict, label) -> list:
        """The states the walk builds from `current` (None walking Init),
        each once, canonically sorted; `label` names the action in errors."""
        layout, values = self.layout, [None] * len(self.view.names)
        known, canonical = self.canonical
        if known is not domains:
            canonical = [domains.get(name, {}) for name in layout.names]
            self.canonical = domains, canonical
        view = _View(self.view, values)
        a, b = (view, None) if current is None else (current, view)
        found, partial = _run(self.start, values, a, b, [None], canonical)
        if partial:
            found += [tuple(map(dict.get, canonical, v, v)) for v in
                      self.finish(partial, variables, current, domains, label)]
        if len(found) < 2:
            return [sp.positional(layout, v) for v in found]
        return sorted({sp.positional(layout, v) for v in found}, key=sp.values_key)

    def finish(self, partial: list, variables: tuple, current, domains: dict,
               label) -> list:
        """The values of the partial ends' states.  Variable by variable,
        in declaration order, each end that leaves it unbound ranges over
        its domain, or is UnboundedDomain, binding as the walk does; then
        an end that bound a name no variable has raises, and the guards
        still waiting run (they read such a name)."""
        def holds(ops, layout, values: list, envs: list) -> bool:
            view = _View(layout, values)
            a, b = (view, None) if current is None else (current, view)
            return all(op(values, a, b, envs) for op in ops)

        for name in variables:
            if all(name in end[0][0] for end in partial):
                continue
            if name not in domains:
                formula = "Init" if label is None else f"action {label}"
                msg = (f"no finite domain for variable {name}: {formula} leaves "
                       f"it free and {TYPE_OK_NAME} gives it no domain")
                raise UnboundedDomain(msg)
            at, grown = self.layout.slot[name], []
            for (bound, extras, pending), values, envs in partial:
                if name in bound:
                    grown.append(((bound, extras, pending), values, envs))
                    continue
                bound = bound | {name}
                ops, waiting = self.flush(bound, pending)
                for value in domains[name]:
                    child = values.copy()
                    child[at] = value
                    if holds(ops, self.view, child, envs):
                        grown.append(((bound, extras, waiting), child, envs))
            partial = grown
        found = []
        for (_, extras, pending), values, envs in partial:
            if extras:
                raise UnboundVariable(f"variable {extras[0]} is not bound")
            if holds([self.follow(cell)[0] for cell in pending], self.layout,
                     values, envs):
                found.append(values)
        return found


def _walk(formula, kind: type, layout: sp.Layout) -> _Walk:
    """The walk of `formula` (see `_Walk`), made once and kept on it."""
    walks = vars(formula).setdefault("walks", {}) \
        if isinstance(formula, sp.ExprNode) else {}
    if (walk := walks.get((kind, layout))) is None:
        walk = walks[kind, layout] = _Walk(formula, kind, layout)
    return walk


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
    if binding is None or sp.names_read(binding[1], sp.Var):
        return None
    name, source, many, empty = *binding, sp.State(())
    try:
        return {name: set(sp.set_view(source).members(
            empty, None, None, "right side of \\in") if many else
            (source.compiled(empty, None, None),))}
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
    out = []
    for action in spec.actions:
        walk = _walk(action.formula, sp.Primed, spec.layout)
        out += [(action.name, t) for t in walk.states(
            spec.variables, state, domains, action.name)]
    return out


def initial_states(spec: sp.TemporalSpec, domains: dict | None = None) -> list:
    """The states satisfying init, canonically sorted, as Init's walk
    builds them from nothing bound: `x = 0 /\\ y \\in {1, 2}` builds two."""
    if domains is None:
        domains = derive_domains(spec)
    walk = _walk(spec.init, sp.Var, spec.layout)
    return walk.states(spec.variables, None, domains, None)


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
        raise NoInitialStates.of(spec)
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
