"""States, formulas and their evaluation.

A TemporalSpec is the executable form of an Init/Next-style temporal
specification: a variable list, an init state formula, named actions
(relations between a current and a primed state) and named invariants.
Formulas are immutable expression trees evaluated against one state
(state formulas) or a pair of states (action formulas).

Evaluation compiles each formula into Python closures on its first
evaluation and caches them on the expression node, so a spec's formulas
compile once however often they are evaluated.  A set expression is read
in one place, `set_view`: every `e \\in S`, quantifier domain and range
value, the explorer's walk and PBT's argument domains take its members
or its membership test from there.  A range `a..b` is read
through its bounds there, so membership in it is a bounds check and a
quantifier over it counts through it without building the set.
"""

from __future__ import annotations

import functools
import operator
import typing as t

from .errors import (
    EmptyChooseDomain,
    IntegerOverflow,
    PrimedInStateFormula,
    TypeMismatch,
    UnboundVariable,
)
from .record import Record
from .values import (
    INT64_MAX,
    INT64_MIN,
    FALSE,
    TRUE,
    BoolVal,
    SetVal,
    SeqVal,
    Value,
    canonical_key,
    describe,
    require_bool,
    require_int,
    require_set,
    set_members,
)


# ---------------------------------------------------------------------------
# States


class Layout:
    """The slot of each name of a tuple, in its order: `Layout(names)` is
    the one layout of `names`, shared by every state over those names."""

    __slots__ = ("names", "slot")
    _made: dict = {}

    def __new__(cls, names: tuple):
        if (layout := cls._made.get(names)) is None:
            layout = object.__new__(cls)
            layout.names, layout.slot = names, {n: at for at, n in enumerate(names)}
            layout = cls._made.setdefault(names, layout)  # one, even if raced
        return layout


class State:
    """A total assignment of values to variable names. Immutable, hashable.

    `values` holds one value per slot of `layout`, whose names are sorted,
    and the hash is computed once, from the values alone."""

    __slots__ = ("layout", "values", "_hash")

    def __new__(cls, bindings):
        named = dict(bindings)
        names = tuple(sorted(named))
        return positional(Layout(names), tuple(named[name] for name in names))

    @property
    def bindings(self) -> tuple:
        """The (name, value) pairs, sorted by name."""
        return tuple(zip(self.layout.names, self.values))

    def __reduce__(self):
        return State, (self.bindings,)

    def __getitem__(self, name: str) -> Value:
        return self.values[self.layout.slot[name]]

    def __contains__(self, name: str) -> bool:
        return name in self.layout.slot

    def __eq__(self, other):
        if other.__class__ is State:
            return self.layout is other.layout and self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"State(bindings={self.bindings!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def variables(self) -> tuple:
        return self.layout.names

    def as_dict(self) -> dict:
        return dict(zip(self.layout.names, self.values))


_set_layout, _set_values, _set_hash = (
    State.layout.__set__, State.values.__set__, State._hash.__set__)


def positional(layout: Layout, values: tuple) -> State:
    """The state with `values` in the slots of `layout`, a state's layout."""
    state = object.__new__(State)
    _set_layout(state, layout)
    _set_values(state, values)
    _set_hash(state, hash(values))
    return state


def state_key(s: State):
    """Canonical sort key over whole states (variable-name major)."""
    return tuple(zip(s.layout.names, map(canonical_key, s.values)))


def values_key(s: State):
    """A sort key over states of one layout, in `state_key` order."""
    return tuple(map(canonical_key, s.values))


# ---------------------------------------------------------------------------
# Expression trees


def _reader(names: tuple, variadic: bool) -> t.Callable:
    """`children()` for one layout, as direct attribute reads; a method
    that looked the names up on each call took about four times as long."""
    if not names:
        return lambda node: ()
    get = operator.attrgetter(*names)
    if variadic or len(names) > 1:
        return lambda node: get(node)
    return lambda node: (get(node),)


class ExprNode(Record):
    """Common base of the expression node classes.

    A class states its layout once: `scalars` names its leading data
    fields (value, variable or bound name); each later field holds a
    subexpression, or in a `variadic` class a tuple of them.  Walkers
    (`fold`) read and make nodes by it, through `children()` and
    `rebuild(children)`, and never name a node's fields.  Kinds of one
    layout inherit it from a base (`Binary`, `Binder`, `Items`), which
    is not itself a node kind: only the leaf classes are.

    `compiled` is the node's expression as a closure
    `(current, nxt, env) -> Value`, built on first evaluation and then
    kept on the node (see `eval_expr`).  It lives in the instance
    dictionary, outside the record fields, so it takes no part in
    equality, hashing or printing.  So does `set_view`, the node read
    as a set (see `SetView`), built on first use.
    """

    scalars = ()
    variadic = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.operands = tuple(name for name in cls._fields if name not in cls.scalars)
        cls.children = _reader(cls.operands, cls.variadic)

    def rebuild(self, children) -> "ExprNode":
        """A node of the same kind and scalars over `children`."""
        return self.build([getattr(self, name) for name in self.scalars], children)

    @classmethod
    def build(cls, scalars, children) -> "ExprNode":
        """A node of this kind from its scalars and its subexpressions."""
        return cls(*scalars, children) if cls.variadic else cls(*scalars, *children)

    @functools.cached_property
    def compiled(self) -> t.Callable:
        return _compile(self)

    @functools.cached_property
    def set_view(self) -> "SetView":
        return _build_set_view(self)


class Const(ExprNode):
    value: Value
    scalars = ("value",)


class Var(ExprNode):
    name: str
    scalars = ("name",)


class Primed(ExprNode):
    name: str
    scalars = ("name",)


class Not(ExprNode):
    operand: "Expr"


class Junction(ExprNode):
    """A /\\ or \\/ list of two or more `parts`, given as arguments.  A
    first part of the same kind is spliced in and a later one stays nested,
    so a node is one maximal left-nested binary chain and each binary tree
    has one n-ary form: `And(And(a, b), c) == conj(a, b, c)`."""

    parts: tuple
    variadic = True

    def __init__(self, *parts):
        if len(parts) < 2:
            raise TypeError(f"{type(self).__name__} takes at least 2 parts")
        if type(parts[0]) is type(self):
            parts = parts[0].parts + parts[1:]
        object.__setattr__(self, "parts", parts)

    @classmethod
    def build(cls, scalars, children) -> "Junction":
        return cls(*children)


class And(Junction):
    pass


def flat_parts(junction: Junction) -> list:
    """A junction's parts in order, each nested part of its own kind read
    as its parts: `a /\\ (b /\\ (c /\\ d))` gives a, b, c, d.  An explicit
    stack keeps any nesting depth away from Python's recursion limit."""
    kind = type(junction)
    out, stack = [], [junction]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            stack += node.parts[::-1]
        else:
            out.append(node)
    return out


class Or(Junction):
    pass


class Binary(ExprNode):
    """The layout of a binary operator: a left and a right operand."""

    left: "Expr"
    right: "Expr"


class Implies(Binary):
    pass


class Eq(Binary):
    pass


class Neq(Binary):
    pass


class Comparison(Binary):
    """An integer comparison, whose class states the test it makes: `holds`."""


class Lt(Comparison):
    holds = operator.lt


class Le(Comparison):
    holds = operator.le


class Gt(Comparison):
    holds = operator.gt


class Ge(Comparison):
    holds = operator.ge


# On integers `not a < b` is `a >= b`, and so on for the other negations.
class NotLt(Comparison):
    holds = operator.ge


class NotLe(Comparison):
    holds = operator.gt


class NotGt(Comparison):
    holds = operator.le


class NotGe(Comparison):
    holds = operator.lt


class Add(Binary):
    combine = operator.add


class Sub(Binary):
    combine = operator.sub


class In(ExprNode):
    element: "Expr"
    domain: "Expr"


class Items(ExprNode):
    """The layout of a literal: a tuple of item expressions."""

    items: tuple
    variadic = True

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))


class SetLit(Items):
    pass


class SeqLit(Items):
    pass


class IntRange(ExprNode):
    low: "Expr"
    high: "Expr"


class Binder(ExprNode):
    """The layout of a binder: a bound name, its domain and a body."""

    var: str
    domain: "Expr"
    body: "Expr"
    scalars = ("var",)


class Forall(Binder):
    pass


class Exists(Binder):
    pass


class Choose(Binder):
    pass


Expr = ExprNode  # any expression node


def intval(n: int) -> Const:
    return Const(n)


def boolval(b: bool) -> Const:
    return Const(BoolVal(b))


def conj(*parts: Expr) -> Expr:
    """The conjunction of one or more formulas: the only one, or their And."""
    return parts[0] if len(parts) == 1 else And(*parts)


def disj(*parts: Expr) -> Expr:
    return parts[0] if len(parts) == 1 else Or(*parts)


# ---------------------------------------------------------------------------
# Traversal: every walk over whole trees runs on `fold`, whose own stack
# keeps tree depth away from Python's recursion limit.


def not_an_expression(thing) -> TypeMismatch:
    """The error for a non-expression where a walker needs an expression."""
    return TypeMismatch(f"not an expression: {thing!r}")


def _subtrees(node) -> tuple:
    return node.children() if isinstance(node, ExprNode) else ()


def fold(root, combine: t.Callable, children: t.Callable = _subtrees):
    """Combine a tree bottom-up without recursion: `combine(node, results)`
    runs once per node, after its subtrees, on a new list of their results
    in order; returns the root's.  `children(node)` lists the subtrees; by
    default a non-expression has none and reaches `combine` as a leaf.
    """
    results: list = []
    stack = [root]
    done = object()  # marks the end of a node's subtrees on the stack
    waiting = []  # (node, number of subtrees) under each `done` mark
    while stack:
        node = stack.pop()
        if node is done:
            node, count = waiting.pop()
            args = results[-count:]
            del results[-count:]
            results.append(combine(node, args))
        elif subtrees := children(node):
            waiting.append((node, len(subtrees)))
            stack.append(done)
            stack += subtrees[::-1]
        else:
            results.append(combine(node, []))
    return results[0]


def names_read(expr, kind: type) -> frozenset:
    """The names of the `kind` nodes (Var or Primed) that `expr` reads; a
    name a binder in `expr` binds is not a state variable in its body."""
    def combine(node, inner) -> frozenset:
        if isinstance(node, kind):
            return frozenset((node.name,))
        if kind is Var and isinstance(node, Binder):
            return inner[0] | (inner[1] - {node.var})
        return frozenset().union(*inner)
    return fold(expr, combine)


# ---------------------------------------------------------------------------
# Specs and behaviors


class NamedAction(Record):
    name: str
    formula: Expr


# The invariant that states the variables' types, and with them the
# domains of the variables a formula leaves free.
TYPE_OK_NAME = "TypeOK"


class TemporalSpec(Record):
    name: str
    variables: tuple
    init: Expr
    actions: tuple
    invariants: tuple = ()
    params: tuple = ()

    def __init__(self, name, variables, init, actions, invariants=(), params=()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "actions", tuple(actions))
        if isinstance(invariants, dict):
            invariants = tuple(invariants.items())
        object.__setattr__(self, "invariants", tuple(invariants))
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        object.__setattr__(self, "params", tuple(params))

    def invariant_map(self) -> dict:
        return dict(self.invariants)

    @functools.cached_property
    def layout(self) -> Layout:
        """The layout of the spec's states."""
        return Layout(tuple(sorted(set(self.variables))))

    def param_map(self) -> dict:
        return dict(self.params)


class Behavior(Record):
    """A finite sequence of states (a prefix of an infinite behavior)."""

    states: tuple

    def __init__(self, states):
        object.__setattr__(self, "states", tuple(states))

    def __len__(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# Evaluation
#
# Each node compiles to a closure `(current, nxt, env) -> Value`, the
# closure code generation of Feeley and Lapalme ("Using closures for
# code generation", 1987).  A closure calls its operands' closures
# directly, one Python frame per tree level as in a recursive walker; a
# /\ or \/ list compiles to one loop over its parts.  Compiling itself
# never raises: every error comes from a closure, at the point of
# evaluation where it arises.  Nothing is folded ahead of time, for the
# same reason.

def _checked_int(n: int) -> int:
    if not INT64_MIN <= n <= INT64_MAX:
        msg = f"arithmetic result {n} outside signed 64-bit range"
        raise IntegerOverflow(msg)
    return n


def _operands(expr: ExprNode) -> list:
    """What to compile before `expr`: the expressions among its children
    that are not compiled yet; a junction's are its `flat_parts`."""
    children = flat_parts(expr) if isinstance(expr, Junction) else expr.children()
    return [op for op in children
            if isinstance(op, ExprNode) and "compiled" not in vars(op)]


def _compile_node(node: ExprNode, _) -> None:
    if "compiled" not in vars(node):
        vars(node)["compiled"] = _build(node)


def _compile(root: ExprNode) -> t.Callable:
    """Compile `root` and every operand not compiled yet, operands first."""
    fold(root, _compile_node, _operands)
    return vars(root)["compiled"]


def _closure(expr) -> t.Callable:
    if isinstance(expr, ExprNode):
        return expr.compiled
    return _failing(expr)


def _failing(expr) -> t.Callable:
    def fail(current, nxt, env):
        raise not_an_expression(expr)
    return fail


def _build(expr: ExprNode) -> t.Callable:
    """The closure of one node, whose operands are already compiled."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda current, nxt, env: value
    if isinstance(expr, (Var, Primed)):
        return _build_var(expr.name, isinstance(expr, Primed))
    if isinstance(expr, Not):
        operand = _closure(expr.operand)

        def negation(current, nxt, env):
            return FALSE if require_bool(operand(current, nxt, env)) else TRUE
        return negation
    if isinstance(expr, Junction):
        return _build_junction(expr)
    if isinstance(expr, Binary):
        return _build_binary(expr, _closure(expr.left), _closure(expr.right))
    if isinstance(expr, In):
        return _build_in(expr)
    if isinstance(expr, (SetLit, SeqLit)):
        items = tuple(_closure(item) for item in expr.items)
        container = SetVal if isinstance(expr, SetLit) else SeqVal

        def literal(current, nxt, env):
            return container(item(current, nxt, env) for item in items)
        return literal
    if isinstance(expr, IntRange):
        members = set_view(expr).members

        def int_range(current, nxt, env):
            return SetVal(members(current, nxt, env, "range"))
        return int_range
    if isinstance(expr, (Forall, Exists, Choose)):
        return _build_quantifier(expr)
    return _failing(expr)


def _build_var(name: str, primed: bool) -> t.Callable:
    """The closure of `name`, or of `name'`: the value in the name's slot
    of the state read.  The slot is looked up once per layout; the last
    layout and its slot are kept, so one node reads the states of two
    specs correctly."""
    cache = (None, None)

    def variable(current, nxt, env):
        nonlocal cache
        if primed:
            if nxt is None:
                raise PrimedInStateFormula(f"{name}' used in a state formula")
            current = nxt
        elif env is not None and name in env:
            return env[name]
        layout, at = cache
        if layout is not current.layout:
            layout = current.layout
            cache = layout, (at := layout.slot.get(name))
        if at is not None:
            return current.values[at]
        raise UnboundVariable(f"variable {name} is not bound")
    return variable


def _build_junction(expr: Junction) -> t.Callable:
    """One loop over a junction's `flat_parts`, left to right, stopping at
    the first part that decides it: a FALSE one for /\\, a TRUE one for \\/."""
    parts = tuple(_closure(part) for part in flat_parts(expr))
    stop = isinstance(expr, Or)
    decided, exhausted = (TRUE, FALSE) if stop else (FALSE, TRUE)

    def junction(current, nxt, env):
        for part in parts:
            if require_bool(part(current, nxt, env)) == stop:
                return decided
        return exhausted
    return junction


def _build_binary(expr: Binary, left: t.Callable, right: t.Callable) -> t.Callable:
    if isinstance(expr, Implies):
        def implication(current, nxt, env):
            if not require_bool(left(current, nxt, env)):
                return TRUE
            return TRUE if require_bool(right(current, nxt, env)) else FALSE
        return implication
    if isinstance(expr, Eq):
        def equal(current, nxt, env):
            same = left(current, nxt, env) == right(current, nxt, env)
            return TRUE if same else FALSE
        return equal
    if isinstance(expr, Neq):
        def unequal(current, nxt, env):
            differ = left(current, nxt, env) != right(current, nxt, env)
            return TRUE if differ else FALSE
        return unequal
    # An operand's type is tested in place; require_int only raises.
    if holds := getattr(expr, "holds", None):
        what = "comparison operand"

        def comparison(current, nxt, env):
            if type(a := left(current, nxt, env)) is not int:
                require_int(a, what)
            if type(b := right(current, nxt, env)) is not int:
                require_int(b, what)
            return TRUE if holds(a, b) else FALSE
        return comparison
    if combine := getattr(expr, "combine", None):
        def arithmetic(current, nxt, env):
            if type(a := left(current, nxt, env)) is not int:
                require_int(a)
            if type(b := right(current, nxt, env)) is not int:
                require_int(b)
            return _checked_int(combine(a, b))
        return arithmetic
    return _failing(expr)


def _build_in(expr: In) -> t.Callable:
    element, contains = _closure(expr.element), set_view(expr.domain).contains

    def membership(current, nxt, env):
        value = element(current, nxt, env)
        return TRUE if contains(value, current, nxt, env) else FALSE
    return membership


def _build_quantifier(expr: Binder) -> t.Callable:
    """One closure for all three binders; the domain is read through its
    set view and the body's closure is called directly, so a binder nests
    no deeper than one tree level."""
    var, body = expr.var, _closure(expr.body)
    domain = set_view(expr.domain).members
    choosing = isinstance(expr, Choose)
    # \A stops at the first member whose body is FALSE, and is then FALSE;
    # \E and CHOOSE stop at the first member whose body is TRUE.
    stop = not isinstance(expr, Forall)
    decided, exhausted = (TRUE, FALSE) if stop else (FALSE, TRUE)

    def quantifier(current, nxt, env):
        members = domain(current, nxt, env, "quantifier domain")
        inner = dict(env) if env else {}
        tried = []
        for member in members:
            inner[var] = member
            if require_bool(body(current, nxt, inner)) == stop:
                return member if choosing else decided
            if choosing:
                tried.append(member)
        if choosing:
            msg = (f"CHOOSE {var}: no element of {describe(SetVal(tried))} "
                   f"satisfies the body")
            raise EmptyChooseDomain(msg)
        return exhausted
    return quantifier


class SetView(Record):
    """A set expression read as a set, the one reader of set expressions:
    every `\\in`, quantifier domain, range value, explorer `v \\in S` and
    `\\E` witness and PBT argument domain reads its set here, so the bounds
    of `a..b`, their `range bound` errors and the order of evaluation are
    written once.  `set_view` compiles one per node; a range is never built.

    `members(current, nxt, env, what)` gives the members in canonical
    order as an indexable sequence (for `a..b`, the `range` itself), and
    raises TypeMismatch naming `what` when the value is not a set.
    `contains(value, current, nxt, env)` tells whether `value \\in expr`
    holds.  Both evaluate the range bounds, or the expression, as
    `eval_expr` would and raise its errors.
    """

    members: t.Callable
    contains: t.Callable


def set_view(expr) -> SetView:
    """The set view of `expr`, the one reader of a set expression, cached
    on the node (see `SetView`)."""
    return expr.set_view if isinstance(expr, ExprNode) else _build_set_view(expr)


def _build_set_view(expr) -> SetView:
    if isinstance(expr, IntRange):
        low, high = _closure(expr.low), _closure(expr.high)

        def range_members(current, nxt, env, what):
            lo = require_int(low(current, nxt, env), "range bound")
            hi = require_int(high(current, nxt, env), "range bound")
            return range(lo, hi + 1)

        def in_range(value, current, nxt, env) -> bool:
            # the bounds raise before the value's type is tested
            lo = require_int(low(current, nxt, env), "range bound")
            hi = require_int(high(current, nxt, env), "range bound")
            return type(value) is int and lo <= value <= hi
        return SetView(range_members, in_range)
    domain = _closure(expr)

    def members(current, nxt, env, what):
        return set_members(require_set(domain(current, nxt, env), what))

    def in_set(value, current, nxt, env) -> bool:
        return value in require_set(domain(current, nxt, env),
                                    "right side of \\in").elements
    return SetView(members, in_set)


def eval_expr(expr: Expr, current: State, nxt: State | None = None,
              env: dict | None = None) -> Value:
    """Evaluate a formula against a current state and optional next state.

    Pure: never mutates its arguments.  Bound variables (from quantifiers
    and CHOOSE) shadow state variables; primed variables read from `nxt`
    and raise PrimedInStateFormula when no next state was supplied.
    And/Or/Implies evaluate left to right and short-circuit.  The formula
    is compiled on its first evaluation (see above).
    """
    return _closure(expr)(current, nxt, env)


def eval_state_formula(expr: Expr, state: State, env: dict | None = None) -> bool:
    """Evaluate a boolean formula over a single state."""
    return require_bool(eval_expr(expr, state, None, env), "state formula")


def eval_action_formula(expr: Expr, current: State, nxt: State) -> bool:
    """Evaluate an action formula over a (current, next) state pair."""
    return require_bool(eval_expr(expr, current, nxt), "action formula")


def choose(var: str, domain: SetVal, body: Expr, current: State,
           nxt: State | None = None) -> Value:
    """Deterministic CHOOSE: the canonically smallest satisfying element."""
    return eval_expr(Choose(var, Const(domain), body), current, nxt)


# ---------------------------------------------------------------------------
# Well-formedness


class Diagnostic(Record):
    code: str
    construct: str
    message: str

    def __str__(self) -> str:
        return f"{self.construct}: {self.code}: {self.message}"


def _scan(expr: Expr, declared: frozenset, construct: str,
          allow_primed: bool) -> list:
    """The diagnostics of one formula, in tree order.

    A subtree's result is its findings, (name, code, message) triples,
    where a binder of `name` clears the finding; None is never bound.
    """
    def check(node, results) -> tuple:
        if isinstance(node, Var):
            if node.name in declared:
                return ()
            return ((node.name, "unbound-variable", f"{node.name} is not declared"),)
        if isinstance(node, Primed):
            if not allow_primed:
                return ((None, "primed-in-state-formula",
                         f"{node.name}' is not allowed here"),)
            if node.name in declared:
                return ()
            return ((None, "unbound-variable", f"{node.name}' is not declared"),)
        if not any(results):
            if isinstance(node, ExprNode):
                return ()
            raise not_an_expression(node)
        if isinstance(node, Binder):
            domain, body = results
            return domain + tuple(found for found in body if found[0] != node.var)
        return sum(results, ())

    return [Diagnostic(code, construct, message)
            for _, code, message in fold(expr, check)]


def well_formed(spec: TemporalSpec) -> list:
    """Check a spec and return a list of Diagnostics (empty when clean).

    Init and invariants must be state formulas over declared variables;
    action formulas may prime declared variables only.
    """
    out: list = []
    declared = frozenset(spec.variables)
    seen = set()
    for name in spec.variables:
        if name in seen:
            out.append(Diagnostic("duplicate-variable", "variables",
                                  f"{name} declared twice"))
        seen.add(name)
    out += _scan(spec.init, declared, "init", False)
    for action in spec.actions:
        out += _scan(action.formula, declared, f"action {action.name}", True)
    for inv_name, formula in spec.invariants:
        out += _scan(formula, declared, f"invariant {inv_name}", False)
    return out
