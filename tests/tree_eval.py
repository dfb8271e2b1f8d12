"""The tree-walking evaluator, kept as the reference for the compiled one.

This is the evaluator `tmbt.spec` shipped before formulas were compiled
to closures, unchanged: it recurses over the expression tree on every
call and materializes each integer range as a set.  It reads an n-ary
junction through `tree_walkers.binary`, as the binary node it was.  The differential
test in test_compiled_eval.py holds the compiled evaluator to its values
and to its error types and messages.
"""

from __future__ import annotations

from tree_walkers import COMPARISONS, QUANTIFIERS, binary

from tmbt.errors import (
    EmptyChooseDomain,
    IntegerOverflow,
    PrimedInStateFormula,
    TypeMismatch,
    UnboundVariable,
)
from tmbt.spec import (
    Add,
    And,
    Const,
    Eq,
    Exists,
    Expr,
    Forall,
    Ge,
    Gt,
    Implies,
    In,
    IntRange,
    Le,
    Lt,
    Neq,
    Not,
    NotGt,
    NotLe,
    NotLt,
    Or,
    Primed,
    SeqLit,
    SetLit,
    State,
    Sub,
    Var,
)
from tmbt.values import (
    INT64_MAX,
    INT64_MIN,
    BoolVal,
    SeqVal,
    SetVal,
    Value,
    describe,
    require_bool,
    require_int,
    require_set,
    set_members,
)


def _checked_int(n: int) -> int:
    if not INT64_MIN <= n <= INT64_MAX:
        msg = f"arithmetic result {n} outside signed 64-bit range"
        raise IntegerOverflow(msg)
    return n


def eval_expr(expr: Expr, current: State, nxt: State | None = None,
              env: dict | None = None) -> Value:
    """Evaluate a formula against a current state and optional next state.

    Pure: never mutates its arguments.  Bound variables (from quantifiers
    and CHOOSE) shadow state variables; primed variables read from `nxt`
    and raise PrimedInStateFormula when no next state was supplied.
    And/Or/Implies evaluate left to right and short-circuit.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if env is not None and expr.name in env:
            return env[expr.name]
        if expr.name in current:
            return current[expr.name]
        msg = f"variable {expr.name} is not bound"
        raise UnboundVariable(msg)
    if isinstance(expr, Primed):
        if nxt is None:
            msg = f"{expr.name}' used in a state formula"
            raise PrimedInStateFormula(msg)
        if expr.name in nxt:
            return nxt[expr.name]
        msg = f"variable {expr.name} is not bound"
        raise UnboundVariable(msg)
    if isinstance(expr, Not):
        return BoolVal(not require_bool(eval_expr(expr.operand, current, nxt, env)))
    if isinstance(expr, And):
        left, right = binary(expr)
        if not require_bool(eval_expr(left, current, nxt, env)):
            return BoolVal(False)
        return BoolVal(require_bool(eval_expr(right, current, nxt, env)))
    if isinstance(expr, Or):
        left, right = binary(expr)
        if require_bool(eval_expr(left, current, nxt, env)):
            return BoolVal(True)
        return BoolVal(require_bool(eval_expr(right, current, nxt, env)))
    if isinstance(expr, Implies):
        if not require_bool(eval_expr(expr.left, current, nxt, env)):
            return BoolVal(True)
        return BoolVal(require_bool(eval_expr(expr.right, current, nxt, env)))
    if isinstance(expr, Eq):
        return BoolVal(eval_expr(expr.left, current, nxt, env)
                       == eval_expr(expr.right, current, nxt, env))
    if isinstance(expr, Neq):
        return BoolVal(eval_expr(expr.left, current, nxt, env)
                       != eval_expr(expr.right, current, nxt, env))
    if isinstance(expr, COMPARISONS):
        a = require_int(eval_expr(expr.left, current, nxt, env), "comparison operand")
        b = require_int(eval_expr(expr.right, current, nxt, env), "comparison operand")
        if isinstance(expr, Lt):
            return BoolVal(a < b)
        if isinstance(expr, Le):
            return BoolVal(a <= b)
        if isinstance(expr, Gt):
            return BoolVal(a > b)
        if isinstance(expr, Ge):
            return BoolVal(a >= b)
        if isinstance(expr, NotLt):
            return BoolVal(not a < b)
        if isinstance(expr, NotLe):
            return BoolVal(not a <= b)
        if isinstance(expr, NotGt):
            return BoolVal(not a > b)
        return BoolVal(not a >= b)
    if isinstance(expr, Add):
        a = require_int(eval_expr(expr.left, current, nxt, env))
        b = require_int(eval_expr(expr.right, current, nxt, env))
        return _checked_int(a + b)
    if isinstance(expr, Sub):
        a = require_int(eval_expr(expr.left, current, nxt, env))
        b = require_int(eval_expr(expr.right, current, nxt, env))
        return _checked_int(a - b)
    if isinstance(expr, In):
        element = eval_expr(expr.element, current, nxt, env)
        domain = require_set(eval_expr(expr.domain, current, nxt, env),
                             "right side of \\in")
        return BoolVal(element in domain.elements)
    if isinstance(expr, SetLit):
        return SetVal(eval_expr(item, current, nxt, env) for item in expr.items)
    if isinstance(expr, SeqLit):
        return SeqVal(eval_expr(item, current, nxt, env) for item in expr.items)
    if isinstance(expr, IntRange):
        low = require_int(eval_expr(expr.low, current, nxt, env), "range bound")
        high = require_int(eval_expr(expr.high, current, nxt, env), "range bound")
        return SetVal(range(low, high + 1))
    if isinstance(expr, QUANTIFIERS):
        domain = require_set(eval_expr(expr.domain, current, nxt, env),
                             "quantifier domain")
        members = set_members(domain)
        inner = dict(env) if env else {}
        if isinstance(expr, Forall):
            for member in members:
                inner[expr.var] = member
                if not require_bool(eval_expr(expr.body, current, nxt, inner)):
                    return BoolVal(False)
            return BoolVal(True)
        if isinstance(expr, Exists):
            for member in members:
                inner[expr.var] = member
                if require_bool(eval_expr(expr.body, current, nxt, inner)):
                    return BoolVal(True)
            return BoolVal(False)
        for member in members:
            inner[expr.var] = member
            if require_bool(eval_expr(expr.body, current, nxt, inner)):
                return member
        msg = f"CHOOSE {expr.var}: no element of {describe(domain)} satisfies the body"
        raise EmptyChooseDomain(msg)
    msg = f"not an expression: {expr!r}"
    raise TypeMismatch(msg)
