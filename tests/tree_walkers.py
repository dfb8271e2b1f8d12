"""The recursive tree walkers, kept as references for the generic traversal.

These are the walkers `tmbt` shipped before every whole-tree walk ran on
`tmbt.spec.fold`, unchanged apart from their imports: the compiler's
operand walk (`_operands`, `_junction_parts`), the well-formedness scan
(`_scan`, `well_formed`), definition expansion and the Next spine of the
parser (`_expand`, `_spine`), the IR codec (`expr_to_json`,
`expr_from_json`) and the TLA printer (`_print`, `print_expression`).
Each recurses once per tree level.  The differential tests in
test_traversal.py hold the new walkers to their results and to their
"not an expression" errors.  The kind tuples `COMPARISONS` and
`QUANTIFIERS` are stated here, not read from the code under test.

They were written for binary junctions, and read an n-ary And or Or
through `binary`, the binary node its left-nested chain ends in; the
compiler's operands of a junction are its `parts`, each nested part of
the same kind read as its own operands (`_flat`).
"""

from __future__ import annotations

import typing as t

import tmbt.spec as sp
from tmbt.errors import TypeMismatch
from tmbt.spec import (
    Add,
    And,
    Const,
    Diagnostic,
    Eq,
    Expr,
    ExprNode,
    Implies,
    In,
    IntRange,
    Neq,
    Not,
    Or,
    Primed,
    SeqLit,
    SetLit,
    Sub,
    TemporalSpec,
    Var,
)
from tmbt.tla.parser import Ref
from tmbt.values import (
    BOOLEANS,
    BoolVal,
    SeqVal,
    SetVal,
    value_from_json,
    value_to_json,
)

COMPARISONS = (sp.Lt, sp.Le, sp.Gt, sp.Ge,
               sp.NotLt, sp.NotLe, sp.NotGt, sp.NotGe)
QUANTIFIERS = (sp.Forall, sp.Exists, sp.Choose)
_BINARY = (Implies, Eq, Neq, Add, Sub) + COMPARISONS


def binary(expr: And | Or) -> tuple:
    """A junction as the top node of its left-nested binary chain: (the
    chain below, as one junction or its first part; its last part)."""
    *below, last = expr.parts
    return (below[0] if len(below) == 1 else type(expr)(*below)), last


def _sides(expr) -> tuple:
    """The two operands of a binary node, a junction read by `binary`."""
    return binary(expr) if isinstance(expr, (And, Or)) else (expr.left, expr.right)


def _flat(junction) -> list:
    return [leaf for part in junction.parts for leaf in (
        _flat(part) if type(part) is type(junction) else (part,))]


def _operands(expr: ExprNode) -> t.Sequence:
    """The subexpressions to compile before `expr`: its operands, or the
    parts of a junction read through nested parts of its kind."""
    if isinstance(expr, (And, Or)):
        return _flat(expr)
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, (SetLit, SeqLit)):
        return expr.items
    if isinstance(expr, In):
        return (expr.element, expr.domain)
    if isinstance(expr, IntRange):
        return (expr.low, expr.high)
    if isinstance(expr, QUANTIFIERS):
        return (expr.domain, expr.body)
    if isinstance(expr, _BINARY):
        return (expr.left, expr.right)
    return ()


def _scan(expr: Expr, declared: frozenset, bound: frozenset,
          construct: str, allow_primed: bool, out: list) -> None:
    if isinstance(expr, Const):
        return
    if isinstance(expr, Var):
        if expr.name not in bound and expr.name not in declared:
            out.append(Diagnostic("unbound-variable", construct,
                                  f"{expr.name} is not declared"))
        return
    if isinstance(expr, Primed):
        if not allow_primed:
            out.append(Diagnostic("primed-in-state-formula", construct,
                                  f"{expr.name}' is not allowed here"))
        elif expr.name not in declared:
            out.append(Diagnostic("unbound-variable", construct,
                                  f"{expr.name}' is not declared"))
        return
    if isinstance(expr, Not):
        _scan(expr.operand, declared, bound, construct, allow_primed, out)
        return
    if isinstance(expr, QUANTIFIERS):
        _scan(expr.domain, declared, bound, construct, allow_primed, out)
        _scan(expr.body, declared, bound | {expr.var}, construct, allow_primed, out)
        return
    if isinstance(expr, (SetLit, SeqLit)):
        for item in expr.items:
            _scan(item, declared, bound, construct, allow_primed, out)
        return
    if isinstance(expr, IntRange):
        _scan(expr.low, declared, bound, construct, allow_primed, out)
        _scan(expr.high, declared, bound, construct, allow_primed, out)
        return
    if isinstance(expr, In):
        _scan(expr.element, declared, bound, construct, allow_primed, out)
        _scan(expr.domain, declared, bound, construct, allow_primed, out)
        return
    # remaining nodes are binary left/right
    left, right = _sides(expr)
    _scan(left, declared, bound, construct, allow_primed, out)
    _scan(right, declared, bound, construct, allow_primed, out)


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
    _scan(spec.init, declared, frozenset(), "init", False, out)
    for action in spec.actions:
        _scan(action.formula, declared, frozenset(),
              f"action {action.name}", True, out)
    for inv_name, formula in spec.invariants:
        _scan(formula, declared, frozenset(),
              f"invariant {inv_name}", False, out)
    return out


def _expand(expr, raw: dict, memo: dict):
    if isinstance(expr, Ref):
        if expr.name not in memo:
            memo[expr.name] = _expand(raw[expr.name], raw, memo)
        return memo[expr.name]
    if isinstance(expr, (sp.Const, sp.Var, sp.Primed)):
        return expr
    if isinstance(expr, sp.Not):
        return sp.Not(_expand(expr.operand, raw, memo))
    if isinstance(expr, (sp.SetLit, sp.SeqLit)):
        items = tuple(_expand(item, raw, memo) for item in expr.items)
        return type(expr)(items)
    if isinstance(expr, sp.IntRange):
        return sp.IntRange(_expand(expr.low, raw, memo),
                           _expand(expr.high, raw, memo))
    if isinstance(expr, sp.In):
        return sp.In(_expand(expr.element, raw, memo),
                     _expand(expr.domain, raw, memo))
    if isinstance(expr, QUANTIFIERS):
        return type(expr)(expr.var,
                          _expand(expr.domain, raw, memo),
                          _expand(expr.body, raw, memo))
    left, right = _sides(expr)
    return type(expr)(_expand(left, raw, memo), _expand(right, raw, memo))


def _spine(expr) -> list:
    """Disjuncts of the top-level \\/ structure, left to right."""
    if isinstance(expr, sp.Or):
        left, right = binary(expr)
        return _spine(left) + _spine(right)
    return [expr]


_BINARY_OPS = {
    sp.And: "and", sp.Or: "or", sp.Implies: "implies",
    sp.Eq: "eq", sp.Neq: "neq",
    sp.Lt: "lt", sp.Le: "le", sp.Gt: "gt", sp.Ge: "ge",
    sp.NotLt: "not_lt", sp.NotLe: "not_le",
    sp.NotGt: "not_gt", sp.NotGe: "not_ge",
    sp.Add: "add", sp.Sub: "sub",
}
_BINARY_TYPES = {name: cls for cls, name in _BINARY_OPS.items()}
_QUANTIFIER_OPS = {sp.Forall: "forall", sp.Exists: "exists", sp.Choose: "choose"}
_QUANTIFIER_TYPES = {name: cls for cls, name in _QUANTIFIER_OPS.items()}


def expr_to_json(expr) -> dict:
    if isinstance(expr, sp.Const):
        return {"op": "const", "value": value_to_json(expr.value)}
    if isinstance(expr, sp.Var):
        return {"op": "var", "name": expr.name}
    if isinstance(expr, sp.Primed):
        return {"op": "primed", "name": expr.name}
    if isinstance(expr, sp.Not):
        return {"op": "not", "args": [expr_to_json(expr.operand)]}
    if isinstance(expr, sp.In):
        return {"op": "in", "args": [expr_to_json(expr.element),
                                     expr_to_json(expr.domain)]}
    if isinstance(expr, sp.SetLit):
        return {"op": "set", "args": [expr_to_json(i) for i in expr.items]}
    if isinstance(expr, sp.SeqLit):
        return {"op": "seq", "args": [expr_to_json(i) for i in expr.items]}
    if isinstance(expr, sp.IntRange):
        return {"op": "range", "args": [expr_to_json(expr.low),
                                        expr_to_json(expr.high)]}
    if isinstance(expr, QUANTIFIERS):
        return {
            "op": _QUANTIFIER_OPS[type(expr)],
            "var": expr.var,
            "args": [expr_to_json(expr.domain), expr_to_json(expr.body)],
        }
    op = _BINARY_OPS.get(type(expr))
    if op is None:
        msg = f"not an expression: {expr!r}"
        raise TypeMismatch(msg)
    left, right = _sides(expr)
    return {"op": op, "args": [expr_to_json(left), expr_to_json(right)]}


def expr_from_json(data: dict):
    if not isinstance(data, dict) or "op" not in data:
        msg = f"malformed expression node: {data!r}"
        raise TypeMismatch(msg)
    op = data["op"]
    if op == "const":
        return sp.Const(value_from_json(data["value"]))
    if op == "var":
        return sp.Var(data["name"])
    if op == "primed":
        return sp.Primed(data["name"])
    args = [expr_from_json(a) for a in data.get("args", [])]
    if op == "not":
        return sp.Not(args[0])
    if op == "in":
        return sp.In(args[0], args[1])
    if op == "set":
        return sp.SetLit(args)
    if op == "seq":
        return sp.SeqLit(args)
    if op == "range":
        return sp.IntRange(args[0], args[1])
    if op in _QUANTIFIER_TYPES:
        return _QUANTIFIER_TYPES[op](data["var"], args[0], args[1])
    if op in _BINARY_TYPES:
        return _BINARY_TYPES[op](args[0], args[1])
    msg = f"unknown expression op {op!r}"
    raise TypeMismatch(msg)


# ---------------------------------------------------------------------------
# The TLA printer



# Binding strength as the printer sees it.  Comparisons and quantified
# forms share the loosest level so they are parenthesized under every
# connective; that is safe for parsing (they bind tighter) and matches
# the conventional way these formulas are written.
_LOOSE, _OR, _AND, _NOT, _RANGE, _ADD, _ATOM = range(7)

_COMPARISON_LEXEMES = {
    sp.Eq: "=",
    sp.Neq: "#",
    sp.Lt: "<",
    sp.Le: "<=",
    sp.Gt: ">",
    sp.Ge: ">=",
    sp.NotLt: "\\nless",
    sp.NotLe: "\\nleq",
    sp.NotGt: "\\ngtr",
    sp.NotGe: "\\ngeq",
}

_QUANTIFIER_LEXEMES = {sp.Forall: "\\A", sp.Exists: "\\E", sp.Choose: "CHOOSE"}


def _value_text(v) -> str:
    if type(v) is int:
        return str(v)
    if isinstance(v, BoolVal):
        return "TRUE" if v.value else "FALSE"
    if v == BOOLEANS:
        return "BOOLEAN"
    if isinstance(v, (SetVal, SeqVal)):
        msg = "only BOOLEAN has a literal form among container constants"
        raise TypeMismatch(msg)
    msg = f"not a value: {v!r}"
    raise TypeMismatch(msg)


def _wrap(text: str, level: int, context: int) -> str:
    return f"({text})" if level < context else text


def _print(expr, context: int) -> str:
    if isinstance(expr, sp.Const):
        return _value_text(expr.value)
    if isinstance(expr, sp.Var):
        return expr.name
    if isinstance(expr, sp.Primed):
        return expr.name + "'"
    if isinstance(expr, sp.Implies):
        text = f"{_print(expr.left, _OR)} => {_print(expr.right, _LOOSE)}"
        return _wrap(text, _LOOSE, context)
    if isinstance(expr, sp.Or):
        left, right = binary(expr)
        text = f"{_print(left, _OR)} \\/ {_print(right, _AND)}"
        return _wrap(text, _OR, context)
    if isinstance(expr, sp.And):
        left, right = binary(expr)
        text = f"{_print(left, _AND)} /\\ {_print(right, _NOT)}"
        return _wrap(text, _AND, context)
    if isinstance(expr, sp.Not):
        return _wrap("~" + _print(expr.operand, _ATOM), _NOT, context)
    if isinstance(expr, sp.In):
        text = f"{_print(expr.element, _RANGE)} \\in {_print(expr.domain, _RANGE)}"
        return _wrap(text, _LOOSE, context)
    if isinstance(expr, tuple(_COMPARISON_LEXEMES)):
        lexeme = _COMPARISON_LEXEMES[type(expr)]
        text = f"{_print(expr.left, _RANGE)} {lexeme} {_print(expr.right, _RANGE)}"
        return _wrap(text, _LOOSE, context)
    if isinstance(expr, sp.IntRange):
        text = f"{_print(expr.low, _ADD)}..{_print(expr.high, _ADD)}"
        return _wrap(text, _RANGE, context)
    if isinstance(expr, (sp.Add, sp.Sub)):
        lexeme = "+" if isinstance(expr, sp.Add) else "-"
        text = f"{_print(expr.left, _ADD)} {lexeme} {_print(expr.right, _ATOM)}"
        return _wrap(text, _ADD, context)
    if isinstance(expr, QUANTIFIERS):
        lexeme = _QUANTIFIER_LEXEMES[type(expr)]
        text = (f"{lexeme} {expr.var} \\in {_print(expr.domain, _RANGE)} : "
                f"{_print(expr.body, _LOOSE)}")
        return _wrap(text, _LOOSE, context)
    if isinstance(expr, sp.SetLit):
        return "{" + ", ".join(_print(i, _LOOSE) for i in expr.items) + "}"
    if isinstance(expr, sp.SeqLit):
        return "<<" + ", ".join(_print(i, _LOOSE) for i in expr.items) + ">>"
    msg = f"not an expression: {expr!r}"
    raise TypeMismatch(msg)


def print_expression(expr) -> str:
    return _print(expr, _LOOSE)
