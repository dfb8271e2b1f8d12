"""Render spec-core expressions and specs back to the ASCII TLA+ subset.

The contract is parse(pretty_print(x)) == x, structurally, for trees
whose names and integers are the subset's: ASCII identifiers, and
integers within signed 64-bit, the range arithmetic keeps.  Printing
is one `spec.fold` over the tree: each node's step gets its parts as
(text, binding strength) pairs and parenthesizes a part whose strength
is below the place it occupies, so tree depth never reaches Python's
recursion limit.  Comparisons are printed parenthesized under the
logical connectives, so a disjunction of equations comes out as
"(b = 0) \\/ (b = 1)".
"""

from __future__ import annotations

from .. import spec as sp
from ..errors import TypeMismatch
from ..values import BoolVal, SeqVal, SetVal
from .lexemes import CONSTANTS, QUANTIFIERS, RELATIONS

# Binding strength as the printer sees it.  Comparisons and quantified
# forms share the loosest level so they are parenthesized under every
# connective; that is safe for parsing (they bind tighter) and matches
# the conventional way these formulas are written.
_LOOSE, _OR, _AND, _NOT, _RANGE, _ADD, _ATOM = range(7)

_CONSTANT_TEXTS = {value: text for text, value in CONSTANTS.items()}


def _value_text(v) -> str:
    if type(v) is int:
        return str(v)
    if isinstance(v, (BoolVal, SetVal, SeqVal)):
        if v in _CONSTANT_TEXTS:
            return _CONSTANT_TEXTS[v]
        msg = "only BOOLEAN has a literal form among container constants"
        raise TypeMismatch(msg)
    msg = f"not a value: {v!r}"
    raise TypeMismatch(msg)


def _wrap(part: tuple, context: int) -> str:
    """A printed part's text, parenthesized when it binds looser than the
    place it occupies."""
    text, level = part
    return f"({text})" if level < context else text


def _infix(lexeme: str, level: int, left: int, right: int):
    """The step of a binary operator or a junction list whose first
    operand sits at strength `left` and every later one at `right`."""
    def step(node, parts) -> tuple:
        rest = [_wrap(part, right) for part in parts[1:]]
        return lexeme.join([_wrap(parts[0], left), *rest]), level
    return step


def _quantifier(lexeme: str):
    def step(node, parts) -> tuple:
        domain, body = parts
        return (f"{lexeme} {node.var} \\in {_wrap(domain, _RANGE)} : "
                f"{_wrap(body, _LOOSE)}", _LOOSE)
    return step


def _items(opening: str, closing: str):
    # an item sits at the loosest place, so it is never parenthesized
    def step(node, parts) -> tuple:
        return opening + ", ".join(text for text, _ in parts) + closing, _ATOM
    return step


# One step per node class: (node, its parts' (text, strength) pairs) ->
# the node's (text, strength).
_STEPS = {
    sp.Const: lambda node, parts: (_value_text(node.value), _ATOM),
    sp.Var: lambda node, parts: (node.name, _ATOM),
    sp.Primed: lambda node, parts: (node.name + "'", _ATOM),
    sp.Implies: _infix(" => ", _LOOSE, _OR, _LOOSE),
    sp.Or: _infix(" \\/ ", _OR, _OR, _AND),
    sp.And: _infix(" /\\ ", _AND, _AND, _NOT),
    sp.Not: lambda node, parts: ("~" + _wrap(parts[0], _ATOM), _NOT),
    sp.IntRange: _infix("..", _RANGE, _ADD, _ADD),
    sp.Add: _infix(" + ", _ADD, _ADD, _ATOM),
    sp.Sub: _infix(" - ", _ADD, _ADD, _ATOM),
    sp.SetLit: _items("{", "}"),
    sp.SeqLit: _items("<<", ">>"),
}
_STEPS.update((kind, _infix(f" {lexeme} ", _LOOSE, _RANGE, _RANGE))
              for kind, lexeme in RELATIONS.items())
_STEPS.update((kind, _quantifier(lexeme)) for kind, lexeme in QUANTIFIERS.items())


def _print_node(node, parts: list) -> tuple:
    step = _STEPS.get(type(node))
    if step is None:
        raise sp.not_an_expression(node)
    return step(node, parts)


def print_expression(expr) -> str:
    return sp.fold(expr, _print_node)[0]


def print_spec(spec: sp.TemporalSpec) -> str:
    """Render a whole spec as a module.

    Actions become their own definitions and Next a bulleted disjunction
    of their names, so to_spec on the reparse recovers the same action
    list.  Integer params have no textual form in the subset and are
    not emitted.
    """
    if not spec.actions:
        msg = "a printable spec needs at least one action"
        raise TypeMismatch(msg)
    lines = []
    if spec.variables:
        lines.append("VARIABLES " + ", ".join(spec.variables))
    for name, formula in spec.invariants:
        lines.append(f"{name} == {print_expression(formula)}")
    lines.append(f"Init == {print_expression(spec.init)}")
    for action in spec.actions:
        lines.append(f"{action.name} == {print_expression(action.formula)}")
    prefix = "Next == "
    bullets = [f"\\/ {action.name}" for action in spec.actions]
    lines.append(prefix + bullets[0])
    lines.extend(" " * len(prefix) + b for b in bullets[1:])
    return "\n".join(lines) + "\n"


def pretty_print(x) -> str:
    """Text form of an expression or a whole TemporalSpec."""
    if isinstance(x, sp.TemporalSpec):
        return print_spec(x)
    return print_expression(x)
