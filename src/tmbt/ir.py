"""Canonical JSON form of a TemporalSpec.

The layout is documented by the bundled JSON Schema (spec_ir.schema.json).
Serialization sorts object keys so output is bit-stable and suitable for
golden-file comparison.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from . import spec as sp
from .errors import TypeMismatch
from .values import value_from_json, value_to_json

SCHEMA_RESOURCE = "spec_ir.schema.json"

# One op per node class.  A node is {"op": op, its scalars by field name
# (`value` in its wire form), "args": [subexpressions], if it has any}.
OPS = {
    sp.Const: "const", sp.Var: "var", sp.Primed: "primed", sp.Not: "not",
    sp.And: "and", sp.Or: "or", sp.Implies: "implies",
    sp.Eq: "eq", sp.Neq: "neq",
    sp.Lt: "lt", sp.Le: "le", sp.Gt: "gt", sp.Ge: "ge",
    sp.NotLt: "not_lt", sp.NotLe: "not_le", sp.NotGt: "not_gt", sp.NotGe: "not_ge",
    sp.Add: "add", sp.Sub: "sub",
    sp.In: "in", sp.SetLit: "set", sp.SeqLit: "seq", sp.IntRange: "range",
    sp.Forall: "forall", sp.Exists: "exists", sp.Choose: "choose",
}
_CLASSES = {op: cls for cls, op in OPS.items()}


def _encode(expr, args: list) -> dict:
    op = OPS.get(type(expr))
    if op is None:
        raise sp.not_an_expression(expr)
    if isinstance(expr, sp.Junction):  # as the IR's binary left chain
        return functools.reduce(
            lambda left, right: {"op": op, "args": [left, right]}, args)
    data = {"op": op}
    for name in expr.scalars:
        scalar = getattr(expr, name)
        data[name] = value_to_json(scalar) if name == "value" else scalar
    if expr.operands:
        data["args"] = args
    return data


def expr_to_json(expr) -> dict:
    return sp.fold(expr, _encode)


def _args(data) -> list:
    if not isinstance(data, dict) or "op" not in data:
        msg = f"malformed expression node: {data!r}"
        raise TypeMismatch(msg)
    op, rights = data["op"], []
    # a left chain of "and" (or of "or") is one list, read bottom-up
    while (op in (OPS[sp.And], OPS[sp.Or]) and isinstance(data, dict)
           and data.get("op") == op and len(data.get("args", [])) == 2):
        data, right = data["args"]
        rights.append(right)
    return [data, *reversed(rights)] if rights else data.get("args", [])


def _decode(data: dict, args: list):
    op = data["op"]
    cls = _CLASSES.get(op)
    if cls is None:
        msg = f"unknown expression op {op!r}"
        raise TypeMismatch(msg)
    given = len(data.get("args", []))  # a junction's own, not its chain's
    wanted = 2 if issubclass(cls, sp.Junction) else len(cls.operands)
    if given != wanted and cls not in (sp.SetLit, sp.SeqLit):
        msg = f"op {op!r} takes {wanted} args, got {given}"
        raise TypeMismatch(msg)
    scalars = [value_from_json(data[name]) if name == "value" else data[name]
               for name in cls.scalars]
    return cls.build(scalars, args)


def expr_from_json(data: dict):
    return sp.fold(data, _decode, _args)


def spec_to_json(spec: sp.TemporalSpec) -> dict:
    return {
        "name": spec.name,
        "variables": list(spec.variables),
        "params": {k: v for k, v in spec.params},
        "init": expr_to_json(spec.init),
        "actions": [{"name": a.name, "formula": expr_to_json(a.formula)}
                    for a in spec.actions],
        "invariants": [{"name": n, "formula": expr_to_json(f)}
                       for n, f in spec.invariants],
    }


def spec_from_json(data: dict) -> sp.TemporalSpec:
    return sp.TemporalSpec(
        name=data["name"],
        variables=data["variables"],
        init=expr_from_json(data["init"]),
        actions=[sp.NamedAction(a["name"], expr_from_json(a["formula"]))
                 for a in data["actions"]],
        invariants=[(i["name"], expr_from_json(i["formula"]))
                    for i in data.get("invariants", [])],
        params=data.get("params", {}),
    )


def dumps(data) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ": "))


def spec_to_text(spec: sp.TemporalSpec) -> str:
    return dumps(spec_to_json(spec)) + "\n"


def spec_from_text(text: str) -> sp.TemporalSpec:
    return spec_from_json(json.loads(text))


def schema() -> dict:
    """The bundled JSON Schema describing the spec IR document."""
    raw = resources.files(__package__).joinpath(SCHEMA_RESOURCE).read_text()
    return json.loads(raw)
