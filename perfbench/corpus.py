"""Seeded TLA-subset modules with their expected canonical IR.

Each module is drawn from a small expression grammar and rendered twice
from the same tree: once as source text in the layout-sensitive subset
(bulleted junction lists, one definition per action, `Next` as a
bulleted disjunction of action names) and once as the canonical IR
document the translator must produce for it.  The IR side is written
from the documented IR layout (sorted keys, junction lists nested to the
left, definitions expanded in place), not from tmbt's encoder.

Module size is set by the length of one drawn junction list, which is
the module's longest from a few dozen items up.  Lengths are drawn
log-uniformly in STRATA slices of log space, PER_STRATUM modules per
slice, so every pass over the corpus has the same mix of sizes whatever
the seed.  The last slice runs from DEEP_JUNCTION to MAX_JUNCTION, the
lengths at which the round trip is known to hit the recursion limit;
the others split 2 to DEEP_JUNCTION equally.
"""

from __future__ import annotations

import json
import math
import random

MIN_JUNCTION = 2
MAX_JUNCTION = 1000
# Junction lists at least this long may fail with RecursionError; shorter
# ones must round-trip.
DEEP_JUNCTION = 400
STRATA = 8
# Three modules per slice, each from its own third of the slice, keep the
# cost of a pass from hinging on the largest module drawn for it.
PER_STRATUM = 3

# Expression trees are tuples:
#   ("int", n) ("bool", b) ("boolean",) ("var", name) ("primed", name)
#   ("not", e) ("add"|"sub", a, b) ("range", lo, hi)
#   ("eq"|"neq"|"lt"|"le"|"gt"|"ge"|"in", a, b)
#   ("list", "and"|"or", [items])   a bulleted junction list
#   ("ref", name)                   a use of an earlier definition

_CMP_TEXT = {"eq": "=", "neq": "#", "lt": "<", "le": "<=", "gt": ">",
             "ge": ">=", "in": "\\in"}


def _atom_text(e) -> str:
    kind = e[0]
    if kind == "int":
        return str(e[1])
    if kind == "bool":
        return "TRUE" if e[1] else "FALSE"
    if kind == "boolean":
        return "BOOLEAN"
    if kind in ("var", "ref"):
        return e[1]
    if kind == "primed":
        return e[1] + "'"
    if kind == "not":
        return "(~" + _atom_text(e[1]) + ")"
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{_atom_text(e[1])} {op} {_atom_text(e[2])}"
    if kind == "range":
        return f"{_atom_text(e[1])}..{_atom_text(e[2])}"
    if kind in _CMP_TEXT:
        return f"{_atom_text(e[1])} {_CMP_TEXT[kind]} {_atom_text(e[2])}"
    raise ValueError(f"no inline form for {kind}")


def render(e, col: int) -> list:
    """Source lines for `e`, whose first line starts at column `col`."""
    if e[0] != "list":
        return [_atom_text(e)]
    bullet = "/\\ " if e[1] == "and" else "\\/ "
    lines = []
    for item in e[2]:
        body = render(item, col + 3)
        prefix = bullet if not lines else " " * col + bullet
        lines.append(prefix + body[0])
        lines.extend(body[1:])
    return lines


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "))


def ir_text(e, defs: dict) -> str:
    """Canonical IR text of `e`, with references expanded.

    Long junction lists nest thousands of objects deep, past what a
    recursive encoder can take, so a list is emitted as a run of opening
    brackets followed by its items, left to right.
    """
    kind = e[0]
    if kind in ("int", "bool"):
        return _dumps({"op": "const", "value": e[1]})
    if kind == "boolean":
        return _dumps({"op": "const", "value": {"set": [False, True]}})
    if kind in ("var", "primed"):
        return _dumps({"op": kind, "name": e[1]})
    if kind == "ref":
        return ir_text(defs[e[1]], defs)
    if kind == "list":
        close = '],"op": ' + _dumps(e[1]) + "}"
        parts = ['{"args": [' * (len(e[2]) - 1), ir_text(e[2][0], defs)]
        for item in e[2][1:]:
            parts += [",", ir_text(item, defs), close]
        return "".join(parts)
    args = ",".join(ir_text(arg, defs) for arg in e[1:])
    return '{"args": [' + args + '],"op": ' + _dumps(kind) + "}"


# ---------------------------------------------------------------------------
# Drawing modules


class _Drawer:
    def __init__(self, rng: random.Random, ints: list, bools: list):
        self.rng = rng
        self.ints = ints
        self.bools = bools

    def small(self) -> tuple:
        return ("int", self.rng.randint(0, 20))

    def arith(self) -> tuple:
        e = ("var", self.rng.choice(self.ints))
        for _ in range(self.rng.randint(0, 2)):
            e = (self.rng.choice(("add", "sub")), e, self.small())
        return e

    def guard(self) -> tuple:
        rng = self.rng
        roll = rng.random()
        if roll < 0.15 and self.bools:
            b = ("var", rng.choice(self.bools))
            return b if rng.random() < 0.5 else ("not", b)
        if roll < 0.3:
            lo = rng.randint(0, 10)
            return ("in", ("var", rng.choice(self.ints)),
                    ("range", ("int", lo), ("int", lo + rng.randint(1, 30))))
        op = rng.choice(("eq", "neq", "lt", "le", "gt", "ge"))
        return (op, self.arith(), self.small())

    def step(self) -> tuple:
        """An action conjunct: a guard or a primed assignment."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.25 and self.bools:
            name = rng.choice(self.bools)
            rhs = ("not", ("var", name)) if rng.random() < 0.5 else \
                ("bool", rng.random() < 0.5)
            return ("eq", ("primed", name), rhs)
        if roll < 0.5:
            return ("eq", ("primed", rng.choice(self.ints)), self.arith())
        if roll < 0.58:
            return self.nested(self.guard)
        return self.guard()

    def nested(self, draw) -> tuple:
        """A short disjunction list inside a conjunction list."""
        return ("list", "or", [draw() for _ in range(self.rng.randint(2, 3))])

    def junction(self, n: int, draw) -> tuple:
        return ("list", "and", [draw() for _ in range(n)])


def draw_module(rng: random.Random, junction: int, name: str) -> dict:
    """One module with a junction list of `junction` items.

    Returns {"name", "junction", "source", "ir"} where "ir" is the
    canonical IR text the translator must emit for the source.
    """
    ints = [f"x{i}" for i in range(1, rng.randint(2, 5) + 1)]
    bools = [f"b{i}" for i in range(1, rng.randint(0, 3) + 1)]
    variables = ints + bools
    d = _Drawer(rng, ints, bools)

    type_ok = ("list", "and",
               [("in", ("var", v), ("range", ("int", 0), ("int", 100)))
                for v in ints] + [("in", ("var", b), ("boolean",)) for b in bools])
    init = ("list", "and",
            [("eq", ("var", v), ("int", rng.randint(0, 100))) for v in ints]
            + [("eq", ("var", b), ("bool", rng.random() < 0.5)) for b in bools])
    actions = [(f"Act{i}", d.junction(rng.randint(2, 6), d.step))
               for i in range(1, rng.randint(2, 4) + 1)]
    helpers = []

    # The long list lands in one of four places, each with its own
    # parser and expansion path.
    where = rng.choice(("action", "init", "type_ok", "helper"))
    if where == "action":
        actions[0] = (actions[0][0], d.junction(junction, d.step))
    elif where == "init":
        init = d.junction(junction, d.guard)
    elif where == "type_ok":
        extra = [d.guard() for _ in range(junction)]
        type_ok = ("list", "and", (type_ok[2] + extra)[:junction])
    else:
        helpers.append(("Guard", d.junction(junction, d.guard)))
        first_name, first_body = actions[0]
        actions[0] = (first_name, ("list", "and", [("ref", "Guard")] + first_body[2]))

    definitions = [("TypeOK", type_ok), ("Init", init)] + helpers + actions
    next_def = ("list", "or", [("ref", a) for a, _ in actions])
    definitions.append(("Next", next_def))

    lines = ["VARIABLES " + ", ".join(variables)]
    for def_name, body in definitions:
        head = f"{def_name} == "
        body_lines = render(body, len(head))
        lines.append(head + body_lines[0])
        lines.extend(body_lines[1:])
    source = "\n".join(lines) + "\n"

    defs = dict(definitions)
    actions_text = ",".join(
        '{"formula": ' + ir_text(body, defs) + ',"name": ' + _dumps(a) + "}"
        for a, body in actions)
    text = ('{"actions": [' + actions_text + ']'
            + ',"init": ' + ir_text(init, defs)
            + ',"invariants": [{"formula": ' + ir_text(type_ok, defs)
            + ',"name": "TypeOK"}]'
            + ',"name": ' + _dumps(name)
            + ',"params": {}'
            + ',"variables": ' + _dumps(variables) + "}\n")
    return {"name": name, "junction": junction, "source": source, "ir": text}


def stratum_size(rng: random.Random, stratum: int, part: int) -> int:
    """A junction length from the part-th of PER_STRATUM equal parts of a
    stratum's slice of log space."""
    if stratum == STRATA - 1:
        start, end = math.log(DEEP_JUNCTION), math.log(MAX_JUNCTION)
    else:
        lo = math.log(MIN_JUNCTION)
        width = (math.log(DEEP_JUNCTION) - lo) / (STRATA - 1)
        start, end = lo + stratum * width, lo + (stratum + 1) * width
    width = (end - start) / PER_STRATUM
    start += part * width
    return int(math.exp(rng.uniform(start, start + width)))  # below the end


def corpus_pass(seed: int, pass_index: int) -> list:
    """The modules of one pass: PER_STRATUM per size stratum, smallest
    stratum first."""
    rng = random.Random(f"translate-roundtrip/{seed}/{pass_index}")
    return [draw_module(rng, stratum_size(rng, s, k), f"m{pass_index}_{s}_{k}")
            for s in range(STRATA) for k in range(PER_STRATUM)]
