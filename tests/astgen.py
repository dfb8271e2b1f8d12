"""Seeded random expression trees over the printable grammar subset.

Generated trees contain every node kind the printer can render: constant
integers and booleans (plus the BOOLEAN set), plain and primed variables,
the logical connectives, all ten comparison forms, membership, ranges,
addition and subtraction, set and sequence literals, and the three
binder forms.  Container constants other than BOOLEAN have no literal
syntax and are never generated.

Integer leaves span all of int64 unless `bound` is given, in which case
they lie in [-bound, bound); a small bound keeps every range a tree can
build small enough to list in full.
"""

import random

import tmbt.spec as sp
from tmbt.values import BOOLEANS, BoolVal

NAMES = ("b", "x", "y", "level", "pumpOn", "small", "big", "n", "timer")

_COMPARISONS = (sp.Eq, sp.Neq, sp.Lt, sp.Le, sp.Gt, sp.Ge,
                sp.NotLt, sp.NotLe, sp.NotGt, sp.NotGe)
_BINDERS = (sp.Forall, sp.Exists, sp.Choose)
INT64_BOUND = 2**63


def random_expr(rng: random.Random, depth: int = 4,
                bound: int = INT64_BOUND) -> sp.Expr:
    """One random expression tree with nesting bounded by `depth`."""
    if depth <= 0:
        return _leaf(rng, bound)

    def sub():
        return random_expr(rng, depth - 1, bound)

    pick = rng.randrange(12)
    if pick == 0:
        return _leaf(rng, bound)
    if pick == 1:
        return sp.Not(sub())
    if pick == 2:
        return sp.And(sub(), sub())
    if pick == 3:
        return sp.Or(sub(), sub())
    if pick == 4:
        return sp.Implies(sub(), sub())
    if pick == 5:
        node = rng.choice(_COMPARISONS)
        return node(sub(), sub())
    if pick == 6:
        return sp.In(sub(), sub())
    if pick == 7:
        return sp.IntRange(sub(), sub())
    if pick == 8:
        node = sp.Add if rng.random() < 0.5 else sp.Sub
        return node(sub(), sub())
    if pick == 9:
        items = [sub() for _ in range(rng.randrange(3))]
        return sp.SetLit(items)
    if pick == 10:
        items = [sub() for _ in range(rng.randrange(3))]
        return sp.SeqLit(items)
    node = rng.choice(_BINDERS)
    return node(rng.choice(NAMES), sub(), sub())


def _leaf(rng: random.Random, bound: int) -> sp.Expr:
    pick = rng.randrange(5)
    if pick == 0:
        return sp.Const(rng.randint(-bound, bound - 1))
    if pick == 1:
        return sp.Const(BoolVal(rng.random() < 0.5))
    if pick == 2:
        return sp.Const(BOOLEANS)
    if pick == 3:
        return sp.Var(rng.choice(NAMES))
    return sp.Primed(rng.choice(NAMES))


def random_exprs(seed: int, count: int, depth: int = 4,
                 bound: int = INT64_BOUND) -> list:
    rng = random.Random(seed)
    return [random_expr(rng, depth, bound) for _ in range(count)]
