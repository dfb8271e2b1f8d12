"""The subset's lexemes, stated once: the relations, quantifier heads
and constants, which the parser reads and the printer writes; the input
aliases, which only the parser reads; and the declaration keywords.
The lexer takes its keywords and backslash words from these."""

from .. import spec as sp
from ..values import BOOLEANS, FALSE, TRUE

RELATIONS = {
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
    sp.In: "\\in",
}

QUANTIFIERS = {sp.Forall: "\\A", sp.Exists: "\\E", sp.Choose: "CHOOSE"}

CONSTANTS = {"TRUE": TRUE, "FALSE": FALSE, "BOOLEAN": BOOLEANS}

ALIASES = {"/=": sp.Neq, "\\ngeqslant": sp.NotGe}

DECLARATIONS = ("VARIABLE", "VARIABLES")
