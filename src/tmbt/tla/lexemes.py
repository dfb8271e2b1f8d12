"""The subset's lexemes for relations, quantifier heads and constants,
stated once: the parser reads them and the printer writes them."""

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
