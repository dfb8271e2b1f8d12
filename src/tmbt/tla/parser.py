"""Parser for the ASCII TLA+ subset, producing spec-core expression trees.

Layout drives the grammar in one place: a /\\ or \\/ token in operand
position opens a bulleted junction list whose column is the bullet's
column.  A later bullet of the same kind at exactly that column adds an
item; any token at or left of that column ends the list.  Items parse
at full expression level, so the enclosing column acts as a fence that
every operator and operand consumption respects.

Operator precedence, loosest first: =>, \\/, /\\, ~, comparisons,
.., + and -.  Quantifier and CHOOSE bodies extend maximally right.
"""

from __future__ import annotations

import functools
import operator

from .. import spec as sp
from ..errors import (
    MissingDefinition,
    ParseError,
    PrimedInStateFormula,
    UnboundVariable,
    UnsupportedConstruct,
)
from ..record import Record
from ..values import INT64_MAX, INT64_MIN
from .lexemes import ALIASES, CONSTANTS, DECLARATIONS, QUANTIFIERS, RELATIONS
from .lexer import RESERVED, Token, tokenize

# each relation's node kind by lexeme, with the input aliases
_RELATIONS = {lexeme: kind for kind, lexeme in RELATIONS.items()} | ALIASES
_QUANTIFIERS = {lexeme: kind for kind, lexeme in QUANTIFIERS.items()}

_NO_FENCE = -1
_INT64_DIGITS = len(str(INT64_MAX))  # and of -INT64_MIN


class Ref(Record):
    """Reference to a prior definition; removed by expansion."""

    name: str


class ParsedModule(Record):
    """Declarations plus definitions in source order.

    Definition bodies may contain Ref nodes for uses of earlier
    definitions; definition_map() returns them fully expanded into
    plain spec-core expressions, each expanded once and kept.
    """

    variables: tuple
    definitions: tuple  # (name, Expr-with-Refs) in source order

    def names(self) -> tuple:
        return tuple(name for name, _ in self.definitions)

    def raw(self, name: str):
        for key, body in self.definitions:
            if key == name:
                return body
        raise MissingDefinition(f"no definition named {name!r}")

    @functools.cached_property
    def _expanded(self) -> dict:
        # Refs point back, so source order expands each before its uses
        expanded: dict = {}
        for name, body in self.definitions:
            expanded[name] = _expand(body, expanded)
        return expanded

    def expand(self, expr) -> "sp.Expr":
        return _expand(expr, self._expanded)

    def definition_map(self) -> dict:
        return dict(self._expanded)


def _expand(expr, expanded: dict):
    """`expr` with each Ref replaced by its definition in `expanded`;
    subtrees without one come back as is."""
    def substitute(node, results):
        if isinstance(node, Ref):
            if node.name not in expanded:  # only a module built out of order
                raise MissingDefinition(f"no definition named {node.name!r}")
            return expanded[node.name]
        if not isinstance(node, sp.ExprNode):
            raise sp.not_an_expression(node)
        if all(map(operator.is_, results, node.children())):
            return node
        return node.rebuild(results)

    return sp.fold(expr, substitute)


class _Parser:
    """Recursive-descent parser over a token list that it ends with an
    `end` token, just past the last token.  `tok` is the current token.

    `resolve` maps a free identifier to an expression; module parsing
    passes a strict resolver, standalone expression parsing treats any
    identifier as a state variable.
    """

    def __init__(self, tokens, resolve):
        self.tokens = list(tokens)
        # with no tokens, the end of input lies at 1:0
        last = self.tokens[-1] if self.tokens else Token("end", "", 1, 0)
        self.tokens.append(Token("end", "", last.line, last.col + len(last.lexeme)))
        self.pos, self.tok = 0, self.tokens[0]
        self.resolve = resolve
        self.bound: list = []

    def next(self) -> Token:
        """The current token, stepping past it; every caller tests the
        token first, so it is never the end."""
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def at_op(self, *lexemes: str, fence: int = _NO_FENCE) -> bool:
        tok = self.tok
        return tok.kind == "op" and tok.lexeme in lexemes and tok.col > fence

    def expect_op(self, lexeme: str) -> Token:
        if not self.at_op(lexeme):
            tok = self.tok
            found = "end of input" if tok.kind == "end" else str(tok)
            raise self.error(f"expected {lexeme!r}, found {found}")
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.tok.line, self.tok.col)

    def name(self) -> Token:
        """The current token, an identifier, stepping past it; a reserved
        word is outside the subset."""
        tok = self.next()
        if tok.lexeme in RESERVED:
            msg = f"{tok.lexeme} is outside the supported subset"
            raise UnsupportedConstruct(msg, tok.line, tok.col)
        return tok

    # Each level consumes an operator token only when its column is
    # strictly right of the innermost enclosing bullet column.

    def expression(self, fence: int) -> sp.Expr:
        left = self.disjunction(fence)
        if self.at_op("=>", fence=fence):
            self.next()
            return sp.Implies(left, self.expression(fence))
        return left

    def disjunction(self, fence: int) -> sp.Expr:
        parts = [self.conjunction(fence)]
        while self.at_op("\\/", fence=fence):
            self.next()
            parts.append(self.conjunction(fence))
        return sp.disj(*parts)

    def conjunction(self, fence: int) -> sp.Expr:
        parts = [self.unary(fence)]
        while self.at_op("/\\", fence=fence):
            self.next()
            parts.append(self.unary(fence))
        return sp.conj(*parts)

    def unary(self, fence: int) -> sp.Expr:
        tok = self.tok
        if tok.col <= fence:
            raise self.error("expected an expression")
        if self.at_op("~"):
            self.next()
            return sp.Not(self.unary(fence))
        if tok.lexeme in _QUANTIFIERS:
            return self.quantified(fence)
        if self.at_op("/\\", "\\/"):
            return self.junction_list(tok.lexeme, tok.col)
        return self.comparison(fence)

    def junction_list(self, bullet: str, col: int) -> sp.Expr:
        items = []
        while self.at_op(bullet) and self.tok.col == col:
            self.next()
            items.append(self.expression(col))
        combine = sp.conj if bullet == "/\\" else sp.disj
        return combine(*items)

    def quantified(self, fence: int) -> sp.Expr:
        head = self.next()
        node = _QUANTIFIERS[head.lexeme]
        name_tok = self.tok
        if name_tok.kind != "ident":
            raise self.error(f"expected a bound variable after {head.lexeme}")
        self.next()
        self.expect_op("\\in")
        domain = self.range_expr(fence)
        self.expect_op(":")
        self.bound.append(name_tok.lexeme)
        try:
            body = self.expression(fence)
        finally:
            self.bound.pop()
        return node(name_tok.lexeme, domain, body)

    def comparison(self, fence: int) -> sp.Expr:
        left = self.range_expr(fence)
        tok = self.tok
        if tok.kind == "op" and tok.lexeme in _RELATIONS and tok.col > fence:
            self.next()
            right = self.range_expr(fence)
            return _RELATIONS[tok.lexeme](left, right)
        return left

    def range_expr(self, fence: int) -> sp.Expr:
        left = self.additive(fence)
        if self.at_op("..", fence=fence):
            self.next()
            return sp.IntRange(left, self.additive(fence))
        return left

    def additive(self, fence: int) -> sp.Expr:
        left = self.primary(fence)
        while self.at_op("+", "-", fence=fence):
            op = self.next()
            right = self.primary(fence)
            left = sp.Add(left, right) if op.lexeme == "+" else sp.Sub(left, right)
        return left

    def primary(self, fence: int) -> sp.Expr:
        tok = self.tok
        if tok.kind == "end" or tok.col <= fence:
            raise self.error("expected an expression")
        if tok.kind == "int":
            return self.integer(tok, 1)
        if tok.kind == "op" and tok.lexeme == "-":
            self.next()
            if self.tok.kind != "int":
                raise self.error("expected an integer after unary '-'")
            return self.integer(tok, -1)
        if tok.kind == "keyword":
            self.next()
            if tok.lexeme in CONSTANTS:
                return sp.Const(CONSTANTS[tok.lexeme])
            raise ParseError(f"{tok.lexeme} cannot start an expression",
                             tok.line, tok.col)
        if tok.kind == "ident":
            self.name()
            if self.at_op("'"):
                self.next()
                return sp.Primed(tok.lexeme)
            if tok.lexeme in self.bound:
                return sp.Var(tok.lexeme)
            return self.resolve(tok)
        if tok.kind == "op" and tok.lexeme == "(":
            self.next()
            inner = self.expression(_NO_FENCE)
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.lexeme == "{":
            self.next()
            return sp.SetLit(self.item_list("}"))
        if tok.kind == "op" and tok.lexeme == "<<":
            self.next()
            return sp.SeqLit(self.item_list(">>"))
        raise self.error(f"expected an expression, found {tok}")

    def integer(self, start: Token, sign: int) -> sp.Expr:
        """The integer token at hand times `sign`, a literal that begins
        at `start`; its digits are counted before int() reads them."""
        digits = self.next().lexeme.lstrip("0")
        if len(digits) <= _INT64_DIGITS:
            value = sign * int(digits or "0")
            if INT64_MIN <= value <= INT64_MAX:
                return sp.Const(value)
        raise ParseError("integer literal outside signed 64-bit range",
                         start.line, start.col)

    def item_list(self, closer: str) -> list:
        items: list = []
        if self.at_op(closer):
            self.next()
            return items
        items.append(self.expression(_NO_FENCE))
        while self.at_op(","):
            self.next()
            items.append(self.expression(_NO_FENCE))
        self.expect_op(closer)
        return items


def parse_expression(source: str) -> sp.Expr:
    """Parse a standalone expression; free identifiers become variables."""
    parser = _Parser(tokenize(source), lambda tok: sp.Var(tok.lexeme))
    expr = parser.expression(_NO_FENCE)
    if parser.tok.kind != "end":
        raise parser.error(f"trailing input, found {parser.tok}")
    return expr


def parse(tokens) -> ParsedModule:
    """Parse a module: VARIABLE declarations and `Name == body` definitions."""
    variables: list = []
    definitions: list = []
    known = set()

    def resolve(tok: Token) -> sp.Expr:
        if tok.lexeme in variables:
            return sp.Var(tok.lexeme)
        if tok.lexeme in known:
            return Ref(tok.lexeme)
        msg = f"unknown identifier {tok.lexeme!r}"
        raise ParseError(msg, tok.line, tok.col)

    parser = _Parser(tokens, resolve)
    while (tok := parser.tok).kind != "end":
        if tok.kind == "keyword" and tok.lexeme in DECLARATIONS:
            parser.next()
            while True:
                if parser.tok.kind != "ident":
                    raise parser.error("expected a variable name")
                name = parser.name()
                if name.lexeme in variables:
                    raise ParseError(f"variable {name.lexeme} declared twice",
                                     name.line, name.col)
                variables.append(name.lexeme)
                if not parser.at_op(","):
                    break
                parser.next()
            continue
        if tok.kind == "ident":
            parser.name()
            if parser.at_op("=="):
                parser.next()
                if tok.lexeme in known or tok.lexeme in variables:
                    raise ParseError(f"{tok.lexeme} is already defined",
                                     tok.line, tok.col)
                body = parser.expression(_NO_FENCE)
                known.add(tok.lexeme)
                definitions.append((tok.lexeme, body))
                continue
        msg = f"expected a declaration or definition, found {tok}"
        raise ParseError(msg, tok.line, tok.col)

    module = ParsedModule(tuple(variables), tuple(definitions))
    module.definition_map()  # expand now, so unresolved refs cannot escape
    return module


def parse_module(source: str) -> ParsedModule:
    return parse(tokenize(source))


def _disjuncts(expr) -> list:
    """`expr`'s disjuncts, left to right, with each nested \\/ flattened."""
    return sp.flat_parts(expr) if isinstance(expr, sp.Or) else [expr]


def to_spec(module: ParsedModule, name: str = "module",
            invariant_names: tuple = ()) -> sp.TemporalSpec:
    """Assemble a TemporalSpec from a parsed module's Init and Next.

    The top-level disjunction of the Next definition becomes the action
    list; a disjunct that is a bare reference keeps that definition's
    name, anything else is auto-named A1..An.  TypeOK (when defined)
    and every definition in invariant_names become named invariants.
    """
    expanded = module.definition_map()
    for required in ("Init", "Next"):
        if required not in expanded:
            raise MissingDefinition(f"no definition named {required!r}")

    actions = []
    for index, disjunct in enumerate(_disjuncts(module.raw("Next")), start=1):
        action = disjunct.name if isinstance(disjunct, Ref) else f"A{index}"
        actions.append(sp.NamedAction(action, module.expand(disjunct)))

    invariants = []
    if sp.TYPE_OK_NAME in expanded:
        invariants.append((sp.TYPE_OK_NAME, expanded[sp.TYPE_OK_NAME]))
    for inv_name in invariant_names:
        if inv_name not in expanded:
            raise MissingDefinition(f"no definition named {inv_name!r}")
        if inv_name != sp.TYPE_OK_NAME:
            invariants.append((inv_name, expanded[inv_name]))

    spec = sp.TemporalSpec(
        name=name,
        variables=module.variables,
        init=expanded["Init"],
        actions=actions,
        invariants=invariants,
    )
    problems = sp.well_formed(spec)
    if problems:
        first = problems[0]
        if first.code == "primed-in-state-formula":
            raise PrimedInStateFormula(str(first))
        if first.code == "unbound-variable":
            raise UnboundVariable(str(first))
        raise ParseError(str(first))
    return spec
