"""The TLA+-subset parser as `tmbt.tla.parser` shipped it before one
parser object held both the cursor and the grammar, kept as the
reference.

A `TokenStream` cursor returned None past the last token, and every
grammar rule of `_ExprParser` tested for it; `to_spec` read Next's
disjuncts through a fold.  test_parser_reference.py holds
`parse_module`, `parse_expression` and `to_spec` to the trees and errors
these give.
"""

from __future__ import annotations

import tmbt.spec as sp
from tmbt.errors import (
    MissingDefinition,
    ParseError,
    PrimedInStateFormula,
    UnboundVariable,
    UnsupportedConstruct,
)
from tmbt.tla.lexemes import CONSTANTS, QUANTIFIERS, RELATIONS
from tmbt.tla.lexer import RESERVED, Token, tokenize
from tmbt.tla.parser import ParsedModule, Ref

_RELATIONS = {lexeme: kind for kind, lexeme in RELATIONS.items()}
_RELATIONS.update({"/=": sp.Neq, "\\ngeqslant": sp.NotGe})
_QUANTIFIERS = {lexeme: kind for kind, lexeme in QUANTIFIERS.items()}

_NO_FENCE = -1


class TokenStream:
    """Cursor over a token list; the end of input lies just past its
    last token."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.pos = 0
        if self.tokens:
            last = self.tokens[-1]
            self._end = (last.line, last.col + len(last.lexeme))
        else:
            self._end = (1, 0)

    def peek(self, ahead: int = 0):
        index = self.pos + ahead
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self._end)
        self.pos += 1
        return tok

    def at_op(self, *lexemes: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.lexeme in lexemes

    def expect_op(self, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.lexeme != lexeme:
            found = str(tok) if tok else "end of input"
            line, col = (tok.line, tok.col) if tok else self._end
            raise ParseError(f"expected {lexeme!r}, found {found}", line, col)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        line, col = (tok.line, tok.col) if tok else self._end
        return ParseError(message, line, col)


class _ExprParser:
    """Recursive-descent expression grammar over a TokenStream.

    `resolve` maps a free identifier to an expression; module parsing
    passes a strict resolver, standalone expression parsing treats any
    identifier as a state variable.
    """

    def __init__(self, stream: TokenStream, resolve):
        self.stream = stream
        self.resolve = resolve
        self.bound: list = []

    # Each level consumes an operator token only when its column is
    # strictly right of the innermost enclosing bullet column.

    def expression(self, fence: int) -> sp.Expr:
        left = self.disjunction(fence)
        if self.stream.at_op("=>") and self.stream.peek().col > fence:
            self.stream.next()
            return sp.Implies(left, self.expression(fence))
        return left

    def disjunction(self, fence: int) -> sp.Expr:
        parts = [self.conjunction(fence)]
        while self.stream.at_op("\\/") and self.stream.peek().col > fence:
            self.stream.next()
            parts.append(self.conjunction(fence))
        return sp.disj(*parts)

    def conjunction(self, fence: int) -> sp.Expr:
        parts = [self.unary(fence)]
        while self.stream.at_op("/\\") and self.stream.peek().col > fence:
            self.stream.next()
            parts.append(self.unary(fence))
        return sp.conj(*parts)

    def unary(self, fence: int) -> sp.Expr:
        guard = self.stream.peek()
        if guard is not None and guard.col <= fence:
            raise self.stream.error("expected an expression")
        if self.stream.at_op("~"):
            self.stream.next()
            return sp.Not(self.unary(fence))
        tok = self.stream.peek()
        if tok is not None and tok.lexeme in _QUANTIFIERS:
            return self.quantified(fence)
        if self.stream.at_op("/\\", "\\/"):
            if tok.col <= fence:
                raise self.stream.error("expected an expression")
            return self.junction_list(tok.lexeme, tok.col)
        return self.comparison(fence)

    def junction_list(self, bullet: str, col: int) -> sp.Expr:
        items = []
        while self.stream.at_op(bullet) and self.stream.peek().col == col:
            self.stream.next()
            items.append(self.expression(col))
        combine = sp.conj if bullet == "/\\" else sp.disj
        return combine(*items)

    def quantified(self, fence: int) -> sp.Expr:
        head = self.stream.next()
        node = _QUANTIFIERS[head.lexeme]
        name_tok = self.stream.peek()
        if name_tok is None or name_tok.kind != "ident":
            raise self.stream.error(f"expected a bound variable after {head.lexeme}")
        self.stream.next()
        self.stream.expect_op("\\in")
        domain = self.range_expr(fence)
        self.stream.expect_op(":")
        self.bound.append(name_tok.lexeme)
        try:
            body = self.expression(fence)
        finally:
            self.bound.pop()
        return node(name_tok.lexeme, domain, body)

    def comparison(self, fence: int) -> sp.Expr:
        left = self.range_expr(fence)
        tok = self.stream.peek()
        if (tok is not None and tok.kind == "op"
                and tok.lexeme in _RELATIONS and tok.col > fence):
            self.stream.next()
            right = self.range_expr(fence)
            return _RELATIONS[tok.lexeme](left, right)
        return left

    def range_expr(self, fence: int) -> sp.Expr:
        left = self.additive(fence)
        if self.stream.at_op("..") and self.stream.peek().col > fence:
            self.stream.next()
            return sp.IntRange(left, self.additive(fence))
        return left

    def additive(self, fence: int) -> sp.Expr:
        left = self.primary(fence)
        while self.stream.at_op("+", "-") and self.stream.peek().col > fence:
            op = self.stream.next()
            right = self.primary(fence)
            left = sp.Add(left, right) if op.lexeme == "+" else sp.Sub(left, right)
        return left

    def primary(self, fence: int) -> sp.Expr:
        tok = self.stream.peek()
        if tok is None or tok.col <= fence:
            raise self.stream.error("expected an expression")
        if tok.kind == "int":
            self.stream.next()
            return sp.Const(int(tok.lexeme))
        if tok.kind == "op" and tok.lexeme == "-":
            self.stream.next()
            number = self.stream.peek()
            if number is None or number.kind != "int":
                raise self.stream.error("expected an integer after unary '-'")
            self.stream.next()
            return sp.Const(-int(number.lexeme))
        if tok.kind == "keyword":
            self.stream.next()
            if tok.lexeme in CONSTANTS:
                return sp.Const(CONSTANTS[tok.lexeme])
            raise ParseError(f"{tok.lexeme} cannot start an expression",
                             tok.line, tok.col)
        if tok.kind == "ident":
            self.stream.next()
            if tok.lexeme in RESERVED:
                msg = f"{tok.lexeme} is outside the supported subset"
                raise UnsupportedConstruct(msg, tok.line, tok.col)
            if self.stream.at_op("'"):
                self.stream.next()
                return sp.Primed(tok.lexeme)
            if tok.lexeme in self.bound:
                return sp.Var(tok.lexeme)
            return self.resolve(tok)
        if tok.kind == "op" and tok.lexeme == "(":
            self.stream.next()
            inner = self.expression(_NO_FENCE)
            self.stream.expect_op(")")
            return inner
        if tok.kind == "op" and tok.lexeme == "{":
            self.stream.next()
            return sp.SetLit(self.item_list("}"))
        if tok.kind == "op" and tok.lexeme == "<<":
            self.stream.next()
            return sp.SeqLit(self.item_list(">>"))
        raise self.stream.error(f"expected an expression, found {tok}")

    def item_list(self, closer: str) -> list:
        items: list = []
        if self.stream.at_op(closer):
            self.stream.next()
            return items
        items.append(self.expression(_NO_FENCE))
        while self.stream.at_op(","):
            self.stream.next()
            items.append(self.expression(_NO_FENCE))
        self.stream.expect_op(closer)
        return items


def parse_expression(source: str) -> sp.Expr:
    """Parse a standalone expression; free identifiers become variables."""
    stream = TokenStream(tokenize(source))
    parser = _ExprParser(stream, lambda tok: sp.Var(tok.lexeme))
    expr = parser.expression(_NO_FENCE)
    if stream.peek() is not None:
        raise stream.error(f"trailing input, found {stream.peek()}")
    return expr


def parse(tokens) -> ParsedModule:
    """Parse a module: VARIABLE declarations and `Name == body` definitions."""
    stream = TokenStream(tokens)
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

    parser = _ExprParser(stream, resolve)
    while stream.peek() is not None:
        tok = stream.peek()
        if tok.kind == "keyword" and tok.lexeme in ("VARIABLE", "VARIABLES"):
            stream.next()
            while True:
                name = stream.peek()
                if name is None or name.kind != "ident":
                    raise stream.error("expected a variable name")
                stream.next()
                if name.lexeme in RESERVED:
                    msg = f"{name.lexeme} is outside the supported subset"
                    raise UnsupportedConstruct(msg, name.line, name.col)
                if name.lexeme in variables:
                    raise ParseError(f"variable {name.lexeme} declared twice",
                                     name.line, name.col)
                variables.append(name.lexeme)
                if not stream.at_op(","):
                    break
                stream.next()
            continue
        if tok.kind == "ident":
            if tok.lexeme in RESERVED:
                msg = f"{tok.lexeme} is outside the supported subset"
                raise UnsupportedConstruct(msg, tok.line, tok.col)
            after = stream.peek(1)
            if after is not None and after.kind == "op" and after.lexeme == "==":
                stream.next()
                stream.next()
                if tok.lexeme in known or tok.lexeme in variables:
                    raise ParseError(f"{tok.lexeme} is already defined",
                                     tok.line, tok.col)
                body = parser.expression(_NO_FENCE)
                known.add(tok.lexeme)
                definitions.append((tok.lexeme, body))
                continue
        raise stream.error(f"expected a declaration or definition, found {tok}")

    module = ParsedModule(tuple(variables), tuple(definitions))
    module.definition_map()  # expand now, so unresolved refs cannot escape
    return module


def _disjuncts(expr) -> list:
    """`expr`'s disjuncts, left to right, with each nested \\/ flattened."""
    return sp.fold(expr, lambda node, found: [d for ds in found for d in ds] or [node],
                   lambda node: node.parts if isinstance(node, sp.Or) else ())


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
