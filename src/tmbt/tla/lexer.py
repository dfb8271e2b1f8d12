"""Tokenizer for the ASCII TLA+ subset: one regular expression, whose
keywords, backslash words and relation symbols come from `lexemes`.
The pattern is ASCII: identifiers are letters, digits and `_`, not led
by a digit, integers are decimal digits, and a character outside ASCII
is an error wherever it stands.

Every token carries its line and column; those positions, not the
newlines, are what lets the parser interpret bulleted /\\ and \\/ lists,
where indentation is meaningful.  Newlines, like other white space, make
no token.

A `Token` is a named tuple, not a `Record`: the lexer makes one per
lexeme through `tuple.__new__`, skipping even the named tuple's own
`__new__`, which takes about 0.2 us against 0.76 us for a four-field
`Record` (timeit, Python 3.11.7).
"""

from __future__ import annotations

import re
import typing

from ..errors import LexError
from .lexemes import ALIASES, CONSTANTS, DECLARATIONS, QUANTIFIERS, RELATIONS

# Recognized but deliberately outside the subset; the parser reports
# these by name instead of treating them as ordinary identifiers.
RESERVED = frozenset((
    "ASSUME", "CONSTANT", "CONSTANTS", "DOMAIN", "ELSE", "ENABLED",
    "EXCEPT", "EXTENDS", "IF", "INSTANCE", "LET", "MODULE", "SUBSET",
    "THEN", "THEOREM", "UNCHANGED", "UNION",
))

_STATED = (*RELATIONS.values(), *QUANTIFIERS.values(), *ALIASES,
           *CONSTANTS, *DECLARATIONS)
_KEYWORDS = frozenset(word for word in _STATED if word.isalpha())
_BACKSLASH_WORDS = frozenset(word[1:] for word in _STATED if word[0] == "\\")
# the relation symbols, and the punctuation that the grammar spells
_OPERATORS = {op for op in _STATED if not op.isalpha() and op[0] != "\\"}
_OPERATORS.update(("==", "=>", "..", "/\\", "\\/", "<<", ">>", *"'~:(){},+-"))

# Each match is one token after any blanks; `bad` takes no blank, so
# blanks that end the source match nothing.
_TOKEN = re.compile(r"[ \t\r]*(?:%s)" % "|".join((
    r"(?P<newline>\n)",
    r"(?P<int>\d+)",
    r"(?P<word>[^\W\d]\w*)",
    r"(?P<backslash>\\(?=[^/])[^\W\d_]*)",
    r"(?P<delimiter>----)",
    "(?P<op>%s)" % "|".join(  # two-character operators first
        map(re.escape, sorted(_OPERATORS, key=lambda op: (-len(op), op)))),
    r"(?P<bad>[^ \t\r])",
)), re.ASCII)


class Token(typing.NamedTuple):
    kind: str  # "ident" | "int" | "op" | "keyword"; the parser adds an "end"
    lexeme: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.lexeme!r} at {self.line}:{self.col}"


_new = tuple.__new__


def tokenize(source: str) -> list:
    """Split source text into tokens. Raises LexError with a position."""
    tokens: list = []
    add = tokens.append
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        lexeme, col = match[kind], match.start(kind) - line_start
        if kind == "op" or kind == "int":
            add(_new(Token, (kind, lexeme, line, col)))
        elif kind == "word":
            kind = "keyword" if lexeme in _KEYWORDS else "ident"
            add(_new(Token, (kind, lexeme, line, col)))
        elif kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "backslash":
            if lexeme[1:] not in _BACKSLASH_WORDS:
                raise LexError(f"unknown operator {lexeme!r}", line, col)
            add(_new(Token, ("op", lexeme, line, col)))
        elif kind == "delimiter":
            msg = "module delimiter lines are not part of the subset"
            raise LexError(msg, line, col)
        else:
            raise LexError(f"unexpected character {lexeme!r}", line, col)
    return tokens
