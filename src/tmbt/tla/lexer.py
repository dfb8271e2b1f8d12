"""Tokenizer for the ASCII TLA+ subset.

Every token carries its line and column; those positions, not the
newlines, are what lets the parser interpret bulleted /\\ and \\/ lists,
where indentation is meaningful.  Newlines, like other white space, make
no token.
"""

from __future__ import annotations

from ..errors import LexError
from ..record import Record

KEYWORDS = frozenset((
    "VARIABLE", "VARIABLES", "CHOOSE", "TRUE", "FALSE", "BOOLEAN",
))

# Recognized but deliberately outside the subset; the parser reports
# these by name instead of treating them as ordinary identifiers.
RESERVED = frozenset((
    "ASSUME", "CONSTANT", "CONSTANTS", "DOMAIN", "ELSE", "ENABLED",
    "EXCEPT", "EXTENDS", "IF", "INSTANCE", "LET", "MODULE", "SUBSET",
    "THEN", "THEOREM", "UNCHANGED", "UNION",
))

_TWO_CHAR_OPS = ("==", "=>", "<=", ">=", "/=", "..", "/\\", "\\/", "<<", ">>")
_ONE_CHAR_OPS = "='~<>#:(){},+-"
_BACKSLASH_OPS = frozenset((
    "in", "A", "E", "nleq", "nless", "ngeq", "ngeqslant", "ngtr",
))


class Token(Record):
    kind: str  # "ident" | "int" | "op" | "keyword"; the parser adds an "end"
    lexeme: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.lexeme!r} at {self.line}:{self.col}"


def tokenize(source: str) -> list:
    """Split source text into tokens. Raises LexError with a position."""
    tokens: list = []
    line, col = 1, 0
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if c == "\\" and i + 1 < n and source[i + 1] != "/":
            j = i + 1
            while j < n and source[j].isalpha():
                j += 1
            word = source[i:j]
            if word[1:] not in _BACKSLASH_OPS:
                msg = f"unknown operator {word!r}"
                raise LexError(msg, line, col)
            tokens.append(Token("op", word, line, col))
            col += j - i
            i = j
            continue
        if source.startswith("----", i):
            msg = "module delimiter lines are not part of the subset"
            raise LexError(msg, line, col)
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, col))
            col += 2
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            tokens.append(Token("op", c, line, col))
            col += 1
            i += 1
            continue
        msg = f"unexpected character {c!r}"
        raise LexError(msg, line, col)
    return tokens
