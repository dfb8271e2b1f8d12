"""The TLA+-subset tokenizer as `tmbt.tla.lexer` shipped it before one
regular expression scanned the source, kept as the reference.

It stepped through the source one character at a time and spelled its
own keywords and operators.  test_parser_reference.py holds
`tmbt.tla.tokenize` to the tokens and errors this gives.
"""

from __future__ import annotations

from tmbt.errors import LexError
from tmbt.tla.lexer import Token

KEYWORDS = frozenset((
    "VARIABLE", "VARIABLES", "CHOOSE", "TRUE", "FALSE", "BOOLEAN",
))

_TWO_CHAR_OPS = ("==", "=>", "<=", ">=", "/=", "..", "/\\", "\\/", "<<", ">>")
_ONE_CHAR_OPS = "='~<>#:(){},+-"
_BACKSLASH_OPS = frozenset((
    "in", "A", "E", "nleq", "nless", "ngeq", "ngeqslant", "ngtr",
))


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
