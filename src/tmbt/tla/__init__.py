"""Textual front end: ASCII TLA+ subset to spec-core and back.

The printer's names load it on first use (PEP 562), so a process that
only parses, such as `tmbt check --spec`, does not compile it.
"""

from .lexer import Token, tokenize
from .parser import (
    ParsedModule,
    parse,
    parse_expression,
    parse_module,
    to_spec,
)

_PRINTED = ("pretty_print", "print_expression", "print_spec")


def __getattr__(name: str):
    if name not in _PRINTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import printer
    return getattr(printer, name)


__all__ = [
    "ParsedModule",
    "Token",
    "parse",
    "parse_expression",
    "parse_module",
    "pretty_print",
    "print_expression",
    "print_spec",
    "to_spec",
    "tokenize",
]
