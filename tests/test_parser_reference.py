"""The parser and the lexer held to the ones they replaced
(parser_reference.py, lexer_reference.py): every golden and shipped
module, and seeded random token soups, must give the same tree, or the
same error type, message, line and column, through `parse_module`,
`parse_expression` and `to_spec`, and the same tokens or error through
`tokenize`."""

import pathlib
import random

import astgen
import lexer_reference
import parser_reference as ref
import pytest

from tmbt.tla import (
    ParsedModule,
    parse_expression,
    parse_module,
    print_expression,
    to_spec,
    tokenize,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/tmbt/specs/*.tla"),
                  *ROOT.glob("tests/golden/specs/*.tla")])

BULLETS = """\
VARIABLES x, y
TypeOK == /\\ x \\in 0..3
          /\\ y \\in BOOLEAN
Init == /\\ x = 0
        /\\ \\/ y = TRUE
           \\/ ~y
Inc == /\\ x < 3 /\\ \\E v \\in {1, 2} : x' = x + v
       /\\ y' = (CHOOSE b \\in BOOLEAN : b)
Flip == \\A v \\in <<1, -2>> : x' # v => y' = (~y) /\\ x' \\ngeqslant x - 1
Next == \\/ Inc
        \\/ Flip
        \\/ x' /= x /\\ y' = y
"""

VOCAB = (
    "x", "y", "v", "Init", "Next", "Inc", "0", "1", "12",
    "VARIABLE", "VARIABLES", "TRUE", "FALSE", "BOOLEAN", "CHOOSE", "IF",
    "==", "=>", "<=", ">=", "/=", "..", "/\\", "\\/", "<<", ">>", "=", "'",
    "~", "<", ">", "#", ":", "(", ")", "{", "}", ",", "+", "-", "\\in",
    "\\A", "\\E", "\\nleq", "\\ngeqslant",
)
LAYOUT = ("", " ", " ", " ", "\n", "\n  ", "\n      ", "\n          ")
# characters outside the subset, and ones that only the lexer tells apart
STRAYS = ("\r", "\r\n", "\t", "@", "\\", "/", ".", "_", "-", "----", "\\x",
          "é", "٣", "²", "½")


def _pairs(source: str) -> list:
    """`source` as (separator, lexeme) pairs that join back to it, minus
    trailing white space."""
    pairs, line, col = [], 1, 0
    for tok in tokenize(source):
        gap = " " * (tok.col - col) if tok.line == line else (
            "\n" * (tok.line - line) + " " * tok.col)
        pairs.append((gap, tok.lexeme))
        line, col = tok.line, tok.col + len(tok.lexeme)
    return pairs


def _mutated(rng: random.Random, pairs: list) -> list:
    pairs = list(pairs)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(pairs) + 1)
        pick = rng.randrange(4)
        if pick == 0 and at < len(pairs):
            del pairs[at]
        elif pick == 1:
            pairs.insert(at, (rng.choice(LAYOUT), rng.choice(VOCAB)))
        elif at < len(pairs):  # move a token, or change it
            gap, lexeme = pairs[at]
            pairs[at] = (rng.choice(LAYOUT), lexeme) if pick == 2 else (
                gap, rng.choice(VOCAB))
    return pairs


def _soups(seed: int, count: int) -> list:
    """`count` sources: mostly mutated modules and expressions, the rest
    short runs of random lexemes and stray characters, some after a
    module's first line."""
    rng = random.Random(seed)
    names = ", ".join(astgen.NAMES)
    bases = [_pairs(path.read_text()) for path in MODULES] + [_pairs(BULLETS)]
    for _ in range(20):
        init, step = (print_expression(astgen.random_expr(rng, 3, 4))
                      for _ in range(2))
        bases.append(_pairs(f"VARIABLES {names}\nInit == {init}\nNext == {step}\n"))
        bases.append(_pairs(init))
    soups = []
    for _ in range(count):
        if rng.random() < 0.8:
            pairs = _mutated(rng, rng.choice(bases))
        else:
            pairs = [(rng.choice(LAYOUT), rng.choice(VOCAB + STRAYS))
                     for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.5:
                pairs.insert(0, ("", "VARIABLES x, y\nInit =="))
        soups.append("".join(gap + lexeme for gap, lexeme in pairs) + "\n")
    return soups


def _outcome(call, *args):
    """What `call(*args)` returns, or the type, message, line and column
    of what it raises."""
    try:
        return call(*args)
    except Exception as err:  # any error must match the reference's too
        return (type(err), err.args, getattr(err, "line", None),
                getattr(err, "col", None))


def _reference_tokens(source: str):
    """The reference lexer's outcome, under the one declared difference:
    `tokenize` takes no character outside ASCII.  The reference reads
    each such character as '$', which neither lexer takes and no soup
    draws, and an error at that '$' names the original character again."""
    outcome = _outcome(lexer_reference.tokenize,
                       "".join(c if c.isascii() else "$" for c in source))
    if isinstance(outcome, tuple) and outcome[1] == ("unexpected character '$'",):
        error, _, line, col = outcome
        at = sum(len(text) + 1 for text in source.split("\n")[:line - 1]) + col
        return error, (f"unexpected character {source[at]!r}",), line, col
    return outcome


def _assert_same(source: str) -> None:
    assert _outcome(tokenize, source) == _reference_tokens(source), source
    module = _outcome(parse_module, source)
    assert module == _outcome(lambda: ref.parse(tokenize(source))), source
    if isinstance(module, ParsedModule):
        assert _outcome(to_spec, module) == _outcome(ref.to_spec, module), source
    assert _outcome(parse_expression, source) == _outcome(
        ref.parse_expression, source), source


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_modules_match_the_reference(path):
    source = path.read_text()
    to_spec(parse_module(source))  # each one is a whole, valid module
    _assert_same(source)


def test_random_soups_match_the_reference():
    soups = _soups(seed=0, count=3000)
    parsed = 0
    for source in soups:
        _assert_same(source)
        parsed += isinstance(_outcome(parse_module, source), ParsedModule)
    assert parsed > 200  # enough soups parse to hold to_spec to the reference
