"""Tokenizer: lexeme recognition, positions, rejection of the unknown."""

import pytest

from tmbt.errors import LexError
from tmbt.tla import tokenize


def lexemes(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


class TestTokenize:
    def test_primed_assignment(self):
        toks = tokenize("b' = 1")
        assert [(t.kind, t.lexeme, t.col) for t in toks] == [
            ("ident", "b", 0),
            ("op", "'", 1),
            ("op", "=", 3),
            ("int", "1", 5),
        ]

    def test_empty_source(self):
        assert tokenize("") == []

    def test_keywords_are_distinguished(self):
        assert lexemes("VARIABLE b") == [("keyword", "VARIABLE"), ("ident", "b")]
        assert lexemes("VARIABLES x, y")[0] == ("keyword", "VARIABLES")
        assert lexemes("TRUE FALSE BOOLEAN CHOOSE") == [
            ("keyword", "TRUE"), ("keyword", "FALSE"),
            ("keyword", "BOOLEAN"), ("keyword", "CHOOSE")]

    def test_two_char_operators(self):
        assert lexemes("== => <= >= /= .. << >>") == [
            ("op", "=="), ("op", "=>"), ("op", "<="), ("op", ">="),
            ("op", "/="), ("op", ".."), ("op", "<<"), ("op", ">>")]

    def test_junction_operators(self):
        assert lexemes("/\\ \\/") == [("op", "/\\"), ("op", "\\/")]

    def test_backslash_words(self):
        assert lexemes("\\in \\A \\E") == [
            ("op", "\\in"), ("op", "\\A"), ("op", "\\E")]

    def test_negated_comparison_spellings(self):
        assert lexemes("\\nleq \\nless \\ngeq \\ngeqslant \\ngtr") == [
            ("op", "\\nleq"), ("op", "\\nless"), ("op", "\\ngeq"),
            ("op", "\\ngeqslant"), ("op", "\\ngtr")]

    def test_one_char_operators(self):
        assert lexemes("= ' ~ < > # : ( ) { } , + -") == [
            ("op", c) for c in "='~<>#:(){},+-"]

    def test_newlines_make_no_token(self):
        toks = tokenize("a\nb\n")
        assert [(t.kind, t.lexeme, t.line, t.col) for t in toks] == [
            ("ident", "a", 1, 0), ("ident", "b", 2, 0)]

    def test_positions_track_lines_and_columns(self):
        toks = tokenize("ab\n  cd")
        cd = toks[-1]
        assert (cd.line, cd.col) == (2, 2)

    def test_multidigit_integers(self):
        assert lexemes("1000") == [("int", "1000")]

    def test_identifiers_may_contain_underscores_and_digits(self):
        assert lexemes("big_ne_4") == [("ident", "big_ne_4")]

    def test_tabs_and_cr_are_plain_whitespace(self):
        assert lexemes("a\t\rb") == [("ident", "a"), ("ident", "b")]


class TestLexErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError) as err:
            tokenize("b @ 1")
        assert "@" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 2)

    def test_unknown_backslash_operator(self):
        with pytest.raises(LexError, match="nope"):
            tokenize("a \\nope b")

    def test_module_delimiter_rejected(self):
        with pytest.raises(LexError, match="module delimiter"):
            tokenize("---- MODULE clock ----")

    def test_error_positions_are_one_based_lines(self):
        with pytest.raises(LexError) as err:
            tokenize("ok\n   ?")
        assert (err.value.line, err.value.col) == (2, 3)

    def test_error_renders_position_first(self):
        with pytest.raises(LexError) as err:
            tokenize("?")
        assert str(err.value).startswith("1:0: ")
