"""Tokenizer: lexeme recognition, positions, rejection of the unknown."""

import pytest

from tmbt.errors import LexError
from tmbt.tla import parse_expression, tokenize


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

    def test_crlf_ends_a_line(self):
        b = tokenize("a\r\nb")[-1]
        assert (b.lexeme, b.line, b.col) == ("b", 2, 0)

    def test_dashes_short_of_a_delimiter_are_minus_signs(self):
        assert lexemes("x---y") == [
            ("ident", "x"), ("op", "-"), ("op", "-"), ("op", "-"),
            ("ident", "y")]

    def test_backslash_before_a_slash_is_a_disjunction(self):
        toks = tokenize("a\\/b")
        assert [(t.kind, t.lexeme, t.col) for t in toks] == [
            ("ident", "a", 0), ("op", "\\/", 1), ("ident", "b", 3)]

    def test_backslash_word_ends_before_a_disjunction(self):
        toks = tokenize("\\in\\/")
        assert [(t.lexeme, t.col) for t in toks] == [("\\in", 0), ("\\/", 3)]

    def test_identifiers_are_ascii_words(self):
        for source, message in (("x²", "1:1: unexpected character '²'"),
                                ("été", "1:0: unexpected character 'é'")):
            with pytest.raises(LexError) as err:
                tokenize(source)
            assert str(err.value) == message

    def test_integers_are_ascii_decimal_digits(self):
        with pytest.raises(LexError) as err:
            parse_expression("٣")
        assert str(err.value) == "1:0: unexpected character '٣'"


class TestLexErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError) as err:
            tokenize("b @ 1")
        assert "@" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 2)

    def test_unknown_backslash_operator(self):
        with pytest.raises(LexError, match="nope"):
            tokenize("a \\nope b")

    @pytest.mark.parametrize("source,message", [
        ("a \\", "1:2: unexpected character '\\\\'"),
        ("a \\1", "1:2: unknown operator '\\\\'"),
        ("a ----", "1:2: module delimiter lines are not part of the subset"),
        ("a ½", "1:2: unexpected character '½'"),
        ("\\in½", "1:3: unexpected character '½'"),
        ("\\x½", "1:0: unknown operator '\\\\x'"),
        ("a ²", "1:2: unexpected character '²'"),
        ("1²", "1:1: unexpected character '²'"),
        ("\\é", "1:0: unknown operator '\\\\'"),
        ("ab\\/é", "1:4: unexpected character 'é'"),
    ], ids=["backslash-at-end", "backslash-before-digit", "delimiter",
            "fraction", "fraction-after-operator", "fraction-after-unknown",
            "superscript", "superscript-after-digit", "accent-after-backslash",
            "accent-after-disjunction"])
    def test_edges(self, source, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value) == message

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
