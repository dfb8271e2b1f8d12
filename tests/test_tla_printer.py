"""Printer: golden strings, parenthesization policy, parse round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmbt.spec as sp
from tmbt.errors import TypeMismatch
from tmbt.tla import (
    parse_expression,
    parse_module,
    pretty_print,
    print_expression,
    print_spec,
    to_spec,
)
from tmbt.values import BOOLEANS, SetVal

import astgen

B = sp.Var("b")


class TestGoldenStrings:
    def test_disjunction_of_equations(self):
        expr = sp.Or(sp.Eq(B, sp.intval(0)), sp.Eq(B, sp.intval(1)))
        assert pretty_print(expr) == "(b = 0) \\/ (b = 1)"

    def test_boolean_constant(self):
        assert pretty_print(sp.boolval(True)) == "TRUE"
        assert pretty_print(sp.boolval(False)) == "FALSE"
        assert pretty_print(sp.Const(BOOLEANS)) == "BOOLEAN"

    def test_negative_integer(self):
        assert pretty_print(sp.intval(-7)) == "-7"

    def test_primed_variable(self):
        # comparisons are bare at top level, parenthesized under connectives
        assert pretty_print(sp.Eq(sp.Primed("b"), sp.intval(1))) == "b' = 1"

    def test_membership_and_range(self):
        expr = sp.In(B, sp.IntRange(sp.intval(0), sp.intval(5)))
        assert pretty_print(expr) == "b \\in 0..5"

    def test_quantifier(self):
        expr = sp.Forall("n", sp.IntRange(sp.intval(1), sp.intval(3)),
                         sp.Gt(sp.Var("n"), sp.intval(0)))
        assert pretty_print(expr) == "\\A n \\in 1..3 : n > 0"

    def test_negated_comparison_lexemes(self):
        assert pretty_print(sp.NotGe(B, sp.intval(1))) == "b \\ngeq 1"
        assert pretty_print(sp.NotLt(B, sp.intval(1))) == "b \\nless 1"
        assert pretty_print(sp.Neq(B, sp.intval(4))) == "b # 4"


class TestParenthesization:
    def test_same_operator_nests_bare_left_wrapped_right(self):
        a, b, c = sp.Var("a"), sp.Var("b"), sp.Var("c")
        assert print_expression(sp.Or(sp.Or(a, b), c)) == "a \\/ b \\/ c"
        assert print_expression(sp.Or(a, sp.Or(b, c))) == "a \\/ (b \\/ c)"

    def test_and_under_or_is_bare(self):
        a, b, c = sp.Var("a"), sp.Var("b"), sp.Var("c")
        assert print_expression(sp.Or(a, sp.And(b, c))) == "a \\/ b /\\ c"
        assert print_expression(sp.And(a, sp.Or(b, c))) == "a /\\ (b \\/ c)"

    def test_implies_children(self):
        a, b, c = sp.Var("a"), sp.Var("b"), sp.Var("c")
        assert print_expression(sp.Implies(sp.Implies(a, b), c)) == "(a => b) => c"
        assert print_expression(sp.Implies(a, sp.Implies(b, c))) == "a => b => c"

    def test_not_operand_is_atomic(self):
        a, b = sp.Var("a"), sp.Var("b")
        assert print_expression(sp.Not(sp.And(a, b))) == "~(a /\\ b)"
        assert print_expression(sp.Not(a)) == "~a"

    def test_comparison_under_connective_is_parenthesized(self):
        expr = sp.And(sp.Eq(B, sp.intval(0)), sp.Lt(B, sp.intval(2)))
        assert print_expression(expr) == "(b = 0) /\\ (b < 2)"

    def test_nested_ranges(self):
        a, b, c = sp.Var("a"), sp.Var("b"), sp.Var("c")
        assert print_expression(sp.IntRange(sp.IntRange(a, b), c)) == "(a..b)..c"
        assert print_expression(sp.IntRange(a, sp.IntRange(b, c))) == "a..(b..c)"

    def test_subtraction_associativity(self):
        a, b, c = sp.Var("a"), sp.Var("b"), sp.Var("c")
        assert print_expression(sp.Sub(sp.Sub(a, b), c)) == "a - b - c"
        assert print_expression(sp.Sub(a, sp.Sub(b, c))) == "a - (b - c)"

    def test_subtracting_a_negative_literal(self):
        expr = sp.Sub(sp.Var("a"), sp.intval(-3))
        assert print_expression(expr) == "a - -3"
        assert parse_expression("a - -3") == expr


class TestUnprintable:
    def test_container_constants_other_than_boolean(self):
        with pytest.raises(TypeMismatch, match="BOOLEAN"):
            pretty_print(sp.Const(SetVal([1])))

    def test_spec_without_actions(self):
        spec = sp.TemporalSpec("t", ("b",), sp.Eq(B, sp.intval(0)), ())
        with pytest.raises(TypeMismatch, match="at least one action"):
            print_spec(spec)


class TestSpecPrinting:
    def one_bit(self):
        source = ("VARIABLE b\n"
                  "Init ==  (b = 0) \\/ (b = 1)\n"
                  "Next == \\/ /\\ b = 0\n"
                  "           /\\ b' = 1\n"
                  "        \\/ /\\ b = 1\n"
                  "           /\\ b' = 0\n")
        return to_spec(parse_module(source), name="onebit")

    def test_module_shape(self):
        text = print_spec(self.one_bit())
        lines = text.splitlines()
        assert lines[0] == "VARIABLES b"
        assert lines[1].startswith("Init == ")
        assert lines[-2] == "Next == \\/ A1"
        assert lines[-1] == "        \\/ A2"  # aligned under the first bullet

    def test_whole_spec_round_trip(self):
        spec = self.one_bit()
        again = to_spec(parse_module(print_spec(spec)), name="onebit")
        assert again == spec

    def test_invariants_survive_the_round_trip(self):
        source = ("VARIABLE b\n"
                  "TypeOK == b \\in 0..1\n"
                  "Init == b = 0\n"
                  "Next == b' = 1 - b\n")
        spec = to_spec(parse_module(source))
        again = to_spec(parse_module(print_spec(spec)))
        assert again.invariants == spec.invariants

    def test_pretty_print_dispatches_on_type(self):
        spec = self.one_bit()
        assert pretty_print(spec) == print_spec(spec)
        assert pretty_print(spec.init) == print_expression(spec.init)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_random_trees(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            tree = astgen.random_expr(rng)
            assert parse_expression(pretty_print(tree)) == tree

    @settings(max_examples=200)
    @given(st.integers(0, 2**32))
    def test_arbitrary_seeds(self, seed):
        tree = astgen.random_expr(random.Random(seed))
        assert parse_expression(pretty_print(tree)) == tree

    def test_printed_trees_are_single_line(self):
        for tree in astgen.random_exprs(seed=1, count=100):
            assert "\n" not in pretty_print(tree)
