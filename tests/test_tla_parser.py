"""Parser: expression grammar, bulleted junction lists, module assembly."""

import pytest

import tmbt.spec as sp
from tmbt.errors import (
    MissingDefinition,
    ParseError,
    PrimedInStateFormula,
    UnboundedDomain,
    UnboundVariable,
    UnsupportedConstruct,
)
from tmbt.explore import explore
from tmbt.tla import ParsedModule, parse_expression, parse_module, to_spec
from tmbt.values import BOOLEANS, INT64_MAX, INT64_MIN

ONE_BIT = """\
VARIABLE b
Init ==  (b = 0) \\/ (b = 1)
Next == \\/ /\\ b = 0
           /\\ b' = 1
        \\/ /\\ b = 1
           /\\ b' = 0
"""

B = sp.Var("b")
B_NEXT = sp.Primed("b")
ZERO, ONE = sp.intval(0), sp.intval(1)

GOLDEN_INIT = sp.Or(sp.Eq(B, ZERO), sp.Eq(B, ONE))
GOLDEN_NEXT = sp.Or(sp.And(sp.Eq(B, ZERO), sp.Eq(B_NEXT, ONE)),
                    sp.And(sp.Eq(B, ONE), sp.Eq(B_NEXT, ZERO)))


class TestExpressionGrammar:
    def test_precedence_ties_and_tighter_than_or(self):
        got = parse_expression("a \\/ b /\\ c")
        assert got == sp.Or(sp.Var("a"), sp.And(sp.Var("b"), sp.Var("c")))

    def test_implies_is_loosest_and_right_associative(self):
        got = parse_expression("a => b => c")
        assert got == sp.Implies(sp.Var("a"),
                                 sp.Implies(sp.Var("b"), sp.Var("c")))

    def test_and_or_are_left_associative(self):
        got = parse_expression("a /\\ b /\\ c")
        assert got == sp.And(sp.And(sp.Var("a"), sp.Var("b")), sp.Var("c"))

    def test_not_binds_tighter_than_and(self):
        got = parse_expression("~a /\\ b")
        assert got == sp.And(sp.Not(sp.Var("a")), sp.Var("b"))

    def test_comparisons_bind_tighter_than_connectives(self):
        got = parse_expression("x = 0 /\\ y = 1")
        assert got == sp.And(sp.Eq(sp.Var("x"), ZERO), sp.Eq(sp.Var("y"), ONE))

    def test_all_comparison_lexemes(self):
        cases = {
            "x = y": sp.Eq, "x /= y": sp.Neq, "x # y": sp.Neq,
            "x < y": sp.Lt, "x <= y": sp.Le, "x > y": sp.Gt, "x >= y": sp.Ge,
            "x \\nless y": sp.NotLt, "x \\nleq y": sp.NotLe,
            "x \\ngtr y": sp.NotGt, "x \\ngeq y": sp.NotGe,
            "x \\ngeqslant y": sp.NotGe,
        }
        for source, node in cases.items():
            assert parse_expression(source) == node(sp.Var("x"), sp.Var("y"))

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError):
            parse_expression("a = b = c")

    def test_range_binds_tighter_than_comparison(self):
        got = parse_expression("x \\in 1..3")
        assert got == sp.In(sp.Var("x"), sp.IntRange(ONE, sp.intval(3)))

    def test_additive_binds_tighter_than_range(self):
        got = parse_expression("x - 1..x + 1")
        assert got == sp.IntRange(sp.Sub(sp.Var("x"), ONE),
                                  sp.Add(sp.Var("x"), ONE))

    def test_unary_minus_makes_negative_literals(self):
        assert parse_expression("-3") == sp.intval(-3)
        assert parse_expression("x - -3") == sp.Sub(sp.Var("x"), sp.intval(-3))

    def test_literals_span_int64(self):
        assert parse_expression("9223372036854775807") == sp.intval(INT64_MAX)
        assert parse_expression("-9223372036854775808") == sp.intval(INT64_MIN)

    @pytest.mark.parametrize("literal", [
        "9223372036854775808", "-9223372036854775809", "9" * 5000,
    ], ids=["past-max", "past-min", "5000-digits"])
    def test_literals_outside_int64_are_positioned_errors(self, literal):
        with pytest.raises(ParseError) as err:
            parse_expression(f"x = {literal}")
        assert str(err.value) == (
            "1:4: integer literal outside signed 64-bit range")

    def test_primes(self):
        assert parse_expression("b' = b + 1") == sp.Eq(
            B_NEXT, sp.Add(B, ONE))

    def test_boolean_constants(self):
        assert parse_expression("TRUE") == sp.boolval(True)
        assert parse_expression("FALSE") == sp.boolval(False)
        assert parse_expression("x \\in BOOLEAN") == sp.In(sp.Var("x"),
                                                           sp.Const(BOOLEANS))

    def test_set_and_seq_literals(self):
        assert parse_expression("{0, 1}") == sp.SetLit((ZERO, ONE))
        assert parse_expression("{}") == sp.SetLit(())
        assert parse_expression("<<1, 0>>") == sp.SeqLit((ONE, ZERO))
        assert parse_expression("<<>>") == sp.SeqLit(())

    def test_quantifiers_extend_maximally_right(self):
        got = parse_expression("\\A n \\in 1..3 : n > 0 /\\ n < 9")
        body = sp.And(sp.Gt(sp.Var("n"), ZERO), sp.Lt(sp.Var("n"), sp.intval(9)))
        assert got == sp.Forall("n", sp.IntRange(ONE, sp.intval(3)), body)

    def test_exists_and_choose(self):
        got = parse_expression("\\E n \\in {1} : n = 1")
        assert isinstance(got, sp.Exists)
        got = parse_expression("CHOOSE n \\in {1} : n = 1")
        assert isinstance(got, sp.Choose)

    def test_parentheses_override_everything(self):
        got = parse_expression("(a \\/ b) /\\ c")
        assert got == sp.And(sp.Or(sp.Var("a"), sp.Var("b")), sp.Var("c"))

    def test_trailing_input_is_an_error(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_expression("a b")


class TestJunctionLists:
    def test_bulleted_list_parses_like_parenthesized_form(self):
        bulleted = parse_module(ONE_BIT)
        flat = parse_module(
            "VARIABLE b\n"
            "Init ==  (b = 0) \\/ (b = 1)\n"
            "Next == (b = 0 /\\ b' = 1) \\/ (b = 1 /\\ b' = 0)\n")
        assert bulleted.definition_map() == flat.definition_map()

    def test_inner_list_ends_at_outer_bullet_column(self):
        # the second \/ bullet must not be swallowed by the inner /\ list
        module = parse_module(ONE_BIT)
        assert module.definition_map()["Next"] == GOLDEN_NEXT

    def test_single_item_list(self):
        module = parse_module("VARIABLE b\nInit == /\\ b = 0\n")
        assert module.definition_map()["Init"] == sp.Eq(B, ZERO)

    def test_deeper_continuation_lines_join_the_item(self):
        source = ("VARIABLE b\n"
                  "Init == \\/ b = 0\n"
                  "        \\/ b =\n"
                  "             1\n")
        assert parse_module(source).definition_map()["Init"] == GOLDEN_INIT

    def test_tokens_left_of_the_fence_end_the_item(self):
        source = ("VARIABLE b\n"
                  "Init == \\/ b =\n"
                  "   0\n")  # the literal sits left of the bullet column
        with pytest.raises(ParseError) as err:
            parse_module(source)
        assert (err.value.line, err.value.col) == (3, 3)

    def test_understated_bullet_joins_the_enclosing_level(self):
        # a bullet left of the opening column is no continuation; at an
        # unfenced level it reads as an ordinary infix operator instead
        source = ("VARIABLE b\n"
                  "Init == \\/ b = 0\n"
                  "      \\/ b = 1\n")
        assert parse_module(source).definition_map()["Init"] == GOLDEN_INIT


class TestModules:
    def test_one_bit_module_golden_ast(self):
        module = parse_module(ONE_BIT)
        assert module.variables == ("b",)
        assert module.names() == ("Init", "Next")
        defs = module.definition_map()
        assert defs["Init"] == GOLDEN_INIT
        assert defs["Next"] == GOLDEN_NEXT

    def test_variables_accepts_comma_list(self):
        module = parse_module("VARIABLES x, y\nInit == x = 0 /\\ y = 0\n")
        assert module.variables == ("x", "y")

    def test_definitions_may_reference_earlier_ones(self):
        source = ("VARIABLE b\n"
                  "Zero == b = 0\n"
                  "Init == Zero \\/ b = 1\n")
        defs = parse_module(source).definition_map()
        assert defs["Init"] == sp.Or(sp.Eq(B, ZERO), sp.Eq(B, ONE))

    def test_forward_references_are_rejected(self):
        source = "VARIABLE b\nInit == Later\nLater == b = 0\n"
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_module(source)

    def test_duplicate_definition_rejected(self):
        source = "VARIABLE b\nInit == b = 0\nInit == b = 1\n"
        with pytest.raises(ParseError, match="already defined"):
            parse_module(source)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError, match="declared twice"):
            parse_module("VARIABLES b, b\nInit == b = 0\n")

    def test_reserved_words_are_reported_as_unsupported(self):
        with pytest.raises(UnsupportedConstruct, match="EXTENDS"):
            parse_module("EXTENDS Naturals\nVARIABLE b\nInit == b = 0\n")

    def test_unsupported_construct_in_expression(self):
        with pytest.raises(UnsupportedConstruct, match="UNCHANGED"):
            parse_module("VARIABLE b\nNext == UNCHANGED b\n")

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_module("VARIABLE b\nInit == = 0\n")
        assert (err.value.line, err.value.col) == (2, 8)

    @pytest.mark.parametrize("ending", ["", "\n", "\n\n"])
    def test_end_of_input_lies_just_past_the_last_token(self, ending):
        with pytest.raises(ParseError, match="expected an expression") as err:
            parse_module("VARIABLE b\nInit == b =" + ending)
        assert (err.value.line, err.value.col) == (2, 11)


class TestToSpec:
    def test_one_bit_spec_assembly(self):
        spec = to_spec(parse_module(ONE_BIT), name="onebit")
        assert spec.name == "onebit"
        assert spec.variables == ("b",)
        assert spec.init == GOLDEN_INIT
        assert [a.name for a in spec.actions] == ["A1", "A2"]  # inline disjuncts
        assert sp.Or(sp.And(spec.actions[0].formula, sp.boolval(True)),
                     sp.boolval(True))  # formulas are plain spec-core trees
        assert spec.actions[0].formula == GOLDEN_NEXT.parts[0]
        assert spec.actions[1].formula == GOLDEN_NEXT.parts[1]

    def test_named_disjuncts_keep_their_names(self):
        source = ("VARIABLE b\n"
                  "Init == b = 0\n"
                  "Up == b = 0 /\\ b' = 1\n"
                  "Down == b = 1 /\\ b' = 0\n"
                  "Next == Up \\/ Down\n")
        spec = to_spec(parse_module(source))
        assert [a.name for a in spec.actions] == ["Up", "Down"]
        assert spec.actions[0].formula == sp.And(sp.Eq(B, ZERO),
                                                 sp.Eq(B_NEXT, ONE))

    def test_type_ok_is_picked_up_as_invariant(self):
        source = ("VARIABLE b\n"
                  "TypeOK == b \\in 0..1\n"
                  "Init == b = 0\n"
                  "Next == b' = 1 - b\n")
        spec = to_spec(parse_module(source))
        assert [n for n, _ in spec.invariants] == ["TypeOK"]

    def test_extra_invariants_by_name(self):
        source = ("VARIABLE b\n"
                  "Init == b = 0\n"
                  "Next == b' = 1 - b\n"
                  "Small == b < 2\n")
        spec = to_spec(parse_module(source), invariant_names=("Small",))
        assert [n for n, _ in spec.invariants] == ["Small"]

    def test_missing_init(self):
        with pytest.raises(MissingDefinition, match="Init"):
            to_spec(parse_module("VARIABLE b\nNext == b' = 0\n"))

    def test_missing_next(self):
        with pytest.raises(MissingDefinition, match="Next"):
            to_spec(parse_module("VARIABLE b\nInit == b = 0\n"))

    def test_missing_named_invariant(self):
        module = parse_module("VARIABLE b\nInit == b = 0\nNext == b' = 0\n")
        with pytest.raises(MissingDefinition, match="Ghost"):
            to_spec(module, invariant_names=("Ghost",))

    def test_empty_module_reports_missing_init(self):
        with pytest.raises(MissingDefinition, match="Init"):
            to_spec(parse_module(""))

    def test_primed_variable_in_init_is_rejected(self):
        source = "VARIABLE b\nInit == b' = 0\nNext == b' = 0\n"
        with pytest.raises(PrimedInStateFormula):
            to_spec(parse_module(source))

    def test_undeclared_variable_is_rejected(self):
        source = "VARIABLE b\nInit == b = 0\nNext == c' = 0\n"
        with pytest.raises(UnboundVariable):
            to_spec(parse_module(source))

    def test_a_named_invariant_is_checked_but_gives_no_domain(self):
        # only TypeOK states domains: `Inv` is an ordinary invariant
        source = ("VARIABLE b\n"
                  "Inv == b \\in 0..1\n"
                  "Init == b = 0\n"
                  "Next == b' > b\n")
        spec = to_spec(parse_module(source), invariant_names=("Inv",))
        assert [n for n, _ in spec.invariants] == ["Inv"]
        with pytest.raises(UnboundedDomain, match="TypeOK gives it no domain"):
            explore(spec)
        typed_source = source.replace("Inv ==", "TypeOK == b \\in 0..2\nInv ==")
        typed = to_spec(parse_module(typed_source), invariant_names=("Inv",))
        assert [n for n, _ in typed.invariants] == ["TypeOK", "Inv"]
        _, stats, cexs = explore(typed)
        assert stats.distinct_states == 3
        assert [c.invariant for c in cexs] == ["Inv"]
        assert [s["b"] for s in cexs[0].trace.states] == [0, 2]


class TestErrorSites:
    """Each raise site of the parser, with its error's type, message,
    line and column."""

    @pytest.mark.parametrize("source, kind, message, line, col", [
        ("VARIABLE x\nInit == \\E v \\in {1} x = v\n", ParseError,
         "expected ':', found 'x' at 2:21", 2, 21),
        ("VARIABLE x\nInit == \\E v \\in {1}", ParseError,
         "expected ':', found end of input", 2, 20),
        ("VARIABLE x\nInit == /\\ x = 1 /\\\nx = 2\n", ParseError,
         "expected an expression", 3, 0),  # the conjunct left of the bullet
        ("VARIABLE x\nInit == \\A 1 \\in {1} : x = 1\n", ParseError,
         "expected a bound variable after \\A", 2, 11),
        ("VARIABLE x\nInit == x = - y\n", ParseError,
         "expected an integer after unary '-'", 2, 14),
        ("VARIABLE x\nInit == x = VARIABLE\n", ParseError,
         "VARIABLE cannot start an expression", 2, 12),
        ("VARIABLE 1\n", ParseError, "expected a variable name", 1, 9),
        ("VARIABLES x, IF\n", UnsupportedConstruct,
         "IF is outside the supported subset", 1, 13),
        ("VARIABLE x\nInit x = 1\n", ParseError,
         "expected a declaration or definition, found 'Init' at 2:0", 2, 0),
    ])
    def test_module_errors(self, source, kind, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_module(source)
        assert type(err.value) is kind
        assert (err.value.args[0], err.value.line, err.value.col) == (
            message, line, col)

    def test_raw_of_a_missing_name(self):
        module = parse_module("VARIABLE x\nInit == x = 1\n")
        with pytest.raises(MissingDefinition) as err:
            module.raw("Ghost")
        assert type(err.value) is MissingDefinition
        assert str(err.value) == "no definition named 'Ghost'"

    def test_to_spec_of_a_module_declaring_a_variable_twice(self):
        x = sp.Var("x")
        module = ParsedModule(("x", "x"), (
            ("Init", sp.Eq(x, ZERO)), ("Next", sp.Eq(sp.Primed("x"), ZERO))))
        with pytest.raises(ParseError) as err:
            to_spec(module)
        assert type(err.value) is ParseError
        assert (err.value.args[0], err.value.line, err.value.col) == (
            "variables: duplicate-variable: x declared twice", 0, 0)
