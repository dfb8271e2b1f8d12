"""Expression evaluation: operators, quantifiers, CHOOSE, failure modes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tmbt.spec as sp
from tmbt.errors import (
    EmptyChooseDomain,
    IntegerOverflow,
    PrimedInStateFormula,
    TypeMismatch,
    UnboundVariable,
)
from tmbt.values import FALSE, TRUE, BoolVal, SetVal

S0 = sp.State({"b": 0, "flag": TRUE})
S1 = sp.State({"b": 1, "flag": FALSE})


def ev(expr, current=S0, nxt=None, env=None):
    return sp.eval_expr(expr, current, nxt, env)


class TestAtoms:
    def test_const(self):
        assert ev(sp.intval(7)) == 7
        assert ev(sp.boolval(True)) == TRUE

    def test_var_reads_current_state(self):
        assert ev(sp.Var("b")) == 0
        assert ev(sp.Var("b"), S1) == 1

    def test_env_shadows_state(self):
        assert ev(sp.Var("b"), env={"b": 9}) == 9

    def test_unbound_var(self):
        with pytest.raises(UnboundVariable):
            ev(sp.Var("ghost"))

    def test_primed_reads_next_state(self):
        assert ev(sp.Primed("b"), S0, S1) == 1

    def test_primed_without_next_state(self):
        with pytest.raises(PrimedInStateFormula):
            ev(sp.Primed("b"))


class TestConnectives:
    def test_truth_tables(self):
        t, f = sp.boolval(True), sp.boolval(False)
        assert ev(sp.And(t, f)) == FALSE
        assert ev(sp.Or(f, t)) == TRUE
        assert ev(sp.Implies(f, f)) == TRUE  # vacuous
        assert ev(sp.Implies(t, f)) == FALSE
        assert ev(sp.Not(f)) == TRUE

    def test_and_short_circuits(self):
        bomb = sp.Var("ghost")  # would raise if reached
        assert ev(sp.And(sp.boolval(False), bomb)) == FALSE

    def test_or_short_circuits(self):
        bomb = sp.Var("ghost")
        assert ev(sp.Or(sp.boolval(True), bomb)) == TRUE

    def test_implies_short_circuits(self):
        bomb = sp.Var("ghost")
        assert ev(sp.Implies(sp.boolval(False), bomb)) == TRUE

    def test_connectives_demand_booleans(self):
        with pytest.raises(TypeMismatch):
            ev(sp.And(sp.intval(1), sp.boolval(True)))

    def test_conj_disj_builders(self):
        t, f = sp.boolval(True), sp.boolval(False)
        assert sp.conj(t, f, t) == sp.And(sp.And(t, f), t)  # left-nested
        assert sp.disj(t, f) == sp.Or(t, f)


class TestEquality:
    def test_eq_is_structural(self):
        assert ev(sp.Eq(sp.Var("b"), sp.intval(0))) == TRUE
        assert ev(sp.Eq(sp.Var("flag"), sp.boolval(True))) == TRUE

    def test_eq_across_kinds_is_false_not_an_error(self):
        assert ev(sp.Eq(sp.intval(1), sp.boolval(True))) == FALSE

    def test_integers_are_never_booleans(self):
        # Python has `1 == True` and `hash(1) == hash(True)`; TLA+ has not
        assert ev(sp.Eq(sp.intval(0), sp.boolval(False))) == FALSE
        assert ev(sp.Neq(sp.intval(1), sp.boolval(True))) == TRUE
        four = ev(sp.SetLit((sp.intval(0), sp.intval(1),
                             sp.boolval(False), sp.boolval(True))))
        assert len(four.elements) == 4
        assert ev(sp.In(sp.intval(1), sp.Const(four))) == TRUE
        assert ev(sp.In(sp.intval(1), sp.SetLit((sp.boolval(True),)))) == FALSE

    def test_neq(self):
        assert ev(sp.Neq(sp.Var("b"), sp.intval(4))) == TRUE

    def test_set_equality_ignores_duplicates(self):
        one_two = sp.SetLit((sp.intval(1), sp.intval(2), sp.intval(1)))
        assert ev(sp.Eq(one_two, sp.IntRange(sp.intval(1), sp.intval(2)))) == TRUE


class TestComparisonsAndArithmetic:
    def test_orderings(self):
        assert ev(sp.Lt(sp.intval(1), sp.intval(2))) == TRUE
        assert ev(sp.Le(sp.intval(2), sp.intval(2))) == TRUE
        assert ev(sp.Gt(sp.intval(1), sp.intval(2))) == FALSE
        assert ev(sp.Ge(sp.intval(2), sp.intval(3))) == FALSE

    def test_negated_forms(self):
        assert ev(sp.NotLt(sp.intval(2), sp.intval(2))) == TRUE  # ~(2 < 2)
        assert ev(sp.NotLe(sp.intval(3), sp.intval(2))) == TRUE
        assert ev(sp.NotGt(sp.intval(2), sp.intval(2))) == TRUE
        assert ev(sp.NotGe(sp.intval(1), sp.intval(2))) == TRUE

    def test_comparisons_demand_integers(self):
        with pytest.raises(TypeMismatch):
            ev(sp.Lt(sp.boolval(True), sp.intval(1)))

    def test_add_sub(self):
        assert ev(sp.Add(sp.intval(2), sp.intval(3))) == 5
        assert ev(sp.Sub(sp.intval(2), sp.intval(3))) == -1

    def test_overflow_is_detected(self):
        big = sp.intval(2**63 - 1)
        with pytest.raises(IntegerOverflow):
            ev(sp.Add(big, sp.intval(1)))
        with pytest.raises(IntegerOverflow):
            ev(sp.Sub(sp.intval(-(2**63)), sp.intval(1)))

    @given(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
    def test_negated_comparisons_match_complements(self, a, b):
        pairs = [(sp.NotLt, sp.Ge), (sp.NotLe, sp.Gt),
                 (sp.NotGt, sp.Le), (sp.NotGe, sp.Lt)]
        for negated, plain in pairs:
            lhs, rhs = sp.intval(a), sp.intval(b)
            assert ev(negated(lhs, rhs)) == ev(plain(lhs, rhs))


class TestSetsAndRanges:
    def test_membership(self):
        dom = sp.SetLit((sp.intval(0), sp.intval(1)))
        assert ev(sp.In(sp.Var("b"), dom)) == TRUE
        assert ev(sp.In(sp.intval(5), dom)) == FALSE

    def test_in_demands_a_set(self):
        with pytest.raises(TypeMismatch):
            ev(sp.In(sp.intval(1), sp.intval(2)))

    def test_int_range_is_inclusive(self):
        assert ev(sp.IntRange(sp.intval(1), sp.intval(3))) == SetVal(
            [1, 2, 3])

    def test_empty_range(self):
        assert ev(sp.IntRange(sp.intval(3), sp.intval(1))) == SetVal(())

    def test_seq_literal_keeps_order(self):
        v = ev(sp.SeqLit((sp.intval(2), sp.intval(1))))
        assert v.items == (2, 1)


class TestQuantifiers:
    DOM = sp.IntRange(sp.intval(1), sp.intval(4))

    def test_forall(self):
        body = sp.Gt(sp.Var("n"), sp.intval(0))
        assert ev(sp.Forall("n", self.DOM, body)) == TRUE

    def test_exists(self):
        body = sp.Eq(sp.Var("n"), sp.intval(3))
        assert ev(sp.Exists("n", self.DOM, body)) == TRUE
        assert ev(sp.Exists("n", self.DOM, sp.Gt(sp.Var("n"), sp.intval(9)))) == FALSE

    def test_forall_over_empty_domain_is_true(self):
        empty = sp.SetLit(())
        assert ev(sp.Forall("n", empty, sp.boolval(False))) == TRUE

    def test_exists_over_empty_domain_is_false(self):
        empty = sp.SetLit(())
        assert ev(sp.Exists("n", empty, sp.boolval(True))) == FALSE

    def test_bound_variable_shadows_state(self):
        body = sp.Eq(sp.Var("b"), sp.intval(2))
        assert ev(sp.Exists("b", self.DOM, body)) == TRUE  # b rebinds 0

    def test_nested_quantifiers(self):
        inner = sp.Exists("m", self.DOM, sp.Eq(sp.Add(sp.Var("n"), sp.Var("m")),
                                               sp.intval(5)))
        assert ev(sp.Forall("n", self.DOM, inner)) == TRUE

    @given(st.sets(st.integers(-20, 20), max_size=8), st.integers(-20, 20))
    def test_quantifier_duality(self, members, pivot):
        dom = sp.Const(SetVal(members))
        body = sp.Lt(sp.Var("n"), sp.intval(pivot))
        forall = ev(sp.Forall("n", dom, body))
        negated_exists = ev(sp.Not(sp.Exists("n", dom, sp.Not(body))))
        assert forall == negated_exists

    @given(st.booleans(), st.booleans())
    def test_implication_as_disjunction(self, p, q):
        direct = ev(sp.Implies(sp.boolval(p), sp.boolval(q)))
        rewritten = ev(sp.Or(sp.Not(sp.boolval(p)), sp.boolval(q)))
        assert direct == rewritten


class TestChoose:
    DOM = sp.IntRange(sp.intval(1), sp.intval(9))

    def test_picks_canonically_smallest_witness(self):
        body = sp.Gt(sp.Var("n"), sp.intval(4))
        assert ev(sp.Choose("n", self.DOM, body)) == 5

    def test_empty_witness_set(self):
        body = sp.Gt(sp.Var("n"), sp.intval(100))
        with pytest.raises(EmptyChooseDomain):
            ev(sp.Choose("n", self.DOM, body))

    def test_choose_helper(self):
        dom = SetVal([3, 1, 2])
        got = sp.choose("n", dom, sp.Gt(sp.Var("n"), sp.intval(1)), S0)
        assert got == 2  # smallest satisfying, not first inserted


class TestFormulaWrappers:
    def test_state_formula(self):
        assert sp.eval_state_formula(sp.Eq(sp.Var("b"), sp.intval(0)), S0)
        assert not sp.eval_state_formula(sp.Eq(sp.Var("b"), sp.intval(0)), S1)

    def test_state_formula_demands_boolean(self):
        with pytest.raises(TypeMismatch):
            sp.eval_state_formula(sp.intval(1), S0)

    def test_action_formula_relates_two_states(self):
        step = sp.And(sp.Eq(sp.Var("b"), sp.intval(0)),
                      sp.Eq(sp.Primed("b"), sp.intval(1)))
        assert sp.eval_action_formula(step, S0, S1)
        assert not sp.eval_action_formula(step, S1, S0)

    def test_primed_on_both_sides_of_equality(self):
        # b' = b + 1 relates S0 to S1
        step = sp.Eq(sp.Primed("b"), sp.Add(sp.Var("b"), sp.intval(1)))
        assert sp.eval_action_formula(step, S0, S1)
