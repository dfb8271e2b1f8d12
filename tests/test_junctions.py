"""n-ary And and Or against the binary junctions they replaced.

A junction holds its parts as a list.  Its constructor splices a first
part of its own kind and keeps a later one nested, so each node is one
maximal left-nested binary chain and every binary tree has one n-ary
form.  The IR still writes the binary form.  On random trees with
junctions nested both ways, the codec and the printer must give what
the recursive binary walkers in `tree_walkers` give over the binary
view, and decoding must invert encoding.  Long junctions must compare,
hash and print without recursing once per part, and a right-nested one
must evaluate and walk without recursing once per level.
"""

import pytest

import astgen
import tree_walkers

import tmbt.ir as ir
import tmbt.spec as sp
from tmbt.errors import TypeMismatch
from tmbt.explore import derive_domains, initial_states, successors
from tmbt.tla import parse_expression, print_expression

A, B, C, D = (sp.Var(name) for name in "abcd")


def _junctions(tree) -> list:
    """Every And and Or node of a tree."""
    found = []
    sp.fold(tree, lambda node, _: found.append(node)
            if isinstance(node, sp.Junction) else None)
    return found


class TestConstructor:
    def test_a_first_part_of_the_same_kind_is_spliced(self):
        assert sp.And(sp.And(A, B), C).parts == (A, B, C)
        assert sp.And(sp.And(A, B), C) == sp.conj(A, B, C)
        assert sp.Or(sp.Or(A, B), C, D).parts == (A, B, C, D)

    def test_a_later_part_stays_nested(self):
        tree = sp.Or(A, sp.Or(B, C))
        assert tree.parts == (A, sp.Or(B, C))
        assert tree != sp.disj(A, B, C)
        assert print_expression(tree) == "a \\/ (b \\/ c)"

    def test_the_other_kind_is_never_spliced(self):
        assert sp.And(sp.Or(A, B), C).parts == (sp.Or(A, B), C)

    def test_conj_and_disj_of_one_part_are_the_part(self):
        assert sp.conj(A) is A
        assert sp.disj(sp.And(A, B)) == sp.And(A, B)

    @pytest.mark.parametrize("kind", [sp.And, sp.Or], ids=["and", "or"])
    def test_a_junction_takes_two_parts_or_more(self, kind):
        for parts in ((), (A,)):
            with pytest.raises(TypeError, match="at least 2 parts"):
                kind(*parts)

    def test_the_parser_builds_each_list_once(self):
        assert parse_expression("a /\\ b /\\ c /\\ d").parts == (A, B, C, D)
        assert parse_expression("(a /\\ b) /\\ c") == sp.conj(A, B, C)
        assert parse_expression("a /\\ (b /\\ c)").parts == (A, sp.And(B, C))


class TestBinaryReferences:
    TREES = [tree for seed in range(2)
             for tree in astgen.random_exprs(seed=seed, count=200, depth=5)]

    def test_the_trees_nest_junctions_both_ways(self):
        spliced = nested = 0
        for tree in self.TREES:
            for node in _junctions(tree):
                spliced += len(node.parts) > 2
                nested += any(type(part) is type(node) for part in node.parts)
        assert spliced > 20 and nested > 20

    def test_ir_and_printer_match_the_binary_walkers(self):
        for tree in self.TREES:
            doc = ir.expr_to_json(tree)
            assert ir.dumps(doc) == ir.dumps(tree_walkers.expr_to_json(tree))
            assert print_expression(tree) == tree_walkers.print_expression(tree)
            assert ir.expr_from_json(doc) == tree

    def test_the_binary_view_takes_the_last_part_off(self):
        assert tree_walkers.binary(sp.conj(A, B, C)) == (sp.And(A, B), C)
        assert tree_walkers.binary(sp.Or(A, sp.Or(B, C))) == (A, sp.Or(B, C))


class TestIR:
    def test_a_junction_is_written_as_its_left_chain(self):
        doc = ir.expr_to_json(sp.conj(A, B, C))
        assert doc["op"] == "and" and doc["args"][1] == ir.expr_to_json(C)
        assert doc["args"][0] == ir.expr_to_json(sp.And(A, B))

    def test_a_right_nested_junction_keeps_its_nesting(self):
        tree = sp.And(A, sp.And(B, C))
        doc = ir.expr_to_json(tree)
        assert doc["args"][0] == ir.expr_to_json(A)
        assert ir.expr_from_json(doc) == tree

    def test_a_malformed_link_inside_a_chain_is_rejected(self):
        var = ir.expr_to_json(A)
        inner = {"op": "or", "args": [var]}
        with pytest.raises(TypeMismatch, match="'or' takes 2 args, got 1"):
            ir.expr_from_json({"op": "or", "args": [{"op": "or", "args": [
                inner, var]}, var]})
        with pytest.raises(TypeMismatch, match="'and' takes 2 args, got 3"):
            ir.expr_from_json({"op": "and", "args": [var, var, var]})


class TestDeepRecords:
    PARTS = 5_000

    @pytest.mark.parametrize("combine", [sp.conj, sp.disj], ids=["conj", "disj"])
    def test_long_junctions_compare_hash_and_print(self, combine):
        parts = [sp.Eq(sp.Var(f"v{i}"), sp.intval(i)) for i in range(self.PARTS)]
        one, other = combine(*parts), combine(*parts)
        assert one == other and hash(one) == hash(other)
        assert one != combine(*parts[:-1])
        text = repr(one)
        assert text.startswith(f"{type(one).__name__}(parts=(Eq(")
        assert text.count("Eq(") == self.PARTS


class TestRightNested:
    DEPTH = 3_000
    X = sp.Var("x")
    ONE = sp.Eq(X, sp.intval(1))
    STATE = sp.State({"x": 1})

    def nested(self, kind, leaf):
        """`leaf` op (`leaf` op (... op `leaf`)), DEPTH levels deep."""
        formula = leaf
        for _ in range(self.DEPTH):
            formula = kind(leaf, formula)
        return formula

    def test_flat_parts_splice_only_their_own_kind(self):
        assert sp.flat_parts(sp.And(A, sp.And(B, sp.And(C, D)))) == [A, B, C, D]
        inner = sp.And(B, sp.Or(C, D))
        assert sp.flat_parts(sp.Or(A, inner)) == [A, inner]

    @pytest.mark.parametrize("kind", [sp.And, sp.Or])
    def test_the_evaluator_compiles_one_flat_loop(self, kind):
        leaves = [sp.Eq(self.X, sp.intval(i)) for i in range(3)]
        formula = kind(leaves[0], kind(leaves[1], leaves[2]))
        assert sp.eval_state_formula(formula, self.STATE) == (kind is sp.Or)
        assert all("compiled" in vars(leaf) for leaf in leaves)
        assert "compiled" not in vars(formula.parts[1])  # read through, not compiled
        assert sp.eval_state_formula(self.nested(kind, self.ONE), self.STATE)

    @pytest.mark.parametrize("kind", [sp.And, sp.Or])
    def test_init_and_next_walk_without_recursion(self, kind):
        step = sp.And(self.ONE, sp.Eq(sp.Primed("x"), sp.intval(1)))
        spec = sp.TemporalSpec("t", ("x",), self.nested(kind, self.ONE),
                               (sp.NamedAction("A", self.nested(kind, step)),))
        assert initial_states(spec) == [self.STATE]
        assert successors(spec, self.STATE) == [("A", self.STATE)]

    @pytest.mark.parametrize("kind", [sp.And, sp.Or])
    def test_type_ok_narrows_without_recursion(self, kind):
        member = sp.In(self.X, sp.SetLit((sp.intval(1), sp.intval(2))))
        spec = sp.TemporalSpec("t", ("x",), self.ONE, (),
                               (("TypeOK", self.nested(kind, member)),))
        assert list(derive_domains(spec)["x"]) == [1, 2]
