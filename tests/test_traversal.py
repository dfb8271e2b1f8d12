"""The generic tree traversal against the recursive walkers it replaced.

`tree_walkers` holds the compiler's operand walk, the well-formedness
scan, definition expansion, the Next spine, the IR codec and the TLA
printer as they were before every whole-tree walk ran on
`tmbt.spec.fold`.  On random trees the new walkers must give the same
IR, the same decoded trees, the same diagnostics in the same order, the
same expansions, the same printed text and the same "not an expression"
errors; and unlike the old ones they must handle trees far deeper than
Python's recursion limit.  No function in `tmbt` may call itself, apart
from the parser's recursive descent and the value codecs.
"""

import ast
import operator
import pathlib
import random

import astgen
import jsonschema
import pytest
import tree_walkers

import tmbt.ir as ir
import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.errors import MissingDefinition, TypeMismatch
from tmbt.tla import parse_expression, parse_module, print_expression, to_spec
from tmbt.tla import parser, printer
from tmbt.tla.parser import ParsedModule, Ref
from tmbt.values import BOOLEANS, TRUE, SetVal

NOT_EXPRESSIONS = (5, "x", None, TRUE)


def _nodes(expr) -> list:
    """Every node of a tree, Refs included, read through the fields."""
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, sp.ExprNode):
            continue
        for value in vars(node).values():
            if isinstance(value, (sp.ExprNode, Ref)):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(value)
    return out


def _plant(expr, rng: random.Random, make, rate: float = 0.3):
    """`expr` with some of its leaves swapped for `make()`."""
    changes = {}
    for name in expr._fields:
        value = getattr(expr, name)
        if isinstance(value, sp.ExprNode):
            changes[name] = _plant(value, rng, make, rate)
        elif isinstance(value, tuple):
            changes[name] = tuple(_plant(v, rng, make, rate) for v in value)
    if not changes and rng.random() < rate:
        return make()
    if isinstance(expr, sp.Junction):  # it takes its parts as arguments
        return type(expr)(*changes["parts"])
    return type(expr)(**{name: changes.get(name, getattr(expr, name))
                         for name in expr._fields})


def _outcome(walk, *args):
    try:
        return ("value", walk(*args))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


def _random_spec(rng: random.Random, trees) -> sp.TemporalSpec:
    declared = rng.sample(astgen.NAMES, rng.randrange(len(astgen.NAMES) + 1))
    init, *rest = trees
    half = len(rest) // 2
    actions = [sp.NamedAction(f"A{i}", f) for i, f in enumerate(rest[:half])]
    invariants = [(f"I{i}", f) for i, f in enumerate(rest[half:])]
    return sp.TemporalSpec("random", declared, init, actions, invariants)


def _random_module(rng: random.Random, trees) -> ParsedModule:
    """Definitions D0, D1, ... whose leaves may refer to earlier ones."""
    definitions = []
    for index, tree in enumerate(trees):
        if index:
            earlier = [name for name, _ in definitions]
            tree = _plant(tree, rng, lambda: Ref(rng.choice(earlier)))
        definitions.append((f"D{index}", tree))
    return ParsedModule((), tuple(definitions))


def _reference_definition_map(module: ParsedModule) -> dict:
    memo: dict = {}
    raw = dict(module.definitions)
    return {name: tree_walkers._expand(body, raw, memo)
            for name, body in module.definitions}


class TestIR:
    @pytest.mark.parametrize("seed", range(3))
    def test_encoding_and_decoding_match_the_recursive_codec(self, seed):
        for tree in astgen.random_exprs(seed=seed, count=300, depth=5):
            doc = ir.expr_to_json(tree)
            want = tree_walkers.expr_to_json(tree)
            assert ir.dumps(doc) == ir.dumps(want)
            decoded = ir.expr_from_json(doc)
            assert decoded == tree_walkers.expr_from_json(doc) == tree

    @pytest.mark.parametrize("name", specs.EXAMPLE_NAMES)
    def test_example_documents_match_the_recursive_codec(self, name):
        spec = specs.load(name)
        doc = ir.spec_to_json(spec)
        assert doc["init"] == tree_walkers.expr_to_json(spec.init)
        for action, data in zip(spec.actions, doc["actions"]):
            assert data["formula"] == tree_walkers.expr_to_json(action.formula)
        for (_, formula), data in zip(spec.invariants, doc["invariants"]):
            assert data["formula"] == tree_walkers.expr_to_json(formula)
        assert ir.spec_from_json(doc) == spec

    def test_wrong_argument_counts_are_rejected(self):
        var = {"op": "var", "name": "x"}
        with pytest.raises(TypeMismatch, match="'not' takes 1 args, got 2"):
            ir.expr_from_json({"op": "not", "args": [var, var]})
        with pytest.raises(TypeMismatch, match="'and' takes 2 args, got 1"):
            ir.expr_from_json({"op": "and", "args": [var]})

    def test_decoding_errors_come_in_the_recursive_codecs_order(self):
        with pytest.raises(TypeMismatch, match="malformed"):
            ir.expr_from_json({"op": "xor", "args": [["not", "a", "node"]]})
        want = _outcome(tree_walkers.expr_from_json,
                        {"op": "and", "args": [{"op": "xor"}, 5]})
        got = _outcome(ir.expr_from_json, {"op": "and", "args": [{"op": "xor"}, 5]})
        assert got == want


class TestNotAnExpression:
    @pytest.mark.parametrize("seed", range(2))
    def test_every_walker_names_the_first_non_expression(self, seed):
        rng = random.Random(seed)
        found = 0
        for tree in astgen.random_exprs(seed=seed, count=300, depth=4):
            planted = _plant(tree, rng, lambda: rng.choice(NOT_EXPRESSIONS))
            want = _outcome(tree_walkers.expr_to_json, planted)
            assert _outcome(ir.expr_to_json, planted) == want
            if want[0] == "value":
                continue
            found += 1
            # the recursive scan and expansion failed on an attribute
            # lookup here; the new ones give the codec's error
            assert want[1] is TypeMismatch
            spec = sp.TemporalSpec("planted", astgen.NAMES, planted, ())
            assert _outcome(sp.well_formed, spec) == want
            module = ParsedModule((), (("D0", planted),))
            assert _outcome(module.expand, planted) == want
        assert found > 100

    def test_the_compiler_defers_it_to_evaluation(self):
        tree = sp.Not(5)
        assert sp._operands(tree) == []
        with pytest.raises(TypeMismatch, match="not an expression: 5"):
            sp.eval_expr(tree, sp.State({}))


_ONE = sp.intval(1)
BARE_BASES = (sp.Binary(_ONE, _ONE), sp.Comparison(_ONE, _ONE),
              sp.Binder("n", sp.SetLit((_ONE,)), sp.boolval(True)), sp.Items((_ONE,)))


class TestNodeKinds:
    """A node kind is a leaf class of the ExprNode hierarchy; the classes
    above the leaves only share layouts."""

    def test_each_kind_has_one_op_and_one_step_and_no_base_has_either(self):
        classes, todo = [], [sp.ExprNode]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo += cls.__subclasses__()
        kinds = {cls for cls in classes if not cls.__subclasses__()}
        assert set(classes) - kinds == {sp.ExprNode, sp.Junction, sp.Binary,
                                        sp.Comparison, sp.Binder, sp.Items}
        assert set(ir.OPS) == kinds
        assert len(set(ir.OPS.values())) == len(kinds)
        assert set(printer._STEPS) == kinds

    @pytest.mark.parametrize("node", BARE_BASES, ids=lambda node: type(node).__name__)
    def test_a_bare_base_is_not_an_expression(self, node):
        want = ("error", TypeMismatch, f"not an expression: {node!r}")
        assert _outcome(sp.eval_expr, node, sp.State({})) == want
        assert _outcome(sp.eval_expr, sp.Not(node), sp.State({})) == want
        assert _outcome(ir.expr_to_json, node) == want
        assert _outcome(print_expression, node) == want


class TestPrinter:
    @pytest.mark.parametrize("name", specs.EXAMPLE_NAMES)
    def test_examples_print_as_the_recursive_printer(self, name):
        spec = specs.load(name)
        formulas = [spec.init, *(a.formula for a in spec.actions),
                    *(formula for _, formula in spec.invariants)]
        for formula in formulas:
            assert print_expression(formula) == tree_walkers.print_expression(formula)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees_print_as_the_recursive_printer(self, seed):
        rng = random.Random(seed)
        # leaves with no printed form: non-expressions, container constants
        unprintable = NOT_EXPRESSIONS + (Ref("D0"), sp.Const(SetVal((1,))),
                                         sp.Const(BOOLEANS), sp.Const("x"))
        failed = 0
        for tree in astgen.random_exprs(seed=seed, count=300, depth=5):
            for planted in (tree, _plant(tree, rng, lambda: rng.choice(unprintable),
                                         rate=0.05)):
                want = _outcome(tree_walkers.print_expression, planted)
                assert _outcome(print_expression, planted) == want
                failed += want[0] == "error"
        assert failed > 50


class TestWellFormed:
    @pytest.mark.parametrize("seed", range(3))
    def test_diagnostics_match_the_recursive_scan_in_order(self, seed):
        rng = random.Random(seed)
        trees = astgen.random_exprs(seed=seed, count=600, depth=5)
        compared = 0
        for start in range(0, len(trees), 6):
            spec = _random_spec(rng, trees[start:start + 6])
            want = tree_walkers.well_formed(spec)
            assert sp.well_formed(spec) == want
            compared += len(want)
        assert compared > 100


class TestExpansion:
    @pytest.mark.parametrize("seed", range(3))
    def test_definition_maps_match_the_recursive_expansion(self, seed):
        rng = random.Random(seed)
        trees = astgen.random_exprs(seed=seed, count=240, depth=4)
        for start in range(0, len(trees), 8):
            module = _random_module(rng, trees[start:start + 8])
            assert module.definition_map() == _reference_definition_map(module)
            raw = dict(module.definitions)
            for _, body in module.definitions:
                assert module.expand(body) == tree_walkers._expand(body, raw, {})

    def test_subtrees_without_references_are_returned_as_they_are(self):
        rng = random.Random(4)
        trees = astgen.random_exprs(seed=4, count=50, depth=5)
        module = _random_module(rng, trees)
        expanded = module.definition_map()
        assert expanded["D0"] is trees[0]
        for tree in trees:
            assert module.expand(tree) is tree
        for name, body in module.definitions:
            if not any(isinstance(node, Ref) for node in _nodes(body)):
                assert expanded[name] is body

    def test_each_definition_is_expanded_once(self):
        module = parse_module("VARIABLE x\nB == x = 0\nA == B /\\ x = 1\n"
                              "Init == A\nNext == A /\\ x' = x\nTypeOK == A\n")
        spec = to_spec(module)
        expanded = module.definition_map()
        assert spec.init is expanded["A"]
        assert spec.invariant_map()["TypeOK"] is expanded["A"]
        # A's parts open Next's list, which holds them, not copies
        assert all(map(operator.is_, spec.actions[0].formula.parts,
                       expanded["A"].parts))
        assert module.definition_map() is not expanded

    def test_a_reference_to_a_later_definition_is_missing(self):
        # the parser refers only back; a module built by hand may not
        module = ParsedModule((), (("A", sp.Not(Ref("B"))),
                                   ("B", sp.Const(TRUE))))
        with pytest.raises(MissingDefinition, match="no definition named 'B'"):
            module.definition_map()
        with pytest.raises(MissingDefinition, match="no definition named 'C'"):
            ParsedModule((), ()).expand(Ref("C"))


class TestOperands:
    @pytest.mark.parametrize("seed", range(2))
    def test_compiler_operands_and_the_next_spine_match(self, seed):
        for tree in astgen.random_exprs(seed=seed, count=200, depth=5):
            for node in _nodes(tree):  # nothing here is compiled yet
                got = sp._operands(node)
                want = list(tree_walkers._operands(node))
                assert len(got) == len(want)
                assert all(a is b for a, b in zip(got, want))
            assert parser._disjuncts(tree) == tree_walkers._spine(tree)

    def test_compiled_operands_are_skipped(self):
        tree = sp.And(sp.Not(sp.Var("x")), sp.Var("y"))
        sp.eval_expr(tree.parts[0], sp.State({"x": TRUE}))
        assert sp._operands(tree) == [tree.parts[1]]


def _reads(expr, kind: type, bound: frozenset = frozenset()) -> frozenset:
    """`names_read` as a recursive walk that carries the bound names."""
    if isinstance(expr, kind):
        return frozenset() if expr.name in bound else frozenset((expr.name,))
    if not isinstance(expr, sp.ExprNode):
        return frozenset()
    if isinstance(expr, tree_walkers.QUANTIFIERS) and kind is sp.Var:
        return (_reads(expr.domain, kind, bound)
                | _reads(expr.body, kind, bound | {expr.var}))
    return frozenset().union(*(_reads(child, kind, bound)
                               for child in expr.children()))


class TestNamesRead:
    @pytest.mark.parametrize("kind", [sp.Var, sp.Primed], ids=["var", "primed"])
    def test_random_trees_match_the_recursive_walk(self, kind):
        for tree in astgen.random_exprs(seed=9, count=300, depth=6):
            assert sp.names_read(tree, kind) == _reads(tree, kind)

    def test_a_bound_name_is_not_a_state_variable(self):
        # \E x \in {y} : x' = x /\ z, with x bound only in the body
        body = sp.And(sp.Eq(sp.Primed("x"), sp.Var("x")), sp.Var("z"))
        tree = sp.Exists("x", sp.SetLit((sp.Var("y"),)), body)
        assert sp.names_read(tree, sp.Var) == {"y", "z"}
        assert sp.names_read(tree, sp.Primed) == {"x"}
        assert sp.names_read(sp.And(tree, sp.Var("x")), sp.Var) == {"x", "y", "z"}


class TestLayout:
    def test_rebuild_inverts_children(self):
        for tree in astgen.random_exprs(seed=6, count=100, depth=4):
            for node in _nodes(tree):
                assert node.rebuild(node.children()) == node

    def test_children_are_the_non_scalar_fields_in_order(self):
        expr = sp.Forall("n", sp.SetLit((sp.intval(1),)), sp.Var("n"))
        assert sp.Forall.scalars == ("var",)
        assert expr.children() == (expr.domain, expr.body)
        assert expr.domain.children() == (sp.intval(1),)
        assert sp.Var("n").children() == ()

    def test_nothing_is_stored_on_a_node_by_walking_it(self):
        tree = astgen.random_exprs(seed=7, count=1, depth=6)[0]
        before = [dict(vars(node)) for node in _nodes(tree)]
        ir.expr_to_json(tree)
        print_expression(tree)
        sp.well_formed(sp.TemporalSpec("t", astgen.NAMES, tree, ()))
        assert [dict(vars(node)) for node in _nodes(tree)] == before


class TestSchemaDispatch:
    def test_the_op_enum_is_the_codec_op_table(self):
        expr = ir.schema()["$defs"]["expr"]
        enum = expr["properties"]["op"]["enum"]
        assert len(enum) == len(set(enum))
        assert sorted(enum) == sorted(ir.OPS.values())

    def test_each_op_has_exactly_one_branch(self):
        branches = []
        for branch in ir.schema()["$defs"]["expr"]["allOf"]:
            test = branch["if"]["properties"]["op"]
            branches.extend(test["enum"] if "enum" in test else [test["const"]])
        assert sorted(branches) == sorted(ir.OPS.values())

    @pytest.mark.parametrize("node", [
        {"op": "not", "args": []},
        {"op": "and", "args": [{"op": "var", "name": "b"}]},
        {"op": "var", "name": "b", "args": []},
        {"op": "exists", "args": [{"op": "var", "name": "b"},
                                  {"op": "var", "name": "b"}]},
        {"op": "const", "value": "zero"},
        {"args": []},
    ])
    def test_malformed_nodes_are_rejected(self, node):
        document = ir.spec_to_json(specs.onebit())
        document["init"] = node
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(document, ir.schema())

    def test_random_trees_conform(self):
        validator = jsonschema.Draft202012Validator(ir.schema())
        for tree in astgen.random_exprs(seed=8, count=30, depth=6):
            document = ir.spec_to_json(sp.TemporalSpec("t", (), tree, ()))
            validator.validate(document)


class TestDepth:
    PARTS = 5_000

    def test_a_deep_init_parses_translates_and_encodes(self):
        source = ("VARIABLE x\nInit == " + " /\\ ".join(["x = 0"] * self.PARTS)
                  + "\nNext == x' = x\n")
        module = parse_module(source)
        spec = to_spec(module)
        part = sp.Eq(sp.Var("x"), sp.intval(0))
        assert list(spec.init.parts) == [part] * self.PARTS
        document = ir.spec_to_json(spec)
        node, depth = document["init"], 0
        while node["op"] == "and":
            node, depth = node["args"][0], depth + 1
        assert depth == self.PARTS - 1
        decoded = ir.spec_from_json(document)
        assert list(decoded.init.parts) == [part] * self.PARTS

    def test_deep_diagnostics_come_in_order(self):
        parts = [sp.Eq(sp.Var(f"v{i}"), sp.intval(0)) for i in range(self.PARTS)]
        spec = sp.TemporalSpec("deep", ("v1",), sp.conj(*parts), ())
        found = [d.message for d in sp.well_formed(spec)]
        assert found == [f"v{i} is not declared"
                         for i in range(self.PARTS) if i != 1]

    def test_a_long_conjunction_prints(self):
        parts = [sp.Eq(sp.Var(f"v{i}"), sp.intval(0)) for i in range(self.PARTS)]
        tree = sp.conj(*parts)
        text = print_expression(tree)
        assert text == " /\\ ".join(f"(v{i} = 0)" for i in range(self.PARTS))
        assert list(parse_expression(text).parts) == parts

    def test_a_deep_negation_prints(self):
        tree = sp.Var("b")
        for _ in range(3_000):
            tree = sp.Not(tree)
        # a negation is printed parenthesized under a negation
        assert print_expression(tree) == "~(" * 2_999 + "~b" + ")" * 2_999


# Functions that may call themselves: the parser's recursive descent (its
# depth is set by the nesting in the source text) and the value codecs
# (their depth is the nesting of set and sequence values).
RECURSIVE = {
    ("tla/parser.py", "expression"), ("tla/parser.py", "unary"),
    ("values.py", "canonical_key"), ("values.py", "describe"),
    ("values.py", "value_to_json"), ("values.py", "value_from_json"),
}


def _self_calls(function: ast.FunctionDef) -> bool:
    """Whether `function` calls itself by name, or as `self.name` or
    `cls.name`, in its body or in a function nested there."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        called = node.func
        if isinstance(called, ast.Name) and called.id == function.name:
            return True
        if (isinstance(called, ast.Attribute) and called.attr == function.name
                and isinstance(called.value, ast.Name)
                and called.value.id in ("self", "cls")):
            return True
    return False


class TestNoRecursion:
    def test_only_the_parser_and_value_codecs_call_themselves(self):
        package = pathlib.Path(sp.__file__).parent
        found = set()
        for path in package.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _self_calls(node)):
                    found.add((path.relative_to(package).as_posix(), node.name))
        assert found == RECURSIVE
