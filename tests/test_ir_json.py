"""Spec IR: canonical JSON layout, golden document, schema conformance."""

import json

import jsonschema
import pytest

import tmbt.ir as ir
import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.errors import TypeMismatch

import astgen

GOLDEN_ONE_BIT = {
    "name": "onebit",
    "variables": ["b"],
    "params": {},
    "init": {
        "op": "or",
        "args": [
            {"op": "eq", "args": [{"op": "var", "name": "b"},
                                  {"op": "const", "value": 0}]},
            {"op": "eq", "args": [{"op": "var", "name": "b"},
                                  {"op": "const", "value": 1}]},
        ],
    },
    "actions": [
        {"name": "A1", "formula": {
            "op": "and",
            "args": [
                {"op": "eq", "args": [{"op": "var", "name": "b"},
                                      {"op": "const", "value": 0}]},
                {"op": "eq", "args": [{"op": "primed", "name": "b"},
                                      {"op": "const", "value": 1}]},
            ],
        }},
        {"name": "A2", "formula": {
            "op": "and",
            "args": [
                {"op": "eq", "args": [{"op": "var", "name": "b"},
                                      {"op": "const", "value": 1}]},
                {"op": "eq", "args": [{"op": "primed", "name": "b"},
                                      {"op": "const", "value": 0}]},
            ],
        }},
    ],
    "invariants": [],
}


class TestGolden:
    def test_one_bit_document(self):
        assert ir.spec_to_json(specs.onebit()) == GOLDEN_ONE_BIT

    def test_canonical_text_is_stable(self):
        text = ir.spec_to_text(specs.onebit())
        assert text == ir.spec_to_text(specs.onebit())
        assert text.endswith("\n")
        assert json.loads(text) == GOLDEN_ONE_BIT
        # sorted keys make the document order-independent of construction
        assert text.index('"actions"') < text.index('"init"')


class TestExpressionNodes:
    def test_every_node_kind_round_trips(self):
        for tree in astgen.random_exprs(seed=9, count=200):
            assert ir.expr_from_json(ir.expr_to_json(tree)) == tree

    def test_quantifier_layout(self):
        expr = sp.Exists("n", sp.IntRange(sp.intval(0), sp.intval(3)),
                         sp.Eq(sp.Var("n"), sp.intval(2)))
        data = ir.expr_to_json(expr)
        assert data["op"] == "exists"
        assert data["var"] == "n"
        assert [a["op"] for a in data["args"]] == ["range", "eq"]

    def test_unknown_op_is_rejected(self):
        with pytest.raises(TypeMismatch, match="unknown expression op"):
            ir.expr_from_json({"op": "xor", "args": []})

    def test_constant_past_signed_64_bit_is_rejected(self):
        spec = sp.TemporalSpec(
            name="x5", variables=("x",),
            init=sp.Eq(sp.Var("x"), sp.intval(5)),
            actions=(sp.NamedAction("A1", sp.Eq(sp.Primed("x"), sp.Var("x"))),))
        text = ir.spec_to_text(spec)
        assert ir.spec_from_text(text) == spec
        huge = text.replace('"value": 5', '"value": 99999999999999999999')
        assert huge != text
        with pytest.raises(TypeMismatch) as err:
            ir.spec_from_text(huge)
        assert str(err.value) == (
            "integer 99999999999999999999 outside signed 64-bit range")

    def test_malformed_node_is_rejected(self):
        with pytest.raises(TypeMismatch, match="malformed"):
            ir.expr_from_json(["not", "a", "node"])


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", specs.EXAMPLE_NAMES)
    def test_examples_round_trip(self, name):
        spec = specs.load(name)
        assert ir.spec_from_json(ir.spec_to_json(spec)) == spec
        assert ir.spec_from_text(ir.spec_to_text(spec)) == spec

    def test_params_survive(self):
        spec = specs.load("euclid", {"M": 9, "N": 5})
        again = ir.spec_from_text(ir.spec_to_text(spec))
        assert again.param_map() == {"M": 9, "N": 5}


class TestSchema:
    def test_schema_is_valid_json_schema(self):
        jsonschema.Draft202012Validator.check_schema(ir.schema())

    @pytest.mark.parametrize("name", specs.EXAMPLE_NAMES)
    def test_examples_conform(self, name):
        document = ir.spec_to_json(specs.load(name))
        jsonschema.validate(document, ir.schema())

    def test_schema_rejects_a_missing_init(self):
        document = ir.spec_to_json(specs.onebit())
        del document["init"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(document, ir.schema())

    def test_schema_rejects_unknown_expression_ops(self):
        document = ir.spec_to_json(specs.onebit())
        document["init"] = {"op": "xor", "args": []}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(document, ir.schema())
