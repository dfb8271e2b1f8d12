"""Value universe: construction, ordering, JSON wire forms."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tmbt.ir as ir
import tmbt.spec as sp
from tmbt.tla import pretty_print
from tmbt.values import (
    BOOLEANS,
    FALSE,
    TRUE,
    BoolVal,
    SeqVal,
    SetVal,
    TypeMismatch,
    canonical_key,
    describe,
    require_bool,
    require_int,
    require_set,
    set_members,
    sorted_values,
    value_from_json,
    value_to_json,
)


def json_values():
    """Strategy over the JSON encodings of arbitrary nested values."""
    scalars = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.booleans()
    return st.recursive(
        scalars,
        lambda inner: st.builds(lambda xs: {"set": xs}, st.lists(inner, max_size=4))
        | st.builds(lambda xs: {"seq": xs}, st.lists(inner, max_size=4)),
        max_leaves=12,
    )


class TestConstruction:
    def test_ints_and_bools_compare_by_payload(self):
        assert BoolVal(True) == TRUE
        assert 1 != BoolVal(True)  # kinds never unify

    def test_set_deduplicates(self):
        s = SetVal([1, 1, 2])
        assert len(s.elements) == 2

    def test_set_is_order_insensitive(self):
        assert SetVal([1, 2]) == SetVal([2, 1])

    def test_seq_is_order_sensitive(self):
        assert SeqVal([1, 2]) != SeqVal([2, 1])

    def test_values_are_hashable(self):
        pool = {1, TRUE, SetVal([1]), SeqVal([1])}
        assert len(pool) == 4

    def test_booleans_constant(self):
        assert set_members(BOOLEANS) == [FALSE, TRUE]


class TestCanonicalOrder:
    def test_kind_ranks(self):
        mixed = [SeqVal(()), SetVal(()), TRUE, 7]
        ordered = sorted_values(mixed)
        assert ordered == [7, TRUE, SetVal(()), SeqVal(())]

    def test_ints_numeric(self):
        assert sorted_values([2, -5]) == [-5, 2]

    def test_false_before_true(self):
        assert sorted_values([TRUE, FALSE]) == [FALSE, TRUE]

    def test_sets_by_sorted_member_keys(self):
        small = SetVal([1, 9])
        large = SetVal([2])
        assert sorted_values([large, small]) == [small, large]  # {1,9} < {2}

    def test_seqs_lexicographic(self):
        a = SeqVal([1, 2])
        b = SeqVal([1, 3])
        assert sorted_values([b, a]) == [a, b]

    @given(json_values(), json_values())
    def test_key_total_and_consistent_with_equality(self, left, right):
        a, b = value_from_json(left), value_from_json(right)
        assert (canonical_key(a) == canonical_key(b)) == (a == b)


class TestRequire:
    def test_require_int(self):
        assert require_int(5) == 5
        with pytest.raises(TypeMismatch):
            require_int(TRUE)
        with pytest.raises(TypeMismatch, match="integer, got True"):
            require_int(True)  # a Python bool is no integer

    def test_require_bool(self):
        assert require_bool(FALSE) is False
        with pytest.raises(TypeMismatch):
            require_bool(0)

    def test_require_set(self):
        s = SetVal([1])
        assert require_set(s) is s
        with pytest.raises(TypeMismatch):
            require_set(SeqVal(()))

    def test_message_names_the_offender(self):
        with pytest.raises(TypeMismatch, match="guard must be a boolean"):
            require_bool(0, "guard")


class TestDescribe:
    def test_scalars(self):
        assert describe(-3) == "integer -3"
        assert describe(TRUE) == "TRUE"
        assert describe(FALSE) == "FALSE"

    def test_containers_in_canonical_order(self):
        v = SetVal([2, 1])
        assert describe(v) == "{integer 1, integer 2}"
        assert describe(SeqVal([TRUE])) == "<<TRUE>>"


class TestJson:
    def test_scalar_wire_forms(self):
        assert value_to_json(42) == 42
        assert value_to_json(TRUE) is True
        assert value_from_json(0) == 0
        assert value_from_json(False) == FALSE  # bool checked before int

    def test_container_wire_forms(self):
        v = SetVal([2, 1])
        assert value_to_json(v) == {"set": [1, 2]}  # canonical member order
        assert value_to_json(SeqVal([2, 1])) == {"seq": [2, 1]}

    def test_a_python_bool_is_no_value(self):
        # `True == 1` in Python, so only TRUE and FALSE may encode booleans
        with pytest.raises(TypeMismatch, match="not a value: True"):
            value_to_json(True)

    def test_decode_rejects_junk(self):
        with pytest.raises(TypeMismatch):
            value_from_json("nope")
        with pytest.raises(TypeMismatch):
            value_from_json({"set": [], "seq": []})

    def test_integers_decode_within_signed_64_bit(self):
        assert value_from_json(-(2**63)) == -(2**63)
        assert value_from_json(2**63 - 1) == 2**63 - 1
        for past in (-(2**63) - 1, 2**63):
            with pytest.raises(TypeMismatch) as err:
                value_from_json(past)
            assert str(err.value) == f"integer {past} outside signed 64-bit range"
        with pytest.raises(TypeMismatch, match="integer 18446744073709551616 "):
            value_from_json({"seq": [1, {"set": [2**64]}]})

    @given(json_values())
    def test_round_trip(self, data):
        v = value_from_json(data)
        assert value_from_json(value_to_json(v)) == v


class TestIntegerSetOrder:
    """An integer hashes as itself, so 8 and 16 share a slot of a small
    table and a frozenset of them iterates in insertion order (on CPython
    3.11, `list(frozenset([8, 16]))` is `[8, 16]` and
    `list(frozenset([16, 8]))` is `[16, 8]`): no rendering may follow it."""

    SETS = (SetVal([8, 16]), SetVal([16, 8]))

    @staticmethod
    def spec(members) -> sp.TemporalSpec:
        return sp.TemporalSpec("s", ("x",),
                               sp.In(sp.Var("x"), sp.Const(members)), ())

    def test_describe_and_the_wire_form_sort_the_members(self):
        first, second = self.SETS
        assert describe(first) == describe(second) == "{integer 8, integer 16}"
        assert json.dumps(value_to_json(first)) == json.dumps(value_to_json(second))
        assert value_to_json(second) == {"set": [8, 16]}

    def test_the_ir_and_the_printer_sort_the_members(self):
        first, second = self.SETS
        assert ir.spec_to_text(self.spec(first)) == ir.spec_to_text(self.spec(second))
        assert '{"set": [8,16]}' in ir.spec_to_text(self.spec(second))
        printed = []
        for members in self.SETS:  # only BOOLEAN has a literal form
            with pytest.raises(TypeMismatch) as err:
                pretty_print(sp.Const(members))
            printed.append(str(err.value))
        assert printed[0] == printed[1]
