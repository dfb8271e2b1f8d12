"""`tmbt.record.Record` against the frozen dataclasses it replaced.

Each Record class below is held to its dataclass twin in
`record_reference`: the same arguments must construct equal-looking
records or raise the same error, and equal records must compare and
hash alike.
"""

import pytest
import record_reference as ref

import tmbt.pbt as pbt
import tmbt.spec as sp
from tmbt.explore import ExplorationStats
from tmbt.record import Record
from tmbt.streams import AssumptionViolated, Conforms
from tmbt.values import BoolVal

PAIRS = [(BoolVal, ref.BoolVal), (sp.Var, ref.Var), (Conforms, ref.Conforms),
         (AssumptionViolated, ref.AssumptionViolated),
         (ExplorationStats, ref.ExplorationStats),
         (pbt.TestConfig, ref.TestConfig), (pbt.TestReport, ref.TestReport)]

# (args, kwargs) per class name; every call is made on both classes
CALLS = {
    "BoolVal": [((True,), {}), ((False,), {}), ((), {"value": True}), ((), {}),
                ((True, False), {}), ((True,), {"value": True}),
                ((), {"flag": True})],
    "Var": [(("x",), {}), ((), {"name": "y"}), ((), {})],
    "Conforms": [((), {}), ((1,), {}), ((), {"index": 0})],
    "AssumptionViolated": [((0,), {}), ((), {"index": 0}), ((3,), {}), ((), {})],
    "ExplorationStats": [((3, 10, 8), {}), ((3, 10, 8, True), {}),
                         ((), {"diameter": 1, "states_found": 2,
                               "distinct_states": 2}),
                         ((3, 10), {}), ((1, 2, 3, 4, 5), {})],
    "TestConfig": [((), {}), ((), {"cases": 5}), ((5, 10), {"seed": 3}),
                   ((1, 2, 3, True, False), {}), ((1, 2, 3, 4, 5, 6), {}),
                   ((), {"cases": 1, "max_length": 2})],
    "TestReport": [((1, 2, "pass", ()), {}), ((1, 2, "pass", ()), {"elapsed_seconds": 3.5}),
                   ((1, 2, "fail", (("op", 1),), None, 0.5), {}), ((1,), {})],
}


def _make(cls, args, kwargs):
    try:
        return ("record", cls(*args, **kwargs))
    except TypeError as error:
        return ("error", str(error))


@pytest.mark.parametrize("cls,twin", PAIRS, ids=[c.__name__ for c, _ in PAIRS])
def test_construction_repr_and_errors_match_the_dataclass(cls, twin):
    for args, kwargs in CALLS[cls.__name__]:
        made, reference = _make(cls, args, kwargs), _make(twin, args, kwargs)
        assert made[0] == reference[0], (args, kwargs)
        if made[0] == "error":
            assert made[1] == reference[1]
            continue
        record, dataclass = made[1], reference[1]
        assert repr(record) == repr(dataclass)
        assert hash(record) == hash(dataclass)


@pytest.mark.parametrize("cls,twin", PAIRS, ids=[c.__name__ for c, _ in PAIRS])
def test_equality_and_hashing_match_the_dataclass(cls, twin):
    made = [(args, kwargs) for args, kwargs in CALLS[cls.__name__]
            if _make(twin, args, kwargs)[0] == "record"]
    for a_args, a_kwargs in made:
        for b_args, b_kwargs in made:
            records = cls(*a_args, **a_kwargs), cls(*b_args, **b_kwargs)
            twins = twin(*a_args, **a_kwargs), twin(*b_args, **b_kwargs)
            assert (records[0] == records[1]) == (twins[0] == twins[1])
            assert (records[0] != records[1]) == (twins[0] != twins[1])
            if records[0] == records[1]:
                assert hash(records[0]) == hash(records[1])


@pytest.mark.parametrize("cls,twin", PAIRS, ids=[c.__name__ for c, _ in PAIRS])
def test_frozen_like_the_dataclass(cls, twin):
    args, kwargs = CALLS[cls.__name__][0]
    record, dataclass = cls(*args, **kwargs), twin(*args, **kwargs)
    for name in cls._fields + ("other",):
        for change in (lambda obj: setattr(obj, name, 1),
                       lambda obj: delattr(obj, name)):
            with pytest.raises(AttributeError) as raised:
                change(record)
            with pytest.raises(AttributeError) as expected:
                change(dataclass)
            assert str(raised.value) == str(expected.value)


def test_different_classes_never_compare_equal():
    assert 1 != BoolVal(True) and BoolVal(True) != 1
    assert 0 != BoolVal(False)
    assert sp.Var("x") != sp.Primed("x")
    assert BoolVal(True) != True and not BoolVal(True) == True


def test_elapsed_time_stays_out_of_equality():
    first = pbt.TestReport(1, 2, "pass", (), None, 0.25)
    second = pbt.TestReport(1, 2, "pass", (), None, 9.0)
    assert first == second and hash(first) == hash(second)
    assert first != pbt.TestReport(1, 3, "pass", (), None, 0.25)


def test_node_fields_live_in_the_instance_dictionary():
    node = sp.Add(sp.Var("x"), sp.intval(1))
    assert vars(node) == {"left": sp.Var("x"), "right": sp.intval(1)}
    assert sp.Add.operands == ("left", "right")
    assert sp.Forall.operands == ("domain", "body")
    sp.eval_expr(node, sp.State({"x": 2}))
    assert "compiled" in vars(node)  # a cached property, outside the fields
    assert node == sp.Add(sp.Var("x"), sp.intval(1))
    assert repr(node) == "Add(left=Var(name='x'), right=Const(value=1))"


def test_a_subclass_extends_its_base_fields():
    class Point(Record):
        x: int
        y: int = 0

    class Labelled(Point):
        label: str = ""

    assert Labelled._fields == ("x", "y", "label")
    assert repr(Labelled(1, label="a")).endswith("Labelled(x=1, y=0, label='a')")
    assert Labelled(1) != Point(1)


def test_a_field_without_default_after_one_with_is_refused():
    with pytest.raises(TypeError, match="without a default follows"):
        class Bad(Record):
            a: int = 0
            b: int
