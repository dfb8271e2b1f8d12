"""Every `Record` class's generated `__eq__` and `__hash__`.

`tmbt.record` builds both methods for each record class from one closure
over its compared fields.  The sweep below builds every record class in
`tmbt` whose constructor `tmbt.record` made, with small distinct ints as
field values, and holds its equality and hash to the field tuple.
"""

import importlib
import pkgutil

import pytest

import tmbt
from tmbt.record import Record
from tmbt.values import BoolVal


def _record_classes() -> list:
    for module in pkgutil.walk_packages(tmbt.__path__, "tmbt."):
        importlib.import_module(module.name)
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("tmbt.") and cls.__module__ != "tmbt.record":
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


GENERATED = [cls for cls in _record_classes()
             if cls.__init__.__module__ == "tmbt.record"]


def _compared(cls) -> tuple:
    return tuple(name for name in cls._fields if name not in cls.uncompared)


def _values(cls, changed: str = "") -> dict:
    return {name: index + (100 if name == changed else 0)
            for index, name in enumerate(cls._fields)}


def test_the_sweep_covers_the_record_classes():
    assert len(GENERATED) >= 40
    assert any(cls.uncompared for cls in GENERATED)
    assert {len(_compared(cls)) for cls in GENERATED} >= {0, 1, 2, 3}


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__qualname__)
def test_equality_and_hash_follow_the_compared_fields(cls):
    record = cls(**_values(cls))
    compared = _compared(cls)
    assert hash(record) == hash(tuple(getattr(record, name) for name in compared))
    assert record == cls(**_values(cls)) and not record != cls(**_values(cls))
    for name in compared:
        assert record != cls(**_values(cls, name)), name
    for name in cls.uncompared:
        other = cls(**_values(cls, name))
        assert record == other and hash(record) == hash(other), name


def test_the_hottest_values_keep_their_own_comparisons():
    # BoolVal is hashed and compared far more than any other record: 50k
    # hashes, against one call of a generated method in all, over
    # `explore` of every example, `pbt.test` against three SUTs and a
    # parse, IR and print round trip of every shipped spec.  (Integers
    # are Python `int`s.)  A hand-written method costs about 159 ns per
    # call against 246 ns for the generic closure: keep them.
    for method in ("__eq__", "__hash__"):
        assert vars(BoolVal)[method].__module__ == "tmbt.values", method
