"""The value universe: integers, booleans, finite sets and sequences.

An integer is a Python `int`, tested as `type(v) is int` so that a
Python `bool` is never read as one; a boolean is `TRUE` or `FALSE`.
Values are immutable and hashable so states can live in hash-based
containers.  A single canonical total order covers all kinds (integers
before booleans before sets before sequences) and is what makes CHOOSE
and set iteration deterministic.
"""

from __future__ import annotations

from typing import Union

from .errors import TypeMismatch
from .record import Record

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class BoolVal(Record):
    value: bool

    # A hot key (state hashing, the enabled-operation cache), so it skips
    # the generic record closure: it compares the values directly, and
    # hashes `(value,)` as a one-field record does.
    def __eq__(self, other):
        if other.__class__ is BoolVal:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


class SetVal(Record):
    elements: frozenset

    def __init__(self, elements=()):
        object.__setattr__(self, "elements", frozenset(elements))


class SeqVal(Record):
    items: tuple

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))


Value = Union[int, BoolVal, SetVal, SeqVal]

TRUE = BoolVal(True)
FALSE = BoolVal(False)
BOOLEANS = SetVal((FALSE, TRUE))

_KIND_RANK = {int: 0, BoolVal: 1, SetVal: 2, SeqVal: 3}


def canonical_key(v: Value):
    """Sort key realizing the canonical order. Total over all values."""
    if type(v) is int:
        return (0, v)
    rank = _KIND_RANK[type(v)]
    if isinstance(v, BoolVal):
        return (rank, int(v.value))
    if isinstance(v, SetVal):
        return (rank, tuple(sorted(canonical_key(e) for e in v.elements)))
    return (rank, tuple(canonical_key(e) for e in v.items))


def sorted_values(values) -> list:
    return sorted(values, key=canonical_key)


def set_members(v: SetVal) -> list:
    """Members of a set in canonical order."""
    return sorted_values(v.elements)


def require_int(v: Value, what: str = "operand") -> int:
    if type(v) is not int:
        msg = f"{what} must be an integer, got {describe(v)}"
        raise TypeMismatch(msg)
    return v


def require_bool(v: Value, what: str = "operand") -> bool:
    if not isinstance(v, BoolVal):
        msg = f"{what} must be a boolean, got {describe(v)}"
        raise TypeMismatch(msg)
    return v.value


def require_set(v: Value, what: str = "operand") -> SetVal:
    if not isinstance(v, SetVal):
        msg = f"{what} must be a set, got {describe(v)}"
        raise TypeMismatch(msg)
    return v


def describe(v: Value) -> str:
    if type(v) is int:
        return f"integer {v}"
    if isinstance(v, BoolVal):
        return "TRUE" if v.value else "FALSE"
    if isinstance(v, SetVal):
        inner = ", ".join(describe(e) for e in set_members(v))
        return "{" + inner + "}"
    if not isinstance(v, SeqVal):
        return repr(v)  # no value, such as a Python bool
    inner = ", ".join(describe(e) for e in v.items)
    return "<<" + inner + ">>"


def value_to_json(v: Value):
    """Encode a value as plain JSON data.

    Integers and booleans map to their JSON counterparts; sets and
    sequences become one-key objects so the two container kinds stay
    distinguishable.
    """
    if type(v) is int:
        return v
    if isinstance(v, BoolVal):
        return v.value
    if isinstance(v, SetVal):
        return {"set": [value_to_json(e) for e in set_members(v)]}
    if isinstance(v, SeqVal):
        return {"seq": [value_to_json(e) for e in v.items]}
    msg = f"not a value: {v!r}"
    raise TypeMismatch(msg)


def value_from_json(data) -> Value:
    if isinstance(data, bool):
        return BoolVal(data)
    if type(data) is int:
        if not INT64_MIN <= data <= INT64_MAX:
            msg = f"integer {data} outside signed 64-bit range"
            raise TypeMismatch(msg)
        return data
    if isinstance(data, dict) and set(data) == {"set"}:
        return SetVal(value_from_json(e) for e in data["set"])
    if isinstance(data, dict) and set(data) == {"seq"}:
        return SeqVal(value_from_json(e) for e in data["seq"])
    msg = f"cannot decode value from {data!r}"
    raise TypeMismatch(msg)
