"""`tmbt.spec.State` as it was before states became positional, kept as
the reference.

A state was a record whose one field, `bindings`, held its (name,
value) pairs sorted by name: `[]` and `in` scanned them, `replace`
rebuilt the pairs from a dict, and the hash was the record's, over the
pairs.  test_state.py holds the positional `State` to this one.
"""

from __future__ import annotations

from tmbt.record import Record
from tmbt.values import Value, canonical_key


class State(Record):
    """A total assignment of values to variable names. Immutable, hashable."""

    bindings: tuple

    def __init__(self, bindings):
        pairs = bindings.items() if isinstance(bindings, dict) else bindings
        object.__setattr__(self, "bindings", tuple(sorted(pairs)))

    def __getitem__(self, name: str) -> Value:
        for key, value in self.bindings:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.bindings)

    def variables(self) -> tuple:
        return tuple(key for key, _ in self.bindings)

    def as_dict(self) -> dict:
        return dict(self.bindings)

    def replace(self, **changes: Value) -> "State":
        d = self.as_dict()
        d.update(changes)
        return State(d)


def state_key(s: State):
    """Canonical sort key over whole states (variable-name major)."""
    return tuple((name, canonical_key(value)) for name, value in s.bindings)
