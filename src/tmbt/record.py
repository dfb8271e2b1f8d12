"""Immutable record classes without generated source code.

`@dataclasses.dataclass(frozen=True)` writes the source of six methods
per class and compiles it with `exec` at every import, cached bytecode
or not: defining a two-field class takes about 0.5 ms that way, and
about 17 us as a `Record` (timeit, Python 3.11.7, 2 vCPU).  With tmbt's
60 record classes that was about half of the start-up time of every
`tmbt` process and every SUT.

A `Record` subclass declares its fields as class annotations, with
optional defaults, in the order its constructor takes them:

    class Point(Record):
        x: int
        y: int
        label: str = ""

`__init_subclass__` reads the field list once and installs a
constructor, `__eq__`, `__hash__` and `__repr__` unless the class
defines its own (a class that only inherits fields keeps its base's
constructor); every record is frozen.  The methods behave as the
dataclass ones did: construction by position or keyword with defaults,
equality only between instances of the same class, field-tuple hashes,
`Name(field=value, ...)` reprs, and `AttributeError` on assignment.
Fields named in a class's `uncompared` tuple take no part in equality
and hashing.

Nothing is compiled.  A constructor is a copy of one of the
hand-written templates below, one per number of fields, with its
placeholder names `_0`, `_1`, ... renamed to the field names in the code
object (`CodeType.replace`), so it takes its fields as named parameters
with their defaults and reads no field list at run time: records such as
expression nodes, sets and commands are built often, and this
runs the bytecode a dataclass would have compiled.  Fields live in the
instance `__dict__`, which a constructor fills through
`object.__setattr__` without materialising it.

`__eq__` and `__hash__` take no named parameters, so one closure pair
over an `operator.attrgetter` of the compared fields serves every class:
they compare and hash the tuple of those fields, as a dataclass does.
They are rarely hot: the values compared and hashed most are integers,
which are Python `int`s, and `BoolVal`s, which define their own.
"""

from __future__ import annotations

import types
from operator import attrgetter

_store = object.__setattr__
_PLACEHOLDERS = ("_0", "_1", "_2", "_3", "_4", "_5", "_6")


# ---------------------------------------------------------------------------
# Constructor templates, indexed by the number of fields they take


def _init_0(self):
    pass


def _init_1(self, _0):
    _store(self, "_0", _0)


def _init_2(self, _0, _1):
    _store(self, "_0", _0)
    _store(self, "_1", _1)


def _init_3(self, _0, _1, _2):
    _store(self, "_0", _0)
    _store(self, "_1", _1)
    _store(self, "_2", _2)


def _init_4(self, _0, _1, _2, _3):
    _store(self, "_0", _0)
    _store(self, "_1", _1)
    _store(self, "_2", _2)
    _store(self, "_3", _3)


def _init_5(self, _0, _1, _2, _3, _4):
    _store(self, "_0", _0)
    _store(self, "_1", _1)
    _store(self, "_2", _2)
    _store(self, "_3", _3)
    _store(self, "_4", _4)


def _init_6(self, _0, _1, _2, _3, _4, _5):
    _store(self, "_0", _0)
    _store(self, "_1", _1)
    _store(self, "_2", _2)
    _store(self, "_3", _3)
    _store(self, "_4", _4)
    _store(self, "_5", _5)


_INITS = (_init_0, _init_1, _init_2, _init_3, _init_4, _init_5, _init_6)


def _specialise(cls: type, names: tuple, defaults: tuple) -> types.FunctionType:
    """The constructor template for `len(names)` fields with its
    placeholders renamed to `names`, as `cls.__init__`."""
    if len(names) >= len(_INITS):
        msg = (f"{cls.__qualname__}: a record without its own __init__ "
               f"takes at most {len(_INITS) - 1} fields")
        raise TypeError(msg)
    code = _INITS[len(names)].__code__
    rename = dict(zip(_PLACEHOLDERS, names))
    code = code.replace(
        co_name="__init__",
        co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
        co_consts=tuple(rename.get(c, c) if isinstance(c, str) else c
                        for c in code.co_consts))
    function = types.FunctionType(code, globals(), "__init__", defaults or None)
    function.__qualname__ = f"{cls.__qualname__}.__init__"
    return function


def _comparisons(names: tuple) -> tuple:
    """`__eq__` and `__hash__` over the tuple of the fields `names`."""
    if len(names) > 1:
        key = attrgetter(*names)
    else:  # `attrgetter` of one name gives the bare value, not a tuple
        def key(record):
            return tuple(getattr(record, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


_MISSING = object()


class Record:
    """Base of tmbt's immutable record classes (see the module docstring).

    `_fields` lists a class's fields in constructor order: a base
    record's first, then the names the class annotates.
    """

    _fields: tuple = ()
    uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inherited = cls._fields
        own = cls.__dict__.get("__annotations__", {})
        fields = inherited + tuple(n for n in own if n not in inherited)
        for name in fields:  # `_` names are the templates' own
            if name.startswith("_"):
                raise TypeError(f"{cls.__qualname__}: field {name} starts with _")
        cls._fields = fields

        values = [getattr(cls, name, _MISSING) for name in fields]
        required = 0
        while required < len(values) and values[required] is _MISSING:
            required += 1
        defaults = tuple(values[required:])
        if any(value is _MISSING for value in defaults):
            msg = f"{cls.__qualname__}: a field without a default follows one with"
            raise TypeError(msg)

        compared = tuple(n for n in fields if n not in cls.uncompared)
        own_methods = cls.__dict__
        if "__init__" not in own_methods and (fields != inherited or not fields):
            cls.__init__ = _specialise(cls, fields, defaults)
        eq, hash_ = _comparisons(compared)
        if "__eq__" not in own_methods:
            cls.__eq__ = eq
        if own_methods.get("__hash__") is None:
            cls.__hash__ = hash_

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
