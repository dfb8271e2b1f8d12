"""Immutable record classes without generated source code.

`@dataclasses.dataclass(frozen=True)` writes the source of six methods
per class and compiles it with `exec` at every import, cached bytecode
or not: defining a two-field class takes about 0.75 ms that way, and
about 25 us as a `Record` (timeit, Python 3.11.7, 2 vCPU).  With tmbt's
60 record classes that was about half of the start-up time of every
`tmbt` process and every SUT.

A `Record` subclass declares its fields as class annotations, with
optional defaults, in the order its constructor takes them:

    class Token(Record):
        kind: str
        lexeme: str
        line: int = 0

`__init_subclass__` reads the field list once and installs a
constructor, `__eq__`, `__hash__` and `__repr__` unless the class
defines its own (a class that only inherits fields keeps its base's
constructor); every record is frozen.  The methods behave as the
dataclass ones did: construction by position or keyword with defaults,
equality only between instances of the same class, field-tuple hashes,
`Name(field=value, ...)` reprs, and `AttributeError` on assignment.
Fields named in a class's `uncompared` tuple take no part in equality
and hashing.

Nothing is compiled.  Constructor, equality and hash are copies of the
hand-written templates below, one per number of fields, with their
placeholder names `_0`, `_1`, ... renamed to the field names in the code
object (`CodeType.replace`).  So a constructor takes its fields as named
parameters and reads no field list at run time, and `__eq__` and
`__hash__` read fields as plain attributes: each runs the same bytecode
a dataclass would have compiled for it.  Fields live in the instance
`__dict__`, which a constructor fills through `object.__setattr__`
without materialising it.
"""

from __future__ import annotations

import types

_store = object.__setattr__
_PLACEHOLDERS = ("_0", "_1", "_2", "_3", "_4", "_5", "_6")


# ---------------------------------------------------------------------------
# Templates, indexed by the number of fields they cover


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


def _eq_0(self, other):
    if other.__class__ is self.__class__:
        return True
    return NotImplemented


def _eq_1(self, other):
    if other.__class__ is self.__class__:
        return (self._0,) == (other._0,)
    return NotImplemented


def _eq_2(self, other):
    if other.__class__ is self.__class__:
        return (self._0, self._1) == (other._0, other._1)
    return NotImplemented


def _eq_3(self, other):
    if other.__class__ is self.__class__:
        return (self._0, self._1, self._2) == (other._0, other._1, other._2)
    return NotImplemented


def _eq_4(self, other):
    if other.__class__ is self.__class__:
        return ((self._0, self._1, self._2, self._3)
                == (other._0, other._1, other._2, other._3))
    return NotImplemented


def _eq_5(self, other):
    if other.__class__ is self.__class__:
        return ((self._0, self._1, self._2, self._3, self._4)
                == (other._0, other._1, other._2, other._3, other._4))
    return NotImplemented


def _eq_6(self, other):
    if other.__class__ is self.__class__:
        return ((self._0, self._1, self._2, self._3, self._4, self._5)
                == (other._0, other._1, other._2, other._3, other._4, other._5))
    return NotImplemented


def _eq_7(self, other):
    if other.__class__ is self.__class__:
        return ((self._0, self._1, self._2, self._3, self._4, self._5, self._6)
                == (other._0, other._1, other._2, other._3, other._4, other._5,
                    other._6))
    return NotImplemented


def _hash_0(self):
    return hash(())


def _hash_1(self):
    return hash((self._0,))


def _hash_2(self):
    return hash((self._0, self._1))


def _hash_3(self):
    return hash((self._0, self._1, self._2))


def _hash_4(self):
    return hash((self._0, self._1, self._2, self._3))


def _hash_5(self):
    return hash((self._0, self._1, self._2, self._3, self._4))


def _hash_6(self):
    return hash((self._0, self._1, self._2, self._3, self._4, self._5))


def _hash_7(self):
    return hash((self._0, self._1, self._2, self._3, self._4, self._5, self._6))


_INITS = (_init_0, _init_1, _init_2, _init_3, _init_4, _init_5, _init_6)
_EQS = (_eq_0, _eq_1, _eq_2, _eq_3, _eq_4, _eq_5, _eq_6, _eq_7)
_HASHES = (_hash_0, _hash_1, _hash_2, _hash_3, _hash_4, _hash_5, _hash_6, _hash_7)


def _specialise(templates: tuple, names: tuple, cls: type, method: str,
                defaults: tuple = ()) -> types.FunctionType:
    """The template for `len(names)` fields with its placeholders renamed
    to `names`, as `cls.method`."""
    if len(names) >= len(templates):
        msg = (f"{cls.__qualname__}: a record without its own {method} "
               f"takes at most {len(templates) - 1} fields")
        raise TypeError(msg)
    code = templates[len(names)].__code__
    rename = dict(zip(_PLACEHOLDERS, names))
    code = code.replace(
        co_name=method,
        co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
        co_names=tuple(rename.get(n, n) for n in code.co_names),
        co_consts=tuple(rename.get(c, c) if isinstance(c, str) else c
                        for c in code.co_consts))
    function = types.FunctionType(code, globals(), method, defaults or None)
    function.__qualname__ = f"{cls.__qualname__}.{method}"
    return function


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
            cls.__init__ = _specialise(_INITS, fields, cls, "__init__", defaults)
        if "__eq__" not in own_methods:
            cls.__eq__ = _specialise(_EQS, compared, cls, "__eq__")
        if own_methods.get("__hash__") is None:
            cls.__hash__ = _specialise(_HASHES, compared, cls, "__hash__")

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
