"""Dataclass twins of some tmbt records, declared as they were before
`tmbt.record.Record` replaced `@dataclasses.dataclass(frozen=True)`.

test_record.py holds each Record class to its twin: construction by
position and keyword, defaults and wrong arities, `==`, `hash`, `repr`
and frozenness.  The twins' reprs name the same classes, and their
hashes are hashes of the same field tuples, so both compare exactly.
"""

from __future__ import annotations

import dataclasses
import typing as t


@dataclasses.dataclass(frozen=True)
class BoolVal:
    value: bool


@dataclasses.dataclass(frozen=True)
class Var:
    name: str


@dataclasses.dataclass(frozen=True)
class Conforms:
    pass


@dataclasses.dataclass(frozen=True)
class AssumptionViolated:
    index: int


@dataclasses.dataclass(frozen=True)
class ExplorationStats:
    diameter: int
    states_found: int
    distinct_states: int
    truncated: bool = False


@dataclasses.dataclass(frozen=True)
class TestConfig:
    cases: int = 100
    max_len: int = 40
    seed: int = 0
    continue_on_fail: bool = False


@dataclasses.dataclass(frozen=True)
class TestReport:
    seed: int
    cases_run: int
    verdict: str
    invocation_counts: tuple
    failing: t.Optional[object] = None
    elapsed_seconds: float = dataclasses.field(default=0.0, compare=False)
