"""Temporal-spec model tooling.

Executable Init/Next specifications with exhaustive breadth-first
exploration, a textual TLA+ subset front end, timed-stream component
specs, and model-guided stateful property-based testing.

`tmbt.explore` is the exploration function, and it shadows the submodule
of the same name: `import tmbt.explore as m` binds the function too.
Reach the module as `from tmbt.explore import ...` or
`importlib.import_module("tmbt.explore")`.
"""

import importlib

from .errors import TmbtError
from .explore import (
    Counterexample,
    ExplorationStats,
    StateGraph,
    behavior_satisfies,
    behaviors,
    explore,
    initial_states,
    successors,
)
from .spec import (
    Behavior,
    NamedAction,
    State,
    TemporalSpec,
    eval_action_formula,
    eval_expr,
    eval_state_formula,
    well_formed,
)
from .values import BoolVal, IntVal, SeqVal, SetVal, Value

__version__ = "0.1.0"

# The IR codec and the TLA-subset front end load on first use of one of
# their names (PEP 562), so importing the package, or a command that
# needs neither, does not pay for them.  `explore` stays an eager import:
# the function it binds must shadow the submodule of the same name.
_LAZY = {
    "spec_from_text": "ir",
    "spec_to_text": "ir",
    "parse_expression": "tla",
    "parse_module": "tla",
    "pretty_print": "tla",
    "to_spec": "tla",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return getattr(module, name)


__all__ = [
    "Behavior",
    "BoolVal",
    "Counterexample",
    "ExplorationStats",
    "IntVal",
    "NamedAction",
    "SeqVal",
    "SetVal",
    "State",
    "StateGraph",
    "TemporalSpec",
    "TmbtError",
    "Value",
    "behavior_satisfies",
    "behaviors",
    "eval_action_formula",
    "eval_expr",
    "eval_state_formula",
    "explore",
    "initial_states",
    "parse_expression",
    "parse_module",
    "pretty_print",
    "spec_from_text",
    "spec_to_text",
    "successors",
    "to_spec",
    "well_formed",
    "__version__",
]
