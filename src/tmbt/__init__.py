"""Temporal-spec model tooling.

Executable Init/Next specifications with exhaustive breadth-first
exploration, a textual TLA+ subset front end, timed-stream component
specs, and model-guided stateful property-based testing.

Every public name loads its module on first use (PEP 562), so
`import tmbt` loads no submodule, and a process such as the boiler SUT
pays only for the modules it runs.

`tmbt.explore` is the exploration function, and it shadows the submodule
of the same name whatever the import order: `import tmbt.explore as m`
binds the function too.  Reach the module as `from tmbt.explore import
...` or `importlib.import_module("tmbt.explore")`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "TmbtError": "errors",
    "Counterexample": "explore",
    "ExplorationStats": "explore",
    "StateGraph": "explore",
    "behavior_satisfies": "explore",
    "behaviors": "explore",
    "initial_states": "explore",
    "successors": "explore",
    "spec_from_text": "ir",
    "spec_to_text": "ir",
    "Behavior": "spec",
    "NamedAction": "spec",
    "State": "spec",
    "TemporalSpec": "spec",
    "eval_action_formula": "spec",
    "eval_expr": "spec",
    "eval_state_formula": "spec",
    "well_formed": "spec",
    "parse_expression": "tla",
    "parse_module": "tla",
    "pretty_print": "tla",
    "to_spec": "tla",
    "BoolVal": "values",
    "SeqVal": "values",
    "SetVal": "values",
    "Value": "values",
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module, whose `explore` is always the function.

    Importing `tmbt.explore` binds the submodule onto the package; the
    property ignores that assignment and reads the function instead."""

    @property
    def explore(self):
        return importlib.import_module(f"{__name__}.explore").explore

    @explore.setter
    def explore(self, module):
        pass


sys.modules[__name__].__class__ = _Package

__all__ = sorted([*_HOMES, "explore"]) + ["__version__"]
