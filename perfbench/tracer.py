"""Outside-in tracing of tmbt's layers, for the benchmark's traced runs.

`install` replaces each traced function wherever a tmbt module holds it:
in the module that defines it and in every module that imported it by
name, so the calling layer's own attribute lookup finds the wrapper.
Methods are replaced on their class.  Only entry points are wrapped with
spans; the recursive evaluator `eval_expr` gets a cheaper counting
wrapper that tallies node visits and charges each tree walk to the span
that started it.  No recursive tmbt function is wrapped apart from the
evaluator, whose wrapper adds one frame per level; traced runs therefore
use only shallow formulas in the evaluator.

A span is [name, start_ns, end_ns, parent, result_size, walk_nodes]:
`parent` is the index of the enclosing span or -1, `result_size` a
layer-specific size of the return value (states, tokens, bytes...) and
`walk_nodes` the evaluator nodes visited by walks started directly in
the span.  `Tracer.dump` writes the spans of one invocation as JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _count_nodes(spec) -> int:
    """Expression nodes in a TemporalSpec, walked without recursion."""
    stack = [spec.init]
    stack.extend(a.formula for a in spec.actions)
    stack.extend(f for _, f in spec.invariants)
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        for value in vars(node).values():
            if isinstance(value, tuple):
                stack.extend(value)
            elif type(value).__module__ == "tmbt.spec":
                stack.append(value)
    return count


def _removed(args, result) -> int:
    return len(args[2]) - len(result)


# (module, attribute, span name, result size) for functions; the class
# name goes before the attribute for methods.
FUNCTION_SPANS = (
    ("tmbt.values", "set_members", "values.set_members", None),
    ("tmbt.spec", "eval_state_formula", "spec.eval_state", None),
    ("tmbt.spec", "eval_action_formula", "spec.eval_action", None),
    ("tmbt.explore", "derive_domains", "explore.derive_domains", None),
    ("tmbt.explore", "initial_states", "explore.initial_states",
     lambda args, result: len(result)),
    ("tmbt.explore", "successors", "explore.successors",
     lambda args, result: len(result)),
    ("tmbt.explore", "explore", "explore.explore",
     lambda args, result: result[1].distinct_states),
    ("tmbt.specs", "load", "specs.load", None),
    ("tmbt.streams", "to_temporal_spec", "streams.to_temporal_spec", None),
    ("tmbt.tla.lexer", "tokenize", "tla.tokenize",
     lambda args, result: len(result)),
    ("tmbt.tla.parser", "parse_module", "tla.parse_module", None),
    ("tmbt.tla.parser", "to_spec", "tla.to_spec",
     lambda args, result: _count_nodes(result)),
    ("tmbt.tla.printer", "pretty_print", "tla.pretty_print", None),
    ("tmbt.ir", "spec_to_text", "ir.spec_to_text",
     lambda args, result: len(result)),
    ("tmbt.ir", "spec_from_text", "ir.spec_from_text", None),
    ("tmbt.pbt", "generate_commands", "pbt.generate_commands",
     lambda args, result: len(result)),
    ("tmbt.pbt", "run_case", "pbt.run_case", None),
    ("tmbt.pbt", "shrink", "pbt.shrink", _removed),
    ("tmbt.pbt", "test", "pbt.test", None),
)
METHOD_SPANS = (
    ("tmbt.pbt", "InProcessAdapter", "apply", "boiler.apply"),
    ("tmbt.pbt", "InProcessAdapter", "reset", "boiler.reset"),
    ("tmbt.pbt", "SubprocessAdapter", "apply", "boiler.apply"),
    ("tmbt.pbt", "SubprocessAdapter", "reset", "boiler.reset"),
    ("tmbt.pbt", "SubprocessAdapter", "__init__", "boiler.spawn"),
)
COUNTED = ("tmbt.spec", "eval_expr")


class Tracer:
    """Spans and evaluator counts of one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.nodes = 0          # evaluator node visits
        self.walks = 0          # top-level evaluator calls

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(args, result)
            return result

        return traced

    def count(self, fn):
        tracer, spans, stack = self, self.spans, self.stack
        depth = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            nonlocal depth
            if depth:
                depth += 1
                tracer.nodes += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth -= 1
            before = tracer.nodes
            tracer.nodes += 1
            tracer.walks += 1
            depth = 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth = 0
                if stack:
                    spans[stack[-1]][5] += tracer.nodes - before

        return counted

    def run(self, name, fn, *args, **kwargs):
        """Call `fn` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def dump(self, path: str, invocation: str,
             startup_s: float | None = None) -> None:
        data = {"invocation": invocation, "startup_s": startup_s,
                "nodes": self.nodes, "walks": self.walks, "spans": self.spans}
        with open(path, "w") as out:
            json.dump(data, out, separators=(",", ":"))


def _replace_everywhere(original, replacement) -> list:
    """Swap `original` for `replacement` in every loaded tmbt module;
    returns (module, name) pairs so the swap can be undone."""
    swapped = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "tmbt" or mod_name.startswith("tmbt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                swapped.append((module, attr))
    return swapped


def install(tracer: Tracer):
    """Wrap every traced function and method; returns an undo callable.

    tmbt.cli must already be imported, so that every module that binds
    a traced function by name holds it when the swap happens.
    """
    undo = []
    for mod_name, attr, name, size in FUNCTION_SPANS:
        original = getattr(importlib.import_module(mod_name), attr)
        wrapped = tracer.wrap(name, original, size)
        undo.extend((m, a, original)
                    for m, a in _replace_everywhere(original, wrapped))
    for mod_name, cls_name, attr, name in METHOD_SPANS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original))
        undo.append((cls, attr, original))
    mod_name, attr = COUNTED
    original = getattr(importlib.import_module(mod_name), attr)
    counted = tracer.count(original)
    undo.extend((m, a, original) for m, a in _replace_everywhere(original, counted))

    def uninstall():
        for owner, attr_name, value in reversed(undo):
            setattr(owner, attr_name, value)

    return uninstall
