"""Per-layer metrics from the span files of a traced run.

Self time of a span is its duration minus the durations of its child
spans; a layer's self time is the sum over the spans of that layer.
Every figure is per traced pass: sums over all traced passes divided by
their number, so a deterministic workload reports exact counts.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name, unit, better
METRICS = (
    ("values.set_members.calls", "count", "lower"),
    ("values.set_members_s", "s", "lower"),
    ("spec.eval_nodes", "count", "lower"),
    ("spec.eval_expr.calls", "count", "lower"),
    ("spec.eval_action.calls", "count", "lower"),
    ("spec.eval_action_s", "s", "lower"),
    ("spec.eval_state.calls", "count", "lower"),
    ("spec.eval_state_s", "s", "lower"),
    ("spec.ns_per_node", "ns", "lower"),
    ("explore.derive_domains_s", "s", "lower"),
    ("explore.initial_states_s", "s", "lower"),
    ("explore.init_candidates", "count", "lower"),
    ("explore.init_yield", "ratio", "higher"),
    ("explore.successors.calls", "count", "lower"),
    ("explore.successors_s", "s", "lower"),
    ("explore.successor_candidates", "count", "lower"),
    ("explore.successor_accepted", "count", "lower"),
    ("explore.successor_yield", "ratio", "higher"),
    ("explore.invariant_checks", "count", "lower"),
    ("explore.invariant_s", "s", "lower"),
    ("explore.bfs_self_s", "s", "lower"),
    ("explore.states_per_s", "1/s", "higher"),
    ("specs.load_s", "s", "lower"),
    ("tla.tokenize_s", "s", "lower"),
    ("tla.tokens", "count", "lower"),
    ("tla.parse_module_s", "s", "lower"),
    ("tla.to_spec_s", "s", "lower"),
    ("tla.print_s", "s", "lower"),
    ("tla.nodes_per_s", "1/s", "higher"),
    ("ir.encode_s", "s", "lower"),
    ("ir.decode_s", "s", "lower"),
    ("ir.bytes", "bytes", "lower"),
    ("pbt.generate.calls", "count", "lower"),
    ("pbt.generate_s", "s", "lower"),
    ("pbt.commands", "count", "lower"),
    ("pbt.run_case.calls", "count", "lower"),
    ("pbt.run_case_self_s", "s", "lower"),
    ("pbt.shrink_s", "s", "lower"),
    ("pbt.shrink_replays", "count", "lower"),
    ("pbt.replays_per_removed", "ratio", "lower"),
    ("boiler.apply.calls", "count", "lower"),
    ("boiler.apply_us.p50", "us", "lower"),
    ("boiler.apply_us.p99", "us", "lower"),
    ("boiler.reset_s", "s", "lower"),
    ("boiler.spawn_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)
LAYERS = ("values", "spec", "explore", "specs", "tla", "ir", "pbt", "boiler",
          "cli")
SHARE_METRICS = tuple(
    item for layer in LAYERS
    for item in ((f"{layer}.layer_self_s", "s", "lower"),
                 (f"{layer}.layer_share", "ratio", "lower")))
HARNESS_METRICS = (
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("phase.inprocess_cases_per_s", "1/s", "higher"),
    ("phase.wire_cases_per_s", "1/s", "higher"),
    ("phase.band_shrink_s", "s", "lower"),
    ("phase.deep_junction_s", "s", "lower"),
    ("bench.failed_share", "ratio", "lower"),
    ("bench.known_defect_share", "ratio", "lower"),
)
ALL_METRICS = METRICS + SHARE_METRICS + HARNESS_METRICS

# Span-name prefix -> layer; streams is reported with the specs loader
# that calls it.
_LAYER_OF = {"streams": "specs"}


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return _LAYER_OF.get(prefix, prefix)


def tail_percentile(samples):
    """(percentile, value) for the highest of p50..p99.9 that has at least
    ten samples beyond it, or None below 20 samples."""
    if len(samples) < 20:
        return None
    ordered = sorted(samples)
    for per_mille in (999, 990, 950, 900, 750, 500):
        rank = _rank(len(ordered), per_mille)
        if len(ordered) - rank >= 10:
            return per_mille / 10, ordered[rank - 1]
    return None


def _rank(n: int, per_mille: int) -> int:
    """Nearest-rank position (1-based) of a percentile given in tenths."""
    return max(1, -(-n * per_mille // 1000))


def nearest_rank(ordered, pct: int):
    return ordered[_rank(len(ordered), pct * 10) - 1]


class Aggregate:
    """Sums over the span files of the traced invocations of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)     # inclusive time per span name
        self.self_ns = defaultdict(int)
        self.size = defaultdict(int)         # summed result sizes
        self.layer_self_ns = defaultdict(int)
        self.by_parent = defaultdict(lambda: [0, 0, 0])  # count, ns, nodes
        self.apply_ns: list = []
        self.shrink_replays = 0
        self.nodes = 0
        self.walks = 0
        self.root_ns = 0
        self.startup_s = 0.0
        self.traced_wall = 0.0    # wall time of the traced work, in s
        self.invocations: list = []   # (label, per-invocation counts)

    def add(self, data: dict) -> None:
        spans = data["spans"]
        child_ns = [0] * len(spans)
        under_shrink = [False] * len(spans)
        for index, (name, start, end, parent, size, _) in enumerate(spans):
            duration = end - start
            if parent >= 0:
                child_ns[parent] += duration
                under_shrink[index] = (under_shrink[parent]
                                       or spans[parent][0] == "pbt.shrink")
            else:
                self.root_ns += duration
        counts = defaultdict(int)
        for index, (name, start, end, parent, size, nodes) in enumerate(spans):
            duration = end - start
            own = duration - child_ns[index]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += own
            self.layer_self_ns[layer_of(name)] += own
            if size is not None:
                self.size[name] += size
            parent_name = spans[parent][0] if parent >= 0 else None
            slot = self.by_parent[(name, parent_name)]
            slot[0] += 1
            slot[1] += duration
            slot[2] += nodes
            counts[(name, parent_name)] += 1
            if name == "boiler.apply":
                self.apply_ns.append(duration)
            if name == "pbt.run_case" and under_shrink[index]:
                self.shrink_replays += 1
        self.nodes += data["nodes"]
        self.walks += data["walks"]
        self.startup_s += data.get("startup_s") or 0.0
        self.invocations.append((data["invocation"], {
            "successors": counts[("explore.successors", "explore.explore")],
            "candidates": counts[("spec.eval_action", "explore.successors")],
            "accepted": sum(s[4] for s in spans
                            if s[0] == "explore.successors"),
            "state_formulas": sum(v for (n, _), v in counts.items()
                                  if n == "spec.eval_state"),
            "nodes": data["nodes"],
        }))

    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics over `passes` traced passes."""
        wall_s = self.traced_wall
        def per_pass(x):
            return x / passes

        def secs(ns):
            return ns / 1e9 / passes

        def ratio(a, b):
            return a / b if b else 0.0

        parent = self.by_parent
        init_cand = parent[("spec.eval_state", "explore.initial_states")]
        inv = parent[("spec.eval_state", "explore.explore")]
        succ_cand = parent[("spec.eval_action", "explore.successors")]
        eval_ns = self.total_ns["spec.eval_action"] + self.total_ns["spec.eval_state"]
        eval_nodes = sum(slot[2] for (name, _), slot in parent.items()
                         if name in ("spec.eval_action", "spec.eval_state"))
        front_ns = (self.total_ns["tla.tokenize"] + self.self_ns["tla.parse_module"]
                    + self.total_ns["tla.to_spec"])
        apply_sorted = sorted(self.apply_ns)
        out = {
            "values.set_members.calls": per_pass(self.calls["values.set_members"]),
            "values.set_members_s": secs(self.total_ns["values.set_members"]),
            "spec.eval_nodes": per_pass(self.nodes),
            "spec.eval_expr.calls": per_pass(self.walks),
            "spec.eval_action.calls": per_pass(self.calls["spec.eval_action"]),
            "spec.eval_action_s": secs(self.total_ns["spec.eval_action"]),
            "spec.eval_state.calls": per_pass(self.calls["spec.eval_state"]),
            "spec.eval_state_s": secs(self.total_ns["spec.eval_state"]),
            "spec.ns_per_node": ratio(eval_ns, eval_nodes),
            "explore.derive_domains_s": secs(self.total_ns["explore.derive_domains"]),
            "explore.initial_states_s": secs(self.total_ns["explore.initial_states"]),
            "explore.init_candidates": per_pass(init_cand[0]),
            "explore.init_yield": ratio(self.size["explore.initial_states"],
                                        init_cand[0]),
            "explore.successors.calls": per_pass(self.calls["explore.successors"]),
            "explore.successors_s": secs(self.total_ns["explore.successors"]),
            "explore.successor_candidates": per_pass(succ_cand[0]),
            "explore.successor_accepted": per_pass(self.size["explore.successors"]),
            "explore.successor_yield": ratio(self.size["explore.successors"],
                                             succ_cand[0]),
            "explore.invariant_checks": per_pass(inv[0]),
            "explore.invariant_s": secs(inv[1]),
            "explore.bfs_self_s": secs(self.self_ns["explore.explore"]),
            "explore.states_per_s": ratio(self.size["explore.explore"],
                                          self.total_ns["explore.explore"] / 1e9),
            "specs.load_s": secs(self.total_ns["specs.load"]),
            "tla.tokenize_s": secs(self.total_ns["tla.tokenize"]),
            "tla.tokens": per_pass(self.size["tla.tokenize"]),
            "tla.parse_module_s": secs(self.self_ns["tla.parse_module"]),
            "tla.to_spec_s": secs(self.total_ns["tla.to_spec"]),
            "tla.print_s": secs(self.total_ns["tla.pretty_print"]),
            "tla.nodes_per_s": ratio(self.size["tla.to_spec"], front_ns / 1e9),
            "ir.encode_s": secs(self.total_ns["ir.spec_to_text"]),
            "ir.decode_s": secs(self.total_ns["ir.spec_from_text"]),
            "ir.bytes": per_pass(self.size["ir.spec_to_text"]),
            "pbt.generate.calls": per_pass(self.calls["pbt.generate_commands"]),
            "pbt.generate_s": secs(self.total_ns["pbt.generate_commands"]),
            "pbt.commands": per_pass(self.size["pbt.generate_commands"]),
            "pbt.run_case.calls": per_pass(self.calls["pbt.run_case"]),
            "pbt.run_case_self_s": secs(self.self_ns["pbt.run_case"]),
            "pbt.shrink_s": secs(self.total_ns["pbt.shrink"]),
            "pbt.shrink_replays": per_pass(self.shrink_replays),
            "pbt.replays_per_removed": ratio(self.shrink_replays,
                                             self.size["pbt.shrink"]),
            "boiler.apply.calls": per_pass(self.calls["boiler.apply"]),
            "boiler.apply_us.p50": (nearest_rank(apply_sorted, 50) / 1e3
                                    if apply_sorted else 0.0),
            "boiler.apply_us.p99": (nearest_rank(apply_sorted, 99) / 1e3
                                    if len(apply_sorted) >= 1000 else 0.0),
            "boiler.reset_s": secs(self.total_ns["boiler.reset"]),
            "boiler.spawn_s": secs(self.total_ns["boiler.spawn"]),
            "cli.startup_s": per_pass(self.startup_s),
            "cli.self_s": secs(self.self_ns["cli.main"]),
        }
        for layer in LAYERS:
            own = self.layer_self_ns[layer] / 1e9
            out[f"{layer}.layer_self_s"] = own / passes
            out[f"{layer}.layer_share"] = ratio(own, wall_s)
        out["trace.unattributed_s"] = max(0.0, wall_s - self.root_ns / 1e9) / passes
        return out


def overhead(untraced_walls: list, traced_walls: list) -> dict:
    """Tracing overhead: the median over pairs of a traced pass minus its
    untraced partner (the k-th of each list, run back to back in
    alternating order), and that as a share of the median untraced pass."""
    pairs = list(zip(untraced_walls, traced_walls))
    if not pairs:
        return {"trace.overhead_s": 0.0, "trace.overhead_share": 0.0}
    extra = statistics.median(traced - plain for plain, traced in pairs)
    plain = statistics.median(plain for plain, _ in pairs)
    return {"trace.overhead_s": extra, "trace.overhead_share": extra / plain}


def report(workload: str, metrics: dict, invocations: list) -> str:
    """Human-readable traced-run report."""
    lines = [f"traced run of {workload}, per traced pass:",
             f"  {'layer':<9} {'self s':>10} {'share':>7}"]
    for layer in LAYERS:
        lines.append(f"  {layer:<9} {metrics[f'{layer}.layer_self_s']:>10.4f} "
                     f"{100 * metrics[f'{layer}.layer_share']:>6.1f}%")
    lines.append(f"  {'(outside)':<9} {metrics['trace.unattributed_s']:>10.4f}")
    lines.append(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s "
                 f"({100 * metrics['trace.overhead_share']:.1f}% of an untraced pass)")
    for name, unit, _ in METRICS:
        if metrics[name]:
            lines.append(f"  {name} = {metrics[name]:.6g} {unit}")
    seen = set()
    for label, counts in invocations:
        if counts["successors"] and label not in seen:
            seen.add(label)
            lines.append(
                f"  [{label}] successors {counts['successors']}, candidates "
                f"{counts['candidates']}, accepted {counts['accepted']}, "
                f"state formulas {counts['state_formulas']}, "
                f"evaluator nodes {counts['nodes']}")
    return "\n".join(lines)
