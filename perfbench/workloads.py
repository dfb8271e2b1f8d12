"""Seeded workload plans and the judging of each operation's output.

A plan lists the operations of each pass.  An operation of a CLI
workload is one `python -m tmbt.cli ...` invocation; its argv and any
`.tla` source it reads come only from the seed, and its reference answer
comes from `reference`, computed before any timing starts.

Known defects are inputs on which tmbt is known to answer wrongly today.
Each is declared with the exact wrong output it gives, so the benchmark
can tell "still the known defect" from "a new failure": an operation
passes when its output matches the reference, counts as a known defect
when it matches the declared wrong output, and fails otherwise.  A fix
to the program moves the operation from the second group to the first.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
import random
import sys
from typing import Callable

import corpus
import reference


# Known-defect identifiers; manifest.json gives each one's input, reference
# answer and declared wrong output.
KNOWN_DEFECTS = ("counter-past-type-bound", "guarded-counter", "deep-junction")

# `tmbt test` runs this many cases when --cases is not given, and the
# benchmark runs the default that users run.
DEFAULT_CASES = 100


@dataclasses.dataclass
class Operation:
    label: str
    args: list           # tmbt.cli arguments
    kind: str            # "check" or "test"
    expect: dict         # reference answer
    declared: dict | None = None   # known-defect output, with "defect" id


@dataclasses.dataclass
class Plan:
    setup: dict                          # what setup_probe.py builds
    operations: Callable[[int], list]    # pass index -> that pass's operations
    one_cpu: bool = False                # pin every process of the run to one CPU


# ---------------------------------------------------------------------------
# check-steamboiler


def _steamboiler_op(low: int, high: int) -> Operation:
    return Operation(
        f"steamboiler {low}/{high}",
        ["check", "--example", "steamboiler", "--param", f"low={low}",
         "--param", f"high={high}", "--format", "json"],
        "check", reference.steamboiler(low, high))


def check_steamboiler(seed: int, tmp: pathlib.Path) -> Plan:
    rng = random.Random(f"check-steamboiler/{seed}")
    passing = (300 + rng.randint(-4, 4), 700 + rng.randint(-4, 4))
    failing = (190 + rng.randint(-4, 4), 810 + rng.randint(-4, 4))
    ops = [_steamboiler_op(*passing), _steamboiler_op(*failing)]
    setup = {"examples": [["steamboiler", {"low": lo, "high": hi}]
                          for lo, hi in (passing, failing)]}
    return Plan(setup, lambda _: ops)


# ---------------------------------------------------------------------------
# check-init

# Coprime ratios a:b whose subtraction GCD takes at most four steps, so
# the BFS stays tiny and Init enumeration dominates.
EUCLID_RATIOS = ((2, 1), (1, 2), (3, 2), (2, 3), (3, 1), (1, 3), (4, 3),
                 (3, 4), (5, 4), (4, 5), (4, 1), (1, 4))
EUCLID_CANDIDATES = 100_000
TOGGLE_VARIABLES = 13


def toggle_source(rng: random.Random, n: int) -> str:
    """n booleans that start in a seeded pattern and all flip together."""
    names = [f"b{i}" for i in range(1, n + 1)]
    start = {name: rng.random() < 0.5 for name in names}
    order = rng.sample(names, n)

    def bullets(head: str, items: list) -> list:
        pad = " " * len(head)
        return [(head if i == 0 else pad) + "/\\ " + item
                for i, item in enumerate(items)]

    lines = ["VARIABLES " + ", ".join(names)]
    lines += bullets("TypeOK == ", [f"{v} \\in BOOLEAN" for v in order])
    lines += bullets("Init == ",
                     [f"{v} = {'TRUE' if start[v] else 'FALSE'}" for v in order])
    lines += bullets("Flip == ", [f"{v}' = (~{v})" for v in order])
    lines.append("Next == \\/ Flip")
    return "\n".join(lines) + "\n"


def check_init(seed: int, tmp: pathlib.Path) -> Plan:
    rng = random.Random(f"check-init/{seed}")
    a, b = rng.choice(EUCLID_RATIOS)
    g = round(math.sqrt(EUCLID_CANDIDATES / (a * b)))
    m, n = g * a, g * b

    toggle = tmp / "toggle.tla"
    toggle.write_text(toggle_source(rng, TOGGLE_VARIABLES))

    type_high = rng.randint(3, 6)
    max_distinct = type_high + rng.randint(3, 8)
    case1 = tmp / "counter.tla"
    case1.write_text(f"VARIABLE x\nTypeOK == x \\in 0..{type_high}\n"
                     "Init == x = 0\nNext == x' = x + 1\n")

    bound = rng.randint(4, 9)
    inv_bound = rng.randint(2, bound - 1)
    case2 = tmp / "guarded.tla"
    case2.write_text(f"VARIABLE x\nInit == x = 0\n"
                     f"Next == x' = x + 1 /\\ x < {bound}\n"
                     f"Inv == x < {inv_bound}\n")

    def example(name, *extra):
        return ["check", "--example", name, *extra, "--format", "json"]

    ops = [
        Operation(f"euclid {m}x{n}",
                  example("euclid", "--param", f"M={m}", "--param", f"N={n}"),
                  "check", reference.euclid(m, n)),
        Operation(f"toggle {TOGGLE_VARIABLES}",
                  ["check", "--spec", str(toggle), "--format", "json"],
                  "check", reference.toggle()),
        Operation("onebit", example("onebit"), "check", reference.onebit()),
        Operation("diehard", example("diehard"), "check", reference.diehard()),
        Operation("therac25", example("therac25"), "check",
                  reference.therac25()),
        Operation(f"counter 0..{type_high} max {max_distinct}",
                  ["check", "--spec", str(case1), "--max-distinct",
                   str(max_distinct), "--format", "json"],
                  "check",
                  reference.counter_past_type_bound(type_high, max_distinct),
                  declared=_declared_check("counter-past-type-bound",
                                           type_high + 1)),
        Operation(f"guarded x<{bound} inv x<{inv_bound}",
                  ["check", "--spec", str(case2), "--invariant", "Inv",
                   "--format", "json"],
                  "check", reference.guarded_counter(bound, inv_bound),
                  declared=_declared_check("guarded-counter", 1)),
    ]
    setup = {"examples": [["euclid", {"M": m, "N": n}], ["onebit", {}],
                          ["diehard", {}], ["therac25", {}]],
             "sources": [[str(toggle), []], [str(case1), []],
                         [str(case2), ["Inv"]]]}
    return Plan(setup, lambda _: ops)


def _declared_check(defect: str, states: int) -> dict:
    """Today's output on a soundness case: a clean pass over `states`
    states on a single chain."""
    return {"defect": defect, "exit": 0,
            "stats": {"states_found": states, "distinct_states": states,
                      "diameter": states, "truncated": False},
            "traces": {}}


# ---------------------------------------------------------------------------
# test-boiler


def test_boiler(seed: int, tmp: pathlib.Path) -> Plan:
    sut = f"{sys.executable} -m tmbt.boiler"

    def draw_pass(pass_index: int) -> list:
        rng = random.Random(f"test-boiler/{seed}/{pass_index}")
        s1, s2, s3, s4 = (rng.getrandbits(32) for _ in range(4))
        return [
            Operation("in-process", ["test", "--seed", str(s1),
                                     "--format", "json"],
                      "test", {"verdict": "pass", "cases": DEFAULT_CASES}),
            Operation("wire", ["test", "--seed", str(s2), "--sut", sut,
                               "--format", "json"],
                      "test", {"verdict": "pass", "cases": DEFAULT_CASES}),
            Operation("band mutant", ["test", "--seed", str(s3), "--sut",
                                      f"{sut} --mutant band", "--format", "json"],
                      "test", {"verdict": "fail", "mutant": "band"}),
            Operation("pump mutant", ["test", "--seed", str(s4), "--sut",
                                      f"{sut} --mutant pump", "--format", "json"],
                      "test", {"verdict": "fail", "mutant": "pump"}),
        ]

    return Plan({"boiler": [300, 700], "sut": sut}, draw_pass, one_cpu=True)


# ---------------------------------------------------------------------------
# translate-roundtrip: an operation is a corpus module, and a pass is
# corpus.corpus_pass(seed, pass_index); roundtrip_child.py runs them all
# in one process, judged against each module's expected IR.


def translate_roundtrip(seed: int, tmp: pathlib.Path) -> Plan:
    return Plan({}, functools.partial(corpus.corpus_pass, seed))


# ---------------------------------------------------------------------------
# Judging


def _check_output(stdout: str, exit_code: int) -> dict | None:
    lines = stdout.splitlines()
    try:
        stats = json.loads(lines[0])
        traces = {}
        for line in lines[1:]:
            cex = json.loads(line)
            traces[cex["invariant"]] = len(cex["trace"])
    except (IndexError, ValueError, KeyError, TypeError):
        return None
    return {"exit": exit_code, "stats": stats, "traces": traces}


def judge_check(op: Operation, exit_code: int, stdout: str, stderr: str):
    """Returns (outcome, detail): outcome is "ok", "known" or "failed"."""
    if "Traceback" in stderr:
        return "failed", "traceback on stderr"
    got = _check_output(stdout, exit_code)
    if got == op.expect:
        return "ok", ""
    if op.declared is not None:
        declared = {k: v for k, v in op.declared.items() if k != "defect"}
        if got == declared:
            return "known", op.declared["defect"]
    return "failed", f"got {got}, expected {op.expect}"


def _commands(data) -> list:
    return [(c["op"], c.get("args", {})) for c in data]


def judge_test(op: Operation, exit_code: int, stdout: str, stderr: str):
    """A test run against the reference SUT must pass every case; a run
    against a mutant must fail with a first divergence at the reported
    index and a shrunk sequence that is 1-minimal, both judged by the
    reference model of the boiler API."""
    if "Traceback" in stderr:
        return "failed", "traceback on stderr"
    try:
        report = json.loads(stdout.splitlines()[-1])
        counts = report["invocation_counts"]
        failing = report["failing"]
        if failing is not None:
            commands = _commands(failing["commands"])
            shrunk = _commands(failing["shrunk"])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return "failed", "no well-formed JSON report"
    if sorted(counts) != sorted(reference.OPS):
        return "failed", "invocation counts do not cover the nine operations"
    expect = op.expect
    if expect["verdict"] == "pass":
        ok = (exit_code == 0 and report.get("verdict") == "pass"
              and report.get("cases_run") == expect["cases"]
              and failing is None)
        return ("ok", "") if ok else ("failed", f"reference run: {report}")
    if exit_code != 1 or report.get("verdict") != "fail" or not failing:
        return "failed", "mutant not detected"
    try:
        index = reference.first_divergence(commands, expect["mutant"])
    except ValueError as invalid:
        return "failed", f"generated sequence is invalid: {invalid}"
    if index != failing.get("index"):
        return "failed", f"divergence at {index}, reported {failing.get('index')}"
    if not reference.is_one_minimal_failure(shrunk, expect["mutant"]):
        return "failed", "shrunk sequence is not a 1-minimal failure"
    return "ok", ""


def cases_run(stdout: str) -> int:
    """PBT cases a test invocation ran, from its JSON report."""
    try:
        return int(json.loads(stdout.splitlines()[-1])["cases_run"])
    except (IndexError, ValueError, KeyError, TypeError):
        return 0
