"""The scheduled walk held to the walk it replaced, `walk_reference`.

`initial_states` and `successors` run against the reference on random
specs: test_candidate_plan.py's generator, with and without TypeOK,
each from states sampled from the 72-state product of its TypeOK, and
specs whose Init and action are random trees of astgen.py.  On every
input the two give the same states in the same order, or both raise.

Where both raise they may raise different errors.  The reference walks
each conjunct over every branch before the next conjunct; the scheduled
walk takes one path to its end before the next.  Where two branches
raise, each walk meets a different one first.  `depth_first` drives the
reference's own leaves in the scheduled walk's order, and the scheduled
walk gives exactly its outcome, errors included.  The inputs where the
reference raises an error of another class are counted and pinned.
"""

import random
import sys
import threading

import astgen
import pytest
import walk_reference as ref
from test_candidate_plan import TYPE_OK, VARIABLES, random_spec

import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.explore import derive_domains, explore, initial_states, successors
from tmbt.tla import parse_module, to_spec
from tmbt.values import BOOLEANS

PRODUCT = [sp.State(zip(VARIABLES, (x, y, b)))
           for x in range(-2, 4) for y in range(-2, 4) for b in BOOLEANS.elements]
# per test, the draws where the reference raises an error of another
# class than the scheduled walk, of Inits and of (state, spec) pairs
OTHER_CLASS = {"specs": (26, 48), "trees": (2, 0)}


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


def depth_first(spec, formula, kind, current, domains, label) -> list:
    """The states of `formula` as the reference's leaves and `_states`
    build them, each path walked to its end before the next: a conjunct
    after the one before on the same path, each disjunct, bound value and
    `\\E` witness in turn, each continued to the end."""
    top = "state formula" if kind is sp.Var else "action formula"
    leaves, ends = {}, []

    def walk(todo, branch):  # todo: ((node, env), the rest) or None
        if todo is None:
            ends.append(branch)
            return
        (node, env), todo = todo
        if isinstance(node, sp.And):
            for part in reversed(sp.flat_parts(node)):
                todo = ((part, env), todo)
            walk(todo, branch)
        elif isinstance(node, sp.Or):
            for part in sp.flat_parts(node):
                walk(((part, env), todo), branch)
        else:
            if id(node) not in leaves:
                what = top if node is formula else "operand"
                leaves[id(node)] = ref.leaf(node, kind, what)
            steps, guard = leaves[id(node)]
            if (found := steps(branch, env)) is None:
                if (kept := guard(branch, env)) is not None:
                    walk(todo, kept)
            for grown, inner in found or ():
                walk(((node.body, inner), todo) if isinstance(node, sp.Exists)
                     else todo, grown)

    start = ref._Branch(spec.layout, [ref.UNBOUND] * len(spec.layout.names), current)
    walk(((formula, None), None), start)
    return ref._states(ends, spec, domains, label)


def depth_first_steps(spec, state, domains) -> list:
    return [(action.name, target) for action in spec.actions
            for target in depth_first(spec, action.formula, sp.Primed, state,
                                      domains, f"action {action.name}")]


def judge(old, new, ordered, tally: dict, kind: str) -> None:
    """Holds the scheduled walk's outcome `new` to the reference's `old`
    and to the depth-first drive's `ordered`, and tallies it in `tally`:
    states, the same error, or (under `kind`) an error of another class."""
    assert new == ordered, (new, ordered)
    assert old[0] == new[0], (old, new)
    if old[0] == "value":
        assert old == new
        found = "states"
    else:
        found = kind if old[1] is not new[1] else "same error"
    tally[found] = tally.get(found, 0) + 1


def compare(spec, states, tally) -> None:
    judge(_outcome(ref.initial_states, spec), _outcome(initial_states, spec),
          _outcome(depth_first, spec, spec.init, sp.Var, None,
                   derive_domains(spec), "Init"), tally, "init")
    domains = derive_domains(spec)
    for state in states:
        judge(_outcome(ref.successors, spec, state, domains),
              _outcome(successors, spec, state, domains),
              _outcome(depth_first_steps, spec, state, domains), tally, "steps")


def test_random_specs_match_the_reference():
    rng, tally = random.Random(26), {"init": 0, "steps": 0}
    for _ in range(1200):
        spec = random_spec(rng)
        if rng.random() < 0.5:
            spec = sp.TemporalSpec(spec.name, VARIABLES, spec.init, spec.actions,
                                   (("TypeOK", TYPE_OK),))
        compare(spec, rng.sample(PRODUCT, 4), tally)
    assert (tally["init"], tally["steps"]) == OTHER_CLASS["specs"], tally
    assert tally["states"] > 1000 and tally["same error"] > 4000, tally


def test_random_trees_match_the_reference():
    # most trees raise: their errors are the ones to compare
    rng, tally = random.Random(27), {"init": 0, "steps": 0}
    names = astgen.NAMES
    state = sp.State({name: 0 for name in names})
    for _ in range(1500):
        init, step = (astgen.random_expr(rng, 4, bound=4) for _ in range(2))
        spec = sp.TemporalSpec("trees", names, init, (sp.NamedAction("A", step),))
        compare(spec, [state], tally)
    assert (tally["init"], tally["steps"]) == OTHER_CLASS["trees"], tally
    assert tally["states"] > 20 and tally["same error"] > 2500, tally


@pytest.mark.parametrize("name,params", [
    ("onebit", {}), ("diehard", {}), ("euclid", {}), ("therac25", {}),
    ("steamboiler", {}), ("steamboiler", {"low": 190, "high": 810}),
])
def test_examples_match_the_reference(name, params):
    spec = specs.load(name, params)
    domains = derive_domains(spec)
    assert initial_states(spec) == ref.initial_states(spec)
    for state in explore(spec)[0].nodes:
        assert successors(spec, state, domains) == \
            ref.successors(spec, state, domains)


WITNESSES = """\
VARIABLES x, y
Init == x = 0 /\\ y = 0
Next == /\\ \\E v \\in {1, 5} : x' > v
        /\\ \\E w \\in {1, 2} : y' = w \\/ y' = w + 3
        /\\ x' \\in {3, 6}
"""


def test_threads_walking_one_fresh_formula_agree():
    # a walk compiles each place as the first run reaches it, so threads
    # that walk one fresh formula at once share what they compile; each
    # must still give the reference's steps (a guard waiting past its
    # quantifier reads its witness's env by an index of its own)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            spec = to_spec(parse_module(WITNESSES), name="witnesses")
            state = sp.State({"x": 0, "y": 0})
            want = ref.successors(spec, state, {})
            found = []
            threads = [threading.Thread(
                target=lambda: found.append(successors(spec, state, {})))
                for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert found == [want] * 6 and len(want) == 8
    finally:
        sys.setswitchinterval(interval)
