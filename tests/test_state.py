"""The positional `State` against the pair-tuple `State` it replaced.

`state_reference.State` is the old class.  On every reachable state of
the five examples and on random bindings, both must give the same
`bindings`, `state_key`, `as_dict`, `repr`, `==`, `in` and `[]` (with
its `KeyError`).  Then come the cases the slots bring: one layout per
name tuple, also when threads race to make it; one compiled node read
against the states of two specs whose variables differ; and a walk
branch that binds a name no variable has.
"""

import copy
import pickle
import random
import sys
import threading

import pytest
import state_reference as ref

import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.errors import UnboundVariable
from tmbt.explore import explore, initial_states, successors
from tmbt.values import FALSE, TRUE, BoolVal, SeqVal, SetVal

NAMES = ("a", "b", "level", "pumpOn", "x", "y")


def _outcome(call, *args, **kwargs):
    try:
        return ("value", call(*args, **kwargs))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


def _value(rng: random.Random):
    pick = rng.randrange(4)
    if pick == 0:
        return rng.randint(-3, 3)
    if pick == 1:
        return BoolVal(rng.random() < 0.5)
    items = [rng.randint(0, 2) for _ in range(rng.randrange(3))]
    return SetVal(items) if pick == 2 else SeqVal(items)


def assert_same(new: sp.State, old: ref.State) -> None:
    """Every read of `new` gives what the same read of `old` gives."""
    assert new.bindings == old.bindings
    assert sp.state_key(new) == ref.state_key(old)
    assert new.as_dict() == old.as_dict()
    assert repr(new) == repr(old)
    assert new.variables() == old.variables()
    for name in NAMES + ("absent",):
        assert (name in new) == (name in old)
        assert _outcome(new.__getitem__, name) == _outcome(old.__getitem__, name)


@pytest.mark.parametrize("name", specs.EXAMPLE_NAMES)
def test_every_reachable_state_of_the_examples(name):
    spec = specs.load(name)
    graph, _, _ = explore(spec)
    nodes = sorted(graph.nodes, key=sp.state_key)
    olds = [ref.State(dict(state.bindings)) for state in nodes]
    for state, old in zip(nodes, olds):
        assert state.layout is spec.layout  # one layout per spec's states
        assert_same(state, old)
        assert state == sp.State(old.as_dict()) and hash(state) == hash(
            sp.State(old.bindings))
    # the values-only key sorts one layout's states in `state_key` order
    assert sorted(nodes, key=sp.values_key) == nodes
    assert [ref.state_key(old) for old in sorted(olds, key=ref.state_key)] == \
        [sp.state_key(state) for state in nodes]


def test_random_bindings():
    rng = random.Random(18)
    pairs = []
    for _ in range(2000):
        names = rng.sample(NAMES, rng.randrange(len(NAMES) + 1))
        bindings = {name: _value(rng) for name in names}
        new, old = sp.State(bindings), ref.State(bindings)
        assert_same(new, old)
        assert_same(sp.State(list(bindings.items())), old)
        pairs.append((new, old))
    for (new, old), (new2, old2) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (new == new2) == (old == old2)
        assert (new != new2) == (old != old2)
        if new == new2:
            assert hash(new) == hash(new2)
    assert sum(new == new2 for (new, _), (new2, _) in zip(pairs, pairs[1:])) > 10


def test_states_are_frozen_and_share_their_layout():
    state = sp.State({"x": 1, "b": TRUE})
    with pytest.raises(AttributeError, match="cannot assign to field 'values'"):
        state.values = ()
    with pytest.raises(AttributeError):
        del state.layout
    assert sp.State({"b": FALSE, "x": 2}).layout is state.layout
    assert state.layout.names == ("b", "x")
    assert state != ref.State({"x": 1, "b": TRUE})
    for twin in (copy.copy(state), copy.deepcopy(state),
                 pickle.loads(pickle.dumps(state))):
        assert twin == state and twin.layout is state.layout


def test_threads_building_one_name_tuple_share_its_layout():
    # states compare layouts by identity, so a race in interning one
    # would make equal states unequal
    tuples = [tuple(f"r{n}_{k}" for k in range(200)) for n in range(100)]
    seen = [[] for _ in tuples]
    barrier = threading.Barrier(6)

    def build():
        for index, names in enumerate(tuples):
            barrier.wait(timeout=30)  # all threads meet each tuple at once
            seen[index].append(sp.State(dict.fromkeys(names, TRUE)).layout)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(layouts) == 6 and len(set(map(id, layouts))) == 1
               for layouts in seen)


def test_one_node_reads_the_states_of_two_specs():
    # x sits in slot 0 of the first layout and slot 1 of the second
    node = sp.Sub(sp.Add(sp.Var("x"), sp.Primed("y")), sp.intval(1))
    narrow = sp.State({"x": 1, "y": 2})
    wide = sp.State({"a": TRUE, "x": 10, "y": 20})
    lacking = sp.State({"y": 5})
    for _ in range(3):
        assert sp.eval_expr(node, narrow, wide) == 20
        assert sp.eval_expr(node, wide, narrow) == 11
        assert sp.eval_expr(node, wide, wide) == 29
        with pytest.raises(UnboundVariable, match="variable x is not bound"):
            sp.eval_expr(node, lacking, wide)
    # one action formula, explored under two specs in turn
    step = sp.conj(sp.Lt(sp.Var("x"), sp.intval(3)),
                   sp.Eq(sp.Primed("x"), sp.Add(sp.Var("x"), sp.intval(1))))
    init = sp.Eq(sp.Var("x"), sp.intval(0))
    alone = sp.TemporalSpec("alone", ("x",), init, (sp.NamedAction("A", step),))
    paired = sp.TemporalSpec(
        "paired", ("x", "a"), sp.conj(init, sp.Var("a")),
        (sp.NamedAction("A", sp.conj(step, sp.Eq(sp.Primed("a"), sp.Var("a")))),))
    for _ in range(2):
        assert explore(alone)[1].distinct_states == 4
        assert explore(paired)[1].distinct_states == 4
        assert [s["x"] for _, s in successors(
            paired, sp.State({"a": TRUE, "x": 1}))] == [2]


def _spec(init, step=sp.boolval(False)):
    return sp.TemporalSpec("t", ("x",), init, (sp.NamedAction("A", step),))


class TestNameNoVariableHas:
    """A branch that binds `y`, which no variable has, reads it back and
    raises `variable y is not bound` only once it reaches its end."""

    def test_a_branch_that_reaches_its_states_raises(self):
        y = sp.Eq(sp.Var("y"), sp.intval(1))
        spec = _spec(sp.conj(y, sp.Lt(sp.Var("y"), sp.intval(5)),
                             sp.Eq(sp.Var("x"), sp.intval(0))))
        with pytest.raises(UnboundVariable, match="^variable y is not bound$"):
            initial_states(spec)

    def test_a_branch_ended_first_raises_nothing(self):
        y = sp.Eq(sp.Var("y"), sp.intval(1))
        ended = sp.conj(y, sp.Gt(sp.Var("y"), sp.intval(5)),
                        sp.Eq(sp.Var("x"), sp.intval(0)))
        kept = sp.Eq(sp.Var("x"), sp.intval(2))
        assert initial_states(_spec(sp.disj(ended, kept))) == \
            [sp.State({"x": 2})]

    def test_an_action_binds_it_the_same_way(self):
        state = sp.State({"x": 0})
        y = sp.Eq(sp.Primed("y"), sp.intval(1))
        x = sp.Eq(sp.Primed("x"), sp.Var("x"))
        ended = sp.conj(y, sp.Gt(sp.Primed("y"), sp.intval(5)), x)
        reached = sp.conj(y, sp.Lt(sp.Primed("y"), sp.intval(5)), x)
        assert successors(_spec(sp.boolval(True), ended), state) == []
        with pytest.raises(UnboundVariable, match="^variable y is not bound$"):
            successors(_spec(sp.boolval(True), reached), state)
