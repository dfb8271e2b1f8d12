"""Breadth-first exploration against hand-coded brute-force oracles."""

import gc
import pathlib
import random
import sys

import pytest

import tmbt.spec as sp
import tmbt.specs as specs
from tmbt.errors import NoInitialStates, UnboundedDomain
from tmbt.explore import (
    ExplorationStats,
    behavior_satisfies,
    behaviors,
    derive_domains,
    explore,
    initial_states,
    successors,
)
from tmbt.tla import parse_module, to_spec
from tmbt.values import FALSE, TRUE, BoolVal

import explore_reference as ref
import oracles


def as_pair(state, first, second):
    return (state[first], state[second])


def diehard_tuple(state):
    return as_pair(state, "small", "big")


def therac_tuple(state):
    return (state["mode"], state["target"], state["timer"],
            state["beamHigh"].value, state["fired"].value)


def parsed(*lines, invariants=()):
    source = "\n".join(lines) + "\n"
    return to_spec(parse_module(source), name="t", invariant_names=invariants)


class TestDomains:
    def test_domains_come_from_type_ok(self):
        init = sp.Eq(sp.Var("x"), sp.intval(0))
        type_ok = sp.In(sp.Var("x"), sp.IntRange(sp.intval(0), sp.intval(3)))
        spec = sp.TemporalSpec("t", ("x",), init, (), {"TypeOK": type_ok})
        domains = derive_domains(spec)
        assert list(domains["x"]) == list(range(4))
        # each value maps to itself, so states can share the domain's objects
        assert all(domains["x"][value] is value for value in domains["x"])

    def test_domains_are_canonically_sorted(self):
        type_ok = sp.In(sp.Var("x"), sp.SetLit((sp.intval(2), sp.intval(-1))))
        spec = sp.TemporalSpec("t", ("x",), sp.boolval(True), (),
                               {"TypeOK": type_ok})
        assert list(derive_domains(spec)["x"]) == [-1, 2]

    def test_init_membership_gives_no_domain(self):
        # Init binds x through its disjunction without any domain
        init = sp.Or(sp.In(sp.Var("x"), sp.SetLit((sp.intval(0),))),
                     sp.In(sp.Var("x"), sp.SetLit((sp.intval(5),))))
        spec = sp.TemporalSpec("t", ("x",), init, ())
        assert derive_domains(spec) == {}
        assert [s["x"] for s in initial_states(spec)] == [0, 5]

    def test_narrowed_values_need_no_domain(self):
        # no constants are mined: x' = 1 offers 1 whatever the domains hold
        init = sp.Eq(sp.Var("x"), sp.intval(0))
        step = sp.NamedAction("A", sp.Eq(sp.Primed("x"), sp.intval(1)))
        spec = sp.TemporalSpec("t", ("x",), init, (step,))
        assert derive_domains(spec) == {}
        graph, stats, _ = explore(spec)
        assert sorted(s["x"] for s in graph.nodes) == [0, 1]
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (2, 3, 2)

    def test_unconstrained_variable_is_rejected(self):
        step = sp.NamedAction("A", sp.Eq(sp.Primed("x"), sp.Add(sp.Var("x"),
                                                                sp.intval(1))))
        spec = sp.TemporalSpec("t", ("x",), sp.boolval(True), (step,))
        with pytest.raises(UnboundedDomain,
                           match="variable x: Init leaves it free and TypeOK"):
            explore(spec)

    def test_variable_an_action_leaves_free_takes_its_type_ok_domain(self):
        lines = ("VARIABLE x", "Init == x = 0", "Grow == x' > x", "Next == Grow")
        spec = parsed(*lines)
        assert initial_states(spec) == [sp.State({"x": 0})]
        with pytest.raises(UnboundedDomain,
                           match="variable x: action Grow leaves it free"):
            explore(spec)
        typed = parsed(lines[0], "TypeOK == x \\in 0..2", *lines[1:])
        graph, _, cexs = explore(typed)
        assert sorted(s["x"] for s in graph.nodes) == [0, 1, 2]
        assert cexs == []

    def test_bare_booleans_assign(self):
        # b' = ~b assigns b, and the bare c' reads as c' = TRUE
        spec = parsed("VARIABLES b, c", "Init == b = TRUE /\\ ~c",
                      "Next == b' = (~b) /\\ c'")
        assert derive_domains(spec) == {}
        graph, stats, _ = explore(spec)
        got = sorted((s["b"].value, s["c"].value) for s in graph.nodes)
        assert got == [(False, True), (True, False), (True, True)]
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (3, 4, 3)

    def test_an_integer_and_a_boolean_are_two_states(self):
        spec = parsed("VARIABLES x", "Init == x = 1", "Next == x' = TRUE")
        graph, stats, _ = explore(spec)
        assert stats.distinct_states == 2
        assert sorted(map(repr, graph.nodes)) == [
            "State(bindings=(('x', 1),))",
            "State(bindings=(('x', BoolVal(value=True)),))"]

    def test_deep_type_ok_derives_without_recursion(self):
        parts = [sp.In(sp.Var("x"), sp.IntRange(sp.intval(0), sp.intval(n % 3 + 1)))
                 for n in range(5000)]
        spec = sp.TemporalSpec("t", ("x",), sp.boolval(True), (),
                               {"TypeOK": sp.conj(*parts)})
        assert list(derive_domains(spec)["x"]) == [0, 1]


class TestSoundness:
    """The formula's next values are taken as they are, even outside TypeOK."""

    def test_an_init_disjunct_outside_type_ok_keeps_its_value(self):
        # `x > 1` binds nothing, yet x = 5 is an initial state
        spec = parsed("VARIABLE x", "TypeOK == x \\in 0..2",
                      "Init == x = 5 \\/ x > 1", "Next == x' = x")
        assert [s["x"] for s in initial_states(spec)] == [2, 5]
        _, stats, [cex] = explore(spec)
        assert (stats.states_found, stats.distinct_states, stats.diameter) == (4, 2, 1)
        assert (cex.invariant, [s["x"] for s in cex.trace.states]) == \
            ("TypeOK", [5])

    def test_an_action_disjunct_outside_type_ok_keeps_its_value(self):
        spec = parsed("VARIABLE x", "TypeOK == x \\in 0..2", "Init == x = 0",
                      "Next == x = 0 /\\ (x' = 5 \\/ x' > 1)")
        assert [s["x"] for _, s in successors(spec, sp.State({"x": 0}))] \
            == [2, 5]
        _, stats, [cex] = explore(spec)
        assert (stats.states_found, stats.distinct_states, stats.diameter) == (3, 3, 2)
        assert (cex.invariant, [s["x"] for s in cex.trace.states]) == \
            ("TypeOK", [0, 5])

    def test_a_false_guard_needs_no_domain(self):
        # the action is disabled in x = 9 before x' would need a domain
        spec = parsed("VARIABLE x", "Init == x = 9", "Next == x < 5 /\\ x' > x")
        graph, stats, cexs = explore(spec)
        assert [s["x"] for s in graph.nodes] == [9]
        assert (stats.states_found, stats.distinct_states, stats.diameter) == (1, 1, 1)
        assert cexs == []

    @pytest.mark.parametrize("type_high,limit", [(3, 8), (5, 9), (0, 3)])
    def test_counter_past_its_type_bound(self, type_high, limit):
        spec = parsed("VARIABLE x", f"TypeOK == x \\in 0..{type_high}",
                      "Init == x = 0", "Next == x' = x + 1")
        _, stats, cexs = explore(spec, max_distinct=limit)
        assert (stats.states_found, stats.distinct_states, stats.diameter) == \
            (limit + 1, limit, limit)
        assert stats.truncated
        [cex] = cexs
        assert cex.invariant == "TypeOK"
        assert [s["x"] for s in cex.trace.states] == list(range(type_high + 2))

    @pytest.mark.parametrize("bound,inv_bound", [(5, 3), (9, 2), (4, 4)])
    def test_guarded_counter_without_type_ok(self, bound, inv_bound):
        spec = parsed("VARIABLE x", "Init == x = 0",
                      f"Next == x' = x + 1 /\\ x < {bound}",
                      f"Inv == x < {inv_bound}", invariants=("Inv",))
        _, stats, cexs = explore(spec)
        assert (stats.states_found, stats.distinct_states, stats.diameter) == \
            (bound + 1, bound + 1, bound + 1)
        assert not stats.truncated
        [cex] = cexs
        assert cex.invariant == "Inv"
        assert [s["x"] for s in cex.trace.states] == list(range(inv_bound + 1))


class TestEnumeration:
    def test_initial_states_of_diehard(self):
        spec = specs.load("diehard")
        [init] = initial_states(spec)
        assert diehard_tuple(init) == (0, 0)

    def test_successors_follow_action_order_and_count_duplicates(self):
        spec = specs.load("diehard")
        start = sp.State({"small": 0, "big": 0})
        steps = [(name, diehard_tuple(t)) for name, t in successors(spec, start)]
        assert steps == oracles.diehard_successors((0, 0))  # 6 entries, 4 no-ops

    def test_no_initial_state_when_init_unsatisfiable(self):
        init = sp.And(sp.Eq(sp.Var("x"), sp.intval(0)),
                      sp.Eq(sp.Var("x"), sp.intval(1)))
        spec = sp.TemporalSpec("t", ("x",), init, ())
        assert initial_states(spec) == []

    @pytest.mark.parametrize("witnesses,steps", [("{1, 5}", [3]), ("{5, 6}", [])])
    def test_a_waiting_guard_keeps_its_witness_past_the_quantifier(
            self, witnesses, steps):
        # `x' > v` waits for x', which only `x' = 3` after the quantifier
        # binds; each witness's branch then judges it with its own v
        spec = parsed("VARIABLE x", "Init == x = 0",
                      f"Next == (\\E v \\in {witnesses} : x' > v) /\\ x' = 3")
        got = successors(spec, sp.State({"x": 0}))
        assert [s["x"] for _, s in got] == steps


class TestExploreExamples:
    def test_onebit(self):
        _, stats, cexs = explore(specs.load("onebit"))
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (1, 4, 2)
        assert not stats.truncated
        assert cexs == []

    def test_diehard_statistics(self):
        _, stats, _ = explore(specs.load("diehard"))
        assert stats.states_found == 97
        assert stats.distinct_states == 16
        assert stats.diameter == 8  # 1 + deepest BFS level (7 edges deep)

    def test_diehard_graph_matches_oracle(self):
        graph, _, _ = explore(specs.load("diehard"))
        depth, edges, generated = oracles.diehard_exploration()
        assert {diehard_tuple(s) for s in graph.nodes} == set(depth)
        assert {(diehard_tuple(s), a, diehard_tuple(t))
                for s, a, t in graph.edges} == edges
        assert generated == 97

    def test_diehard_counterexample_is_the_classic_solution(self):
        _, _, cexs = explore(specs.load("diehard"))
        [cex] = [c for c in cexs if c.invariant == "big_ne_4"]
        path = [diehard_tuple(s) for s in cex.trace.states]
        assert path == oracles.diehard_shortest_big4()
        assert len(path) == 7  # six pours from (0, 0) to big = 4

    def test_euclid_default_run(self):
        graph, stats, cexs = explore(specs.load("euclid"))
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (3, 3, 3)
        assert cexs == []
        nodes = sorted(as_pair(s, "x", "y") for s in graph.nodes)
        assert nodes == [(8, 8), (8, 16), (24, 16)]  # gcd(24, 16) = 8

    def test_euclid_matches_oracle_for_other_parameters(self):
        spec = specs.load("euclid", {"M": 9, "N": 5})
        graph, stats, _ = explore(spec)
        depth, edges, generated = oracles.euclid_exploration(9, 5)
        assert {as_pair(s, "x", "y") for s in graph.nodes} == set(depth)
        assert {(as_pair(s, "x", "y"), a, as_pair(t, "x", "y"))
                for s, a, t in graph.edges} == edges
        assert stats.states_found == generated
        assert stats.diameter == 1 + max(depth.values())

    def test_therac_matches_oracle(self):
        graph, stats, _ = explore(specs.load("therac25"))
        depth, edges, generated = oracles.therac_exploration()
        assert {therac_tuple(s) for s in graph.nodes} == set(depth)
        assert {(therac_tuple(s), a, therac_tuple(t))
                for s, a, t in graph.edges} == edges
        assert stats.states_found == generated == 38
        assert stats.distinct_states == 31

    def test_therac_overdose_counterexample(self):
        _, _, cexs = explore(specs.load("therac25"))
        [cex] = [c for c in cexs if c.invariant == "NoOverdose"]
        depth, _, _ = oracles.therac_exploration()
        overdoses = oracles.therac_overdose_states()
        assert therac_tuple(cex.trace.states[-1]) in overdoses
        shortest = min(depth[s] for s in overdoses)
        assert len(cex.trace.states) == shortest + 1

    def test_steamboiler_defaults_stay_in_band(self):
        graph, stats, cexs = explore(specs.load("steamboiler"))
        depth, edges, generated = oracles.boiler_exploration()
        assert cexs == []
        assert oracles.boiler_band_violations() == []
        assert {(s["level"], s["pumpOn"].value) for s in graph.nodes} == set(depth)
        assert stats.states_found == generated
        assert stats.distinct_states == len(depth) == 818

    def test_steamboiler_loose_thresholds_leave_the_band(self):
        spec = specs.load("steamboiler", {"low": 190, "high": 810})
        _, stats, cexs = explore(spec)
        bad = oracles.boiler_band_violations(190, 810)
        assert bad  # the oracle agrees the band is escapable
        [cex] = [c for c in cexs if c.invariant == "LevelInBand"]
        level = cex.trace.states[-1]["level"]
        assert not 200 <= level <= 800
        depth, _, _ = oracles.boiler_exploration(190, 810)
        assert len(cex.trace.states) == 1 + min(depth[s] for s in bad)
        assert stats.distinct_states == len(depth)


class TestMemory:
    def test_one_state_object_per_distinct_state(self):
        # the search keeps no edge, so the target each duplicate step
        # builds is dropped once it is found to be a node already
        spec = specs.load("steamboiler", {"low": 190, "high": 810})
        gc.collect()
        before = sum(type(o) is sp.State for o in gc.get_objects())
        graph, stats, _ = explore(spec)
        gc.collect()
        live = sum(type(o) is sp.State for o in gc.get_objects()) - before
        assert live == len(graph.nodes) == 1258
        assert stats.states_found == 7549


class TestCountingContract:
    @pytest.mark.parametrize("name", specs.EXAMPLE_NAMES)
    def test_states_found_accounting_identity(self, name):
        spec = specs.load(name)
        graph, stats, _ = explore(spec)
        domains = derive_domains(spec)
        total = len(graph.initials)
        for state in graph.nodes:
            total += len(successors(spec, state, domains))
        assert stats.states_found == total

    def test_all_initial_graph_has_diameter_one(self):
        _, stats, _ = explore(specs.load("onebit"))
        assert stats.diameter == 1  # both states initial, no deeper level


class TestOrderIndependence:
    @pytest.mark.parametrize("seed", range(10))
    def test_shuffled_frontier_changes_nothing(self, seed):
        spec = specs.load("diehard")
        baseline = explore(spec)
        shuffled = explore(spec, shuffle=random.Random(seed))
        assert shuffled[0] == baseline[0]  # same graph
        assert shuffled[1] == baseline[1]  # same stats
        assert shuffled[2] == baseline[2]  # same counterexamples


DIAMOND = pathlib.Path(__file__).parent / "golden" / "specs" / "diamond.tla"


def random_graph_spec(rng: random.Random) -> sp.TemporalSpec:
    """A spec over x, y in 0..3 with several initial states, two to four
    actions whose steps often meet again, and one or two invariants that
    some reachable states violate."""
    x, y = sp.Var("x"), sp.Var("y")

    def values():
        return sp.SetLit(sp.intval(v) for v in rng.sample(range(4), rng.randint(1, 3)))

    def update(name):
        var, nxt = sp.Var(name), sp.Primed(name)
        pick = rng.randrange(4)
        if pick == 0:
            return sp.Eq(nxt, var)
        if pick == 1:
            return sp.In(nxt, values())
        if pick == 2:
            return sp.And(sp.Lt(var, sp.intval(3)),
                          sp.Eq(nxt, sp.Add(var, sp.intval(1))))
        return sp.And(sp.Gt(var, sp.intval(0)), sp.Eq(nxt, sp.Sub(var, sp.intval(1))))

    def invariant():
        if rng.random() < 0.5:
            return sp.Lt(sp.Add(x, y), sp.intval(rng.randint(1, 6)))
        return sp.Not(sp.And(sp.Eq(x, sp.intval(rng.randrange(4))),
                             sp.Eq(y, sp.intval(rng.randrange(4)))))

    actions = tuple(sp.NamedAction(f"A{i}", sp.conj(update("x"), update("y")))
                    for i in range(rng.randint(2, 4)))
    invariants = tuple((f"Inv{i}", invariant()) for i in range(rng.randint(1, 2)))
    return sp.TemporalSpec("graph", ("x", "y"), sp.conj(sp.In(x, values()),
                           sp.In(y, values())), actions, invariants)


class TestTraceParents:
    """The BFS picks each state's trace parent; a second search over the
    finished graph (`explore_reference`) gives the same traces."""

    @pytest.mark.parametrize("seed", range(10))
    def test_the_lesser_initial_states_path_wins_in_any_order(self, seed):
        # (2, 1) has the smaller key, but its parent (1, 0) ranks after (0, 0)
        spec = to_spec(parse_module(DIAMOND.read_text()), name="diamond",
                       invariant_names=("Inv",))
        _, _, [cex] = explore(spec, shuffle=random.Random(seed))
        assert [as_pair(s, "x", "y") for s in cex.trace.states] == \
            [(0, 0), (5, 1), (9, 2)]

    def test_random_specs_match_the_second_search(self):
        rng = random.Random(14)
        traces = choices = truncated = 0
        for _ in range(1000):
            spec = random_graph_spec(rng)
            max_distinct = rng.choice((None, None, rng.randint(1, 16)))
            max_depth = rng.choice((None, None, rng.randint(0, 5)))
            seed = rng.choice((None, rng.randrange(1000)))
            old, new = (None if seed is None else random.Random(seed) for _ in "on")
            limits = (max_distinct, max_depth)
            graph, stats, cexs = explore(spec, *limits, new)
            want, *rest = ref.explore_then_search(spec, *limits, old)
            assert (graph.nodes, graph.initials, stats, cexs) == \
                (want.nodes, want.initials, *rest), spec
            assert graph.edges == want.edges, spec
            traces += len(cexs)
            truncated += stats.truncated
            # a trace state with two or more predecessors: a tie to break
            choices += any(
                len({source for source, _, target in graph.edges if target == s}) > 1
                for cex in cexs for s in cex.trace.states[1:])
        assert traces > 900 and choices > 200 and truncated > 250, \
            (traces, choices, truncated)


class TestActionOrder:
    def test_permuting_the_actions_changes_nothing(self):
        # without `max_distinct`, which keeps states in the order the
        # actions find them (ROADMAP item 8)
        rng = random.Random(25)
        traces = truncated = 0
        for _ in range(500):
            spec = random_graph_spec(rng)
            actions = list(spec.actions)
            while tuple(actions) == spec.actions:
                rng.shuffle(actions)
            permuted = sp.TemporalSpec(spec.name, spec.variables, spec.init,
                                       actions, spec.invariants)
            max_depth = rng.choice((None, rng.randint(0, 5)))
            graph, stats, cexs = explore(spec, max_depth=max_depth)
            other, *rest = explore(permuted, max_depth=max_depth)
            assert (graph.nodes, graph.initials, graph.unexpanded, stats, cexs) == \
                (other.nodes, other.initials, other.unexpanded, *rest), spec
            assert graph.edges == other.edges, spec
            traces += len(cexs)
            truncated += stats.truncated
        assert traces > 400 and truncated > 100, (traces, truncated)


class TestTruncation:
    def test_max_distinct(self):
        _, stats, _ = explore(specs.load("diehard"), max_distinct=5)
        assert stats.truncated
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (3, 31, 5)

    def test_max_depth(self):
        _, stats, _ = explore(specs.load("diehard"), max_depth=2)
        assert stats.truncated
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (3, 19, 6)

    def test_max_depth_zero_keeps_initials_only(self):
        _, stats, _ = explore(specs.load("diehard"), max_depth=0)
        assert (stats.diameter, stats.states_found, stats.distinct_states) == (1, 1, 1)
        assert stats.truncated

    def test_max_distinct_keeps_the_first_initial_states(self):
        spec = parsed("VARIABLE x", "Init == x \\in 0..20",
                      "Next == x < 20 /\\ x' = x + 1")
        graph, stats, _ = explore(spec, max_distinct=5)
        assert sorted(s["x"] for s in graph.nodes) == [0, 1, 2, 3, 4]
        assert graph.initials == graph.nodes
        # all 21 initial states were built, and the steps of the 5 kept
        assert stats == ExplorationStats(1, 26, 5, True)

    def test_max_distinct_zero_keeps_no_state(self):
        graph, stats, cexs = explore(specs.load("diehard"), max_distinct=0)
        assert graph.nodes == graph.initials == graph.edges == frozenset()
        assert stats == ExplorationStats(0, 1, 0, True)
        assert cexs == []

    def test_max_depth_leaves_the_last_level_unexpanded(self):
        graph, _, _ = explore(specs.load("diehard"), max_depth=2)
        assert len(graph.unexpanded) == 3  # the level at depth 2, of 6 states
        assert graph.unexpanded < graph.nodes
        assert not {s for s, _, _ in graph.edges} & graph.unexpanded

    def test_generous_limits_do_not_truncate(self):
        _, stats, _ = explore(specs.load("diehard"), max_distinct=1000,
                              max_depth=1000)
        assert not stats.truncated
        assert stats.states_found == 97


class TestBehaviors:
    def test_deterministic_under_seed(self):
        spec = specs.load("diehard")
        assert behaviors(spec, 5, 8, seed=11) == behaviors(spec, 5, 8, seed=11)
        assert behaviors(spec, 5, 8, seed=11) != behaviors(spec, 5, 8, seed=12)

    def test_every_walk_satisfies_the_spec(self):
        spec = specs.load("diehard")
        for walk in behaviors(spec, 20, 10, seed=3):
            assert behavior_satisfies(spec, walk)

    def test_walks_respect_max_len(self):
        spec = specs.load("steamboiler")
        assert all(len(w) <= 6 for w in behaviors(spec, 10, 6, seed=0))

    def test_count_zero_gives_no_walks(self):
        assert behaviors(specs.load("onebit"), 0, 5, seed=0) == []

    def test_unsatisfiable_init_raises(self):
        init = sp.And(sp.Eq(sp.Var("x"), sp.intval(0)),
                      sp.Eq(sp.Var("x"), sp.intval(1)))
        spec = sp.TemporalSpec("t", ("x",), init, ())
        with pytest.raises(NoInitialStates,
                           match="init is unsatisfiable over the derived domains"):
            behaviors(spec, 1, 5, seed=0)

    @pytest.mark.parametrize("name,params", [
        ("onebit", {}), ("diehard", {}), ("euclid", {}), ("therac25", {}),
        ("steamboiler", {}), ("steamboiler", {"low": 190, "high": 810}),
    ])
    def test_walks_equal_those_over_the_explored_graph(self, name, params):
        spec = specs.load(name, params)
        graph, _, _ = explore(spec)
        for seed in range(10):
            for count, max_len in ((10, 10), (25, 40)):
                assert behaviors(spec, count, max_len, seed) == \
                    ref.behaviors(spec, count, max_len, seed, graph)

    def test_only_visited_states_are_expanded(self, monkeypatch):
        module = sys.modules["tmbt.explore"]
        expanded = []

        def counted(spec, state, *args):
            expanded.append(state)
            return successors(spec, state, *args)
        monkeypatch.setattr(module, "successors", counted)
        spec = specs.load("steamboiler")
        walks = behaviors(spec, 10, 10, seed=0)
        visited = {state for walk in walks for state in walk.states}
        assert len(expanded) == len(set(expanded)) <= len(visited) < 100

    # The parser gives two actions one name when Next names a definition
    # twice, or names a definition `A2` and has an unnamed second disjunct.
    # Their steps merge as the edges of the explored graph did: a step
    # reached through both counts once, and all are ordered by next state.
    # Walking `successors` as it lists them would differ on every seed.
    DUPLICATES = {
        "twice": "Next == Up \\/ Up",
        "clash": "Next == A2 \\/ (x' = x + 1 /\\ x < 8)",
    }

    @pytest.mark.parametrize("kind", sorted(DUPLICATES))
    def test_actions_sharing_a_name_walk_as_before(self, kind):
        source = "\n".join([
            "VARIABLES x",
            "TypeOK == x \\in 0..9",
            "Init == x \\in {0, 1}",
            "Up == x' \\in {x + 1, x + 2} /\\ x < 7",
            "A2 == x' = x + 3 /\\ x < 6",
            self.DUPLICATES[kind],
        ]) + "\n"
        spec = to_spec(parse_module(source), name=kind)
        names = [action.name for action in spec.actions]
        assert len(set(names)) == 1 < len(names)
        graph, _, _ = explore(spec)
        for seed in range(20):
            assert behaviors(spec, 8, 12, seed) == \
                ref.behaviors(spec, 8, 12, seed, graph)


class TestBehaviorSatisfies:
    FLIP = sp.NamedAction("Flip", sp.Or(
        sp.And(sp.Eq(sp.Var("b"), sp.intval(0)), sp.Eq(sp.Primed("b"), sp.intval(1))),
        sp.And(sp.Eq(sp.Var("b"), sp.intval(1)), sp.Eq(sp.Primed("b"), sp.intval(0)))))
    SPEC = sp.TemporalSpec(
        "onebit", ("b",),
        sp.Or(sp.Eq(sp.Var("b"), sp.intval(0)), sp.Eq(sp.Var("b"), sp.intval(1))),
        (FLIP,))

    def b(self, *vals):
        return sp.Behavior([sp.State({"b": v}) for v in vals])

    def test_accepts_action_steps(self):
        assert behavior_satisfies(self.SPEC, self.b(0, 1, 0, 1))

    def test_accepts_stuttering_steps(self):
        assert behavior_satisfies(self.SPEC, self.b(0, 0, 0, 1, 1, 0))

    def test_rejects_init_violation(self):
        assert not behavior_satisfies(self.SPEC, self.b(7, 0))

    def test_rejects_non_action_step(self):
        assert not behavior_satisfies(self.SPEC, self.b(0, 7))

    def test_rejects_empty_behavior(self):
        assert not behavior_satisfies(self.SPEC, sp.Behavior(()))

    def test_single_state_behavior_needs_only_init(self):
        assert behavior_satisfies(self.SPEC, self.b(1))

    def test_a_behavior_the_walk_emits_holds(self):
        # `y' > TRUE` waits for y' and `x > 5` ends that branch first;
        # evaluated in order, the first disjunct raised TypeMismatch
        spec = to_spec(parse_module(
            "VARIABLES x, y\nInit == x = 0 /\\ y = 0\n"
            "Next == (y' > TRUE /\\ x > 5) \\/ (x' = 1 /\\ y' = 2)\n"))
        walk = behaviors(spec, 1, 3, 0)[0]
        assert [as_pair(s, "x", "y") for s in walk.states] == [(0, 0), (1, 2), (1, 2)]
        assert behavior_satisfies(spec, walk)
        assert not behavior_satisfies(spec, sp.Behavior(walk.states[1:]))

    def test_a_spec_the_walk_cannot_enumerate_is_unbounded(self):
        spec = to_spec(parse_module("VARIABLE x\nInit == x = 0\nNext == x' > x\n"))
        states = [sp.State({"x": 0}), sp.State({"x": 1})]
        with pytest.raises(UnboundedDomain, match="action A1 leaves it free"):
            behavior_satisfies(spec, sp.Behavior(states))
