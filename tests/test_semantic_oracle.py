"""The walk held to brute-force semantics.

`initial_states`, `successors` and `explore` are compared with an oracle
that shares nothing with the walk: it evaluates Init or an action with
`eval_state_formula` or `eval_action_formula` on every state of the
72-state product of the random specs' TypeOK (x, y in -2..3, b in
BOOLEAN), and explores with a plain BFS over those states.  The specs
come from test_candidate_plan.py's generator, seed 0, each with TypeOK.

Each Init and each (state, action) pair falls in one class:

  same          the walk's states are the brute force's, in order
  outside       the walk's states inside the product are the brute
                force's, in order; each other state holds a value TypeOK
                lacks (one the formula states) and the formula does not
                evaluate to FALSE on it
  walk-eager    the brute force raised nothing and the walk raised: the
                walk evaluates every disjunct and `\\E` witness, where
                evaluation in order short-circuits
  brute-raised  evaluating the formula on some product state raised, so
                the brute force gives no answer to hold the walk to

Any other outcome fails, and so does a change in the walk-eager counts:
a rewrite of the walk that raises in a new place shows up there.

A random Init raises on some product state for most of those specs, so
few of their explorations have a brute-force answer.  A second draw,
seed 1, keeps only specs whose Init raises on no product state, and
pins every exploration class count it gives.
"""

import random
from collections import deque

from test_candidate_plan import TYPE_OK, VARIABLES, random_spec

import tmbt.spec as sp
from tmbt.explore import (
    Counterexample,
    ExplorationStats,
    derive_domains,
    explore,
    initial_states,
    successors,
)
from tmbt.values import FALSE, TRUE

PRODUCT = tuple(sp.State(zip(VARIABLES, (x, y, b)))
                for x in range(-2, 4) for y in range(-2, 4) for b in (FALSE, TRUE))
IN_PRODUCT = frozenset(PRODUCT)
SPECS = 400
# walk-eager Inits, (state, action) pairs and explorations; each
# exploration runs twice, to depth 3 and to depth 2 with 5 distinct states
EAGER = {"init": 51, "step": 326, "explore": 102}
CLASSES = {"same", "outside", "walk-eager", "brute-raised"}
# the second draw: its spec count and its pinned exploration classes
CLEAN_INIT_SPECS = 200
CLEAN_INIT_KINDS = {"same": 117, "outside": 11, "walk-eager": 160,
                    "brute-raised": 112}


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


def _sorted(states) -> list:
    return sorted(states, key=sp.state_key)


def brute_init(spec) -> list:
    return _sorted(s for s in PRODUCT if sp.eval_state_formula(spec.init, s))


def brute_step(formula, state) -> list:
    return _sorted(t for t in PRODUCT if sp.eval_action_formula(formula, state, t))


def judge(brute, walk, holds, kinds: dict, kind: str) -> None:
    """Tallies the class of the walk's outcome `walk` against the brute
    force's `brute` in `kinds[kind]`; `holds(state)` evaluates the formula
    on a state the walk built."""
    counts = kinds.setdefault(kind, {})
    if brute[0] == "error":
        found = "brute-raised"
    elif walk[0] == "error":
        found = "walk-eager"
    else:
        inside = [s for s in walk[1] if s in IN_PRODUCT]
        assert inside == brute[1], (brute, walk)
        outside = [s for s in walk[1] if s not in IN_PRODUCT]
        assert all(_outcome(holds, s) != ("value", False) for s in outside), walk
        found = "outside" if outside else "same"
    counts[found] = counts.get(found, 0) + 1


def typed_spec(rng: random.Random):
    spec = random_spec(rng)
    return sp.TemporalSpec(spec.name, VARIABLES, spec.init, spec.actions,
                           (("TypeOK", TYPE_OK),))


def oracle_specs():
    rng = random.Random(0)
    for _ in range(SPECS):
        yield typed_spec(rng), rng.sample(PRODUCT, 6)


def test_init_and_steps_match_the_brute_force():
    kinds: dict = {}
    for spec, states in oracle_specs():
        judge(_outcome(brute_init, spec), _outcome(initial_states, spec),
              lambda s: sp.eval_state_formula(spec.init, s), kinds, "init")
        domains = derive_domains(spec)
        for action in spec.actions:
            alone = sp.TemporalSpec(spec.name, VARIABLES, spec.init, (action,),
                                    spec.invariants)
            for state in states:
                walk = _outcome(successors, alone, state, domains)
                if walk[0] == "value":
                    walk = ("value", [target for _, target in walk[1]])
                judge(_outcome(brute_step, action.formula, state), walk,
                      lambda t: sp.eval_action_formula(action.formula, state, t),
                      kinds, "step")
    for kind in ("init", "step"):
        assert set(kinds[kind]) <= CLASSES, kinds
        assert kinds[kind]["walk-eager"] == EAGER[kind], kinds
        assert kinds[kind]["same"] > 50, kinds


# ---------------------------------------------------------------------------
# Exploration: a plain BFS over the brute force's steps


def brute_explore(spec, max_depth: int, max_distinct: int | None):
    """(nodes, initials, unexpanded, stats, counterexamples) by a queue
    BFS in discovery order, each state's steps in action order; raises
    as the brute force does."""
    memo: dict = {}

    def steps(state):
        if state not in memo:
            memo[state] = [(action.name, target) for action in spec.actions
                           for target in brute_step(action.formula, state)]
        return memo[state]

    inits = brute_init(spec)
    found = len(inits)
    truncated = max_distinct is not None and len(inits) > max_distinct
    inits = inits[:max_distinct] if truncated else inits
    depth = {s: 0 for s in inits}
    queue = deque(inits)
    while queue:
        state = queue.popleft()
        if depth[state] >= max_depth:
            truncated = True
            continue
        found += len(steps(state))
        for _, target in steps(state):
            if target in depth:
                continue
            if max_distinct is not None and len(depth) >= max_distinct:
                truncated = True
                continue
            depth[target] = depth[state] + 1
            queue.append(target)
    unexpanded = frozenset(s for s in depth if depth[s] >= max_depth)
    diameter = 1 + max(depth.values()) if depth else 0
    stats = ExplorationStats(diameter, found, len(depth), truncated)

    # trace parents: a second BFS from the initial states in key order,
    # each expanded state's targets among the nodes in key order
    parent = {s: None for s in _sorted(inits)}
    queue = deque(parent)
    while queue:
        state = queue.popleft()
        if state in unexpanded:
            continue
        for target in _sorted({t for _, t in steps(state) if t in depth}):
            if target not in parent:
                parent[target] = state
                queue.append(target)
    cexs = []
    for name, formula in spec.invariants:
        bad = [s for s in depth if not sp.eval_state_formula(formula, s)]
        if bad:
            path = [min(bad, key=lambda s: (depth[s], sp.state_key(s)))]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            cexs.append(Counterexample(name, sp.Behavior(reversed(path))))
    return frozenset(depth), frozenset(inits), unexpanded, stats, cexs


def _explored(spec, max_depth, max_distinct):
    graph, stats, cexs = explore(spec, max_distinct=max_distinct,
                                 max_depth=max_depth)
    return graph.nodes, graph.initials, graph.unexpanded, stats, cexs


def _leaves_the_product(spec, nodes, unexpanded) -> bool:
    """Whether the walk built a state outside the product, as an initial
    state or as a step of an expanded node."""
    built = initial_states(spec)
    built += [t for s in nodes - unexpanded for _, t in successors(spec, s)]
    return not IN_PRODUCT.issuperset(built)


def judge_explorations(specs) -> tuple:
    """The class counts of exploring each of `specs` to depth 3, and to
    depth 2 with 5 distinct states, and the nodes of the `same` ones."""
    kinds: dict = {}
    nodes = 0
    for spec in specs:
        for max_depth, max_distinct in ((3, None), (2, 5)):
            walk = _outcome(_explored, spec, max_depth, max_distinct)
            if walk[0] == "value" and _leaves_the_product(spec, walk[1][0],
                                                          walk[1][2]):
                kind = "outside"  # the steps the walk took are judged above
            elif (brute := _outcome(brute_explore, spec, max_depth,
                                    max_distinct))[0] == "error":
                kind = "brute-raised"
            elif walk[0] == "error":
                kind = "walk-eager"
            else:
                assert walk == brute
                kind = "same"
                nodes += len(walk[1][0])
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) <= CLASSES, kinds
    return kinds, nodes


def test_explore_matches_a_plain_bfs():
    kinds, nodes = judge_explorations(spec for spec, _ in oracle_specs())
    assert kinds["walk-eager"] == EAGER["explore"], kinds
    assert kinds["same"] > 60 and nodes > 150, (kinds, nodes)


def clean_init_specs():
    """Random specs, seed 1, whose Init raises on no product state: most
    of the first draw's explorations stop at an Init that raises, so the
    brute force has no answer to hold them to."""
    rng = random.Random(1)
    kept = 0
    while kept < CLEAN_INIT_SPECS:
        spec = typed_spec(rng)
        if _outcome(brute_init, spec)[0] == "value":
            kept += 1
            yield spec


def test_explore_matches_a_plain_bfs_from_inits_that_never_raise():
    kinds, nodes = judge_explorations(clean_init_specs())
    # brute-raised here means an action raised on a reachable state
    assert kinds == CLEAN_INIT_KINDS and nodes == 176, (kinds, nodes)
