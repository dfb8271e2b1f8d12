"""The compiled evaluator against the tree-walking reference.

`tree_eval.eval_expr` is the recursive walker the compiled evaluator
replaced.  On random trees both must give equal values, or raise the
same exception type with the same message, with and without a next
state and bound names.  Trees with small integer leaves run through
both; trees with int64 leaves run through both only when they build no
range, since the reference would list a range of up to 2**64 members.
"""

import random

import astgen
import pytest
import tree_eval

import tmbt.spec as sp
from tmbt.errors import EmptyChooseDomain, TypeMismatch, UnboundVariable
from tmbt.values import BOOLEANS, FALSE, TRUE, SeqVal, SetVal

POOL = (
    *range(-3, 4),
    TRUE, FALSE, BOOLEANS,
    SetVal((1, 2)),
    SeqVal((0, TRUE)),
)


def _bindings(rng: random.Random) -> dict:
    """Values for a random subset of the generator's names."""
    names = rng.sample(astgen.NAMES, rng.randrange(len(astgen.NAMES) + 1))
    return {name: rng.choice(POOL) for name in names}


def _outcome(evaluate, expr, current, nxt, env):
    try:
        return ("value", evaluate(expr, current, nxt, env))
    except Exception as error:  # any divergence, of any type, is a finding
        return ("error", type(error), str(error))


def _contexts(rng: random.Random):
    current = sp.State(_bindings(rng))
    nxt = sp.State(_bindings(rng))
    env = _bindings(rng)
    return ((current, None, None), (current, nxt, None),
            (current, None, env), (current, nxt, env))


def _subtrees(expr) -> list:
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        for value in vars(node).values():
            if isinstance(value, sp.ExprNode):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(value)
    return out


def _builds_a_range(expr) -> bool:
    return any(isinstance(node, sp.IntRange) for node in _subtrees(expr))


def _assert_same(trees, seed):
    rng = random.Random(seed)
    for tree in trees:
        for current, nxt, env in _contexts(rng):
            want = _outcome(tree_eval.eval_expr, tree, current, nxt, env)
            got = _outcome(sp.eval_expr, tree, current, nxt, env)
            assert got == want, (tree, current, nxt, env)


@pytest.mark.parametrize("seed", range(4))
def test_small_leaf_trees_match_the_tree_walker(seed):
    _assert_same(astgen.random_exprs(seed=seed, count=600, depth=5, bound=6), seed)


@pytest.mark.parametrize("seed", range(2))
def test_int64_leaf_trees_match_the_tree_walker(seed):
    trees = [tree for tree in astgen.random_exprs(seed=100 + seed, count=1500)
             if not _builds_a_range(tree)]
    assert len(trees) > 500
    _assert_same(trees, seed)


# Mostly well-typed trees, so that ranges, binders and CHOOSE produce
# values and not just the type errors of astgen's untyped trees.
INTS = ("x", "y", "n")
BOOLS = ("p", "q")
_ORDERINGS = (sp.Lt, sp.Le, sp.Gt, sp.Ge, sp.NotLt, sp.NotLe, sp.NotGt, sp.NotGe)


def _typed(rng: random.Random, kind: str, depth: int) -> sp.Expr:
    """A random tree of result kind "int", "bool" or "set"; one leaf in
    twenty has the wrong kind."""
    if depth <= 0 or rng.random() < (0.4 if kind == "int" else 0.1):
        if rng.random() < 0.05:
            kind = rng.choice(("int", "bool", "set"))
        return _typed_leaf(rng, kind)

    def sub(k):
        return _typed(rng, k, depth - 1)

    binder = rng.choice(INTS)
    if kind == "int":
        if rng.random() < 0.8:
            return rng.choice((sp.Add, sp.Sub))(sub("int"), sub("int"))
        return sp.Choose(binder, sub("set"), sub("bool"))
    if kind == "set":
        if rng.random() < 0.7:
            return sp.IntRange(sub("int"), sub("int"))
        return sp.SetLit([sub("int") for _ in range(rng.randrange(4))])
    pick = rng.randrange(9)
    if pick == 0:
        return sp.Not(sub("bool"))
    if pick in (1, 2):
        return rng.choice((sp.And, sp.Or, sp.Implies))(sub("bool"), sub("bool"))
    if pick in (3, 8):
        return rng.choice(_ORDERINGS)(sub("int"), sub("int"))
    if pick == 4:
        return rng.choice((sp.Eq, sp.Neq))(sub("int"), sub(rng.choice(("int", "set"))))
    if pick == 5:
        return sp.In(sub("int"), sub("set"))
    return rng.choice((sp.Forall, sp.Exists))(binder, sub("set"), sub("bool"))


def _typed_leaf(rng: random.Random, kind: str) -> sp.Expr:
    if kind == "set":
        members = (rng.randint(-5, 5) for _ in range(rng.randrange(4)))
        return sp.Const(SetVal(members))
    names = INTS if kind == "int" else BOOLS
    pick = rng.randrange(4)
    if pick == 0:
        return sp.Var(rng.choice(names))
    if pick == 1:
        return sp.Primed(rng.choice(names))
    if kind == "int":
        return sp.intval(rng.randint(-5, 5))
    return sp.boolval(rng.random() < 0.5)


def _typed_state(rng: random.Random, missing: float) -> sp.State:
    ints = {name: rng.randint(-5, 5) for name in INTS}
    bools = {name: rng.choice((TRUE, FALSE)) for name in BOOLS}
    return sp.State({name: value for name, value in {**ints, **bools}.items()
                     if rng.random() >= missing})


@pytest.mark.parametrize("seed", range(4))
def test_typed_trees_match_the_tree_walker(seed):
    """Every subtree of each tree, so that a node the root's evaluation
    skips is still compared."""
    rng = random.Random(seed)
    values = 0
    for _ in range(300):
        tree = _typed(rng, "bool" if rng.random() < 0.7 else "int", 5)
        current = _typed_state(rng, 0.05)
        nxt = _typed_state(rng, 0.05)
        env = {"y": rng.randint(-5, 5)}
        for node in _subtrees(tree):
            for context in ((current, None, None), (current, nxt, None),
                            (current, nxt, env)):
                want = _outcome(tree_eval.eval_expr, node, *context)
                assert _outcome(sp.eval_expr, node, *context) == want, (node, context)
                values += want[0] == "value"
    assert values > 8000


def test_a_second_evaluation_reuses_the_compiled_closure():
    tree = sp.And(sp.In(sp.Var("x"), sp.IntRange(sp.intval(0), sp.intval(9))),
                  sp.Gt(sp.Var("x"), sp.intval(3)))
    state = sp.State({"x": 5})
    assert sp.eval_state_formula(tree, state)
    closure = tree.compiled
    assert not sp.eval_state_formula(tree, sp.State({"x": 2}))
    assert tree.compiled is closure
    # the closure is not part of the node's value
    fresh = sp.And(sp.In(sp.Var("x"), sp.IntRange(sp.intval(0), sp.intval(9))),
                   sp.Gt(sp.Var("x"), sp.intval(3)))
    assert fresh == tree and hash(fresh) == hash(tree)
    assert repr(fresh) == repr(tree)


def test_membership_in_a_huge_range_is_a_bounds_check():
    huge = sp.IntRange(sp.intval(-(2**62)), sp.intval(2**62))
    assert sp.eval_expr(sp.In(sp.intval(2**61), huge), sp.State({})) == TRUE
    assert sp.eval_expr(sp.In(sp.intval(2**62 + 1), huge), sp.State({})) == FALSE
    assert sp.eval_expr(sp.In(sp.boolval(True), huge), sp.State({})) == FALSE
    # the element is evaluated before the bounds, as in the walker
    bad_bound = sp.IntRange(sp.boolval(True), sp.intval(3))
    with pytest.raises(UnboundVariable):
        sp.eval_expr(sp.In(sp.Var("ghost"), bad_bound), sp.State({}))
    with pytest.raises(TypeMismatch, match="range bound must be an integer"):
        sp.eval_expr(sp.In(sp.intval(1), bad_bound), sp.State({}))


def test_quantifiers_over_a_huge_range_count_upward_lazily():
    huge = sp.IntRange(sp.intval(0), sp.intval(2**62))
    n = sp.Var("n")
    empty = sp.State({})
    assert sp.eval_expr(sp.Exists("n", huge, sp.Eq(n, sp.intval(3))), empty) == TRUE
    assert sp.eval_expr(sp.Forall("n", huge, sp.Lt(n, sp.intval(5))), empty) == FALSE
    witness = sp.eval_expr(sp.Choose("n", huge, sp.Gt(n, sp.intval(6))), empty)
    assert witness == 7
    small = sp.IntRange(sp.intval(1), sp.intval(3))
    with pytest.raises(EmptyChooseDomain, match=r"no element of \{integer 1, "
                                                r"integer 2, integer 3\}"):
        sp.eval_expr(sp.Choose("n", small, sp.Gt(n, sp.intval(6))), empty)


def test_a_non_expression_fails_only_when_evaluated():
    tree = sp.Or(sp.boolval(True), sp.Not(5))
    assert sp.eval_expr(tree, sp.State({})) == TRUE
    with pytest.raises(TypeMismatch, match="not an expression: 5"):
        sp.eval_expr(sp.Not(5), sp.State({}))
    with pytest.raises(TypeMismatch, match="not an expression: 'x'"):
        sp.eval_expr("x", sp.State({}))


class TestDepth:
    PARTS = 5_000

    def test_long_conjunction(self):
        state = sp.State({"x": 1})
        parts = [sp.Le(sp.intval(i % 7 - 6), sp.Var("x")) for i in range(self.PARTS)]
        assert sp.eval_state_formula(sp.conj(*parts), state)
        parts[-1] = sp.Gt(sp.Var("x"), sp.intval(1))
        assert not sp.eval_state_formula(sp.conj(*parts), state)

    def test_long_disjunction(self):
        state = sp.State({"x": 1})
        parts = [sp.Eq(sp.Var("x"), sp.intval(i + 2)) for i in range(self.PARTS)]
        assert not sp.eval_state_formula(sp.disj(*parts), state)
        parts[-1] = sp.Eq(sp.Var("x"), sp.intval(1))
        assert sp.eval_state_formula(sp.disj(*parts), state)

    def test_junction_parts_keep_their_boolean_check(self):
        parts = [sp.boolval(True)] * self.PARTS + [sp.intval(1)]
        with pytest.raises(TypeMismatch, match="operand must be a boolean"):
            sp.eval_state_formula(sp.conj(*parts), sp.State({}))

    def test_nesting_the_walker_handles(self):
        tree = sp.boolval(True)
        for _ in range(600):
            tree = sp.Not(tree)
        want = tree_eval.eval_expr(tree, sp.State({}))
        assert sp.eval_expr(tree, sp.State({})) == want == TRUE
