"""The greedy elimination loop against a copy of the stateless one.

reference_eliminate is the loop as it read before the working term
became one assignment array: one Term and one oracle.accepts call per
candidate removal.  The array loop, with the incremental majority
oracle, must give the same term for every oracle, start and order, and
its reasons must be among those the brute-force enumerations list.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.core import DecisionTree, RandomForest, Term, normalize
from rfreasons.explain import (
    DeltaProbableOracle,
    MajorityOracle,
    NotAnImplicantError,
    ReasonKind,
    greedy_reason,
    majoritary_reason,
    majoritary_reason_multi,
    oracle_for_instance,
    sufficient_reason_rf,
)

import brute
from generators import random_forest, random_instance


def reference_eliminate(oracle, term, order):
    while True:
        changed = False
        for var in order:
            if var not in term.variables():
                continue
            candidate = Term(l for l in term if abs(l) != var)
            if oracle.accepts(candidate):
                term = candidate
                changed = True
        if oracle.monotone or not changed:
            return term


def reference_multi(forest, x, permutations, seed):
    rng = random.Random(seed)
    oracle = MajorityOracle(normalize(forest, x))
    base = list(range(1, forest.var_count + 1))
    best = None
    for _ in range(permutations):
        rng.shuffle(base)
        term = reference_eliminate(oracle, Term.of_instance(x), base)
        if best is None or len(term) < len(best):
            best = term
    return best


@st.composite
def cases(draw):
    """(forest, x, order, seed term): up to 6 variables, odd and even tree
    counts with constant trees mixed in, orders that may leave variables
    out, and seed terms as comprehensible builds them (t_x restricted)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    trees = list(
        random_forest(
            rng, n, draw(st.integers(1, 6)), draw(st.integers(1, 4)), leaf_chance=0.2
        ).trees
    )
    for _ in range(draw(st.integers(0, 2))):
        trees.insert(rng.randrange(len(trees) + 1), DecisionTree.leaf(rng.randint(0, 1), n))
    x = random_instance(rng, n)
    order = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    keep = draw(st.sets(st.integers(1, n)))
    return RandomForest(trees), x, tuple(order), Term.of_instance(x).restrict_to(keep)


@st.composite
def deep_cases(draw):
    """(forest, x, order): up to 8 variables and depth up to 6, so that a
    variable is tested on several branches of one tree and the children
    its literal closes come in groups that merge as drops open them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    forest = random_forest(
        rng, n, draw(st.integers(1, 7)), draw(st.integers(1, 6)), leaf_chance=0.1
    )
    return forest, random_instance(rng, n), tuple(draw(st.permutations(range(1, n + 1))))


def assert_same_elimination(make_oracle, x, order, seed_term):
    # one oracle runs both starts, so a stateful oracle must reset itself
    oracle = make_oracle()
    for start in (None, seed_term):
        full = Term.of_instance(x) if start is None else start
        reference = make_oracle()
        if reference.accepts(full):
            expected = reference_eliminate(reference, full, order)
            reason = greedy_reason(oracle, x, order, ReasonKind.SUFFICIENT, seed_term=start)
            assert reason.term == expected
        else:
            with pytest.raises(NotAnImplicantError):
                greedy_reason(oracle, x, order, ReasonKind.SUFFICIENT, seed_term=start)


@settings(max_examples=150, deadline=None, database=None)
@given(cases(), st.sampled_from(["majority", "sufficient"]), st.booleans())
def test_monotone_oracles_match_the_stateless_loop(case, notion, single_tree):
    forest, x, order, seed_term = case
    if single_tree:
        forest = RandomForest(forest.trees[:1])
    assert_same_elimination(
        lambda: oracle_for_instance(forest, x, notion), x, order, seed_term
    )


@settings(max_examples=100, deadline=None, database=None)
@given(cases(), st.sampled_from(["0", "1/4", "1/2", "3/4", "1"]))
def test_delta_probable_fixpoint_matches_the_stateless_loop(case, delta):
    forest, x, order, seed_term = case
    tree = normalize(forest.trees[0], x)
    assert_same_elimination(lambda: DeltaProbableOracle(tree, delta), x, order, seed_term)


@settings(max_examples=250, deadline=None, database=None)
@given(cases(), st.integers(0, 2**16), st.integers(1, 8))
def test_multi_order_majoritary_matches(case, seed, permutations):
    forest, x = case[:2]
    got = majoritary_reason_multi(forest, x, permutations, seed)
    assert got.term == reference_multi(forest, x, permutations, seed)


def test_multi_order_majoritary_matches_on_larger_forests():
    # wider than the hypothesis cases: here an order that started from
    # the trees a previous order left would reject drops it should keep
    rng = random.Random(7)
    for _ in range(40):
        forest = random_forest(rng, 8, rng.randint(3, 9), 5, leaf_chance=0.2)
        x = random_instance(rng, 8)
        seed = rng.randrange(2**16)
        got = majoritary_reason_multi(forest, x, 8, seed)
        assert got.term == reference_multi(forest, x, 8, seed)


@settings(max_examples=150, deadline=None, database=None)
@given(deep_cases(), st.integers(0, 2**16), st.integers(1, 8))
def test_multi_order_majoritary_matches_on_deep_trees(case, seed, permutations):
    forest, x, _ = case
    got = majoritary_reason_multi(forest, x, permutations, seed)
    assert got.term == reference_multi(forest, x, permutations, seed)


@settings(max_examples=100, deadline=None, database=None)
@given(deep_cases())
def test_greedy_reasons_on_deep_trees_are_enumerated(case):
    forest, x, order = case
    reasons = brute.enumerate_majoritary_reasons(forest, x)
    assert majoritary_reason(forest, x, order).term in reasons
    one_tree = RandomForest(forest.trees[:1])
    reasons = brute.enumerate_sufficient_reasons(one_tree, x)
    assert sufficient_reason_rf(one_tree, x, order).term in reasons


def test_refused_drop_leaves_no_trace():
    # x2 ? 1 : (x3 ? 1 : 0), and x1 ? (x2 ? 1 : 0) : (x2 ? 1 : 0), where
    # dropping x1 merges a second 0-leaf into x2's group; the refused drop
    # of x2 explores the x3 node of the first tree, and keeping its closed
    # 0-leaf would make the drop of x3 break that tree
    guard = {"var": 2, "low": {"leaf": 0}, "high": {"leaf": 1}}
    first = {"var": 2, "low": {"var": 3, "low": {"leaf": 0}, "high": {"leaf": 1}},
             "high": {"leaf": 1}}
    second = {"var": 1, "low": guard, "high": guard}
    forest = RandomForest(
        [DecisionTree.from_nested(first, 3), DecisionTree.from_nested(second, 3),
         DecisionTree.leaf(0, 3)]
    )
    x = (1, 1, 1)
    oracle, reference = MajorityOracle(forest), MajorityOracle(forest)
    assert oracle.accepts(Term.of_instance(x))
    assign, outcomes = Term.of_instance(x).to_array(3), []
    for var in (1, 2, 3):
        value, assign[var] = assign[var], None
        outcomes.append(oracle.accepts_shrunk(assign, var))
        assert outcomes[-1] == reference.accepts(Term.from_array(assign))
        if not outcomes[-1]:
            assign[var] = value
    assert outcomes == [True, False, True]
    assert Term.from_array(assign) == Term([2])



def test_accepts_walks_each_tree_once_and_drops_never_from_the_root(monkeypatch):
    # accepts walks each tree once from the root and keeps the groups of
    # the trees the term implies; the drops after it start from those
    x = (1, 0, 1, 1, 0, 0, 1, 0)
    forest = normalize(random_forest(random.Random(11), 8, 5, 5, leaf_chance=0.2), x)
    full = Term.of_instance(x)
    from_root = []
    explore = DecisionTree.explore
    monkeypatch.setattr(
        DecisionTree,
        "explore",
        lambda t, starts, a: from_root.append(starts == (t.root,)) or explore(t, starts, a),
    )
    oracle = MajorityOracle(forest)
    assert oracle.accepts(full)
    assert from_root == [True] * forest.tree_count
    assign, kept = full.to_array(8), 0
    for var in (1, 2, 3):
        value, assign[var] = assign[var], None
        if oracle.accepts_shrunk(assign, var):
            kept += 1
        else:
            assign[var] = value
    assert kept and len(from_root) > forest.tree_count
    assert from_root.count(True) == forest.tree_count
    assert oracle.accepts(full)  # a fresh check walks every tree again
    assert from_root.count(True) == 2 * forest.tree_count
