import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.core import DecisionTree, RandomForest, Term, clause_to_tree, normalize
from rfreasons.explain import (
    DEFAULT_SEED,
    MajorityOracle,
    NotAnImplicantError,
    ReasonKind,
    best_of_orders,
    greedy_reason,
)
from rfreasons.solver import Deadline
from rfreasons.optimize import (
    GREEDY_ORDERS,
    WeightMap,
    _restricted_clauses,
    approx_minimal_reason_dt,
    majority_wcnf,
    minimal_majoritary_reason,
    minimal_sufficient_reason_dt,
    minimal_weight_majoritary_reason,
)

import brute
from conftest import X_NEG, X_POS
from generators import random_forest, random_instance, random_tree


def term_of(*lits: int) -> Term:
    return Term(lits)


def guarded_clauses(problem, forest: RandomForest) -> list[list[tuple[int, ...]]]:
    """Per tree, the restricted clauses its selector guards in
    majority_wcnf's hard part; the selectors follow the features in tree
    order, and only a tree clause holds a negated selector."""
    n = forest.var_count
    return [
        [c[1:] for c in problem.hard.clauses if c[0] == -(n + 1 + i)]
        for i in range(len(forest.trees))
    ]


class TestMinimalMajoritary:
    def test_positive_golden(self, orchid):
        r = minimal_majoritary_reason(orchid, X_POS)
        assert r.optimal and r.cost == 3 == r.size
        assert r.term in brute.enumerate_majoritary_reasons(orchid, X_POS)

    def test_negative_golden(self, orchid):
        r = minimal_majoritary_reason(orchid, X_NEG)
        assert r.optimal and r.size == 2
        assert r.term in {term_of(-1, -4), term_of(2, -4)}

    def test_constant_tree_forest(self):
        r = minimal_majoritary_reason(RandomForest([DecisionTree.leaf(1, 3)]), (1, 0, 1))
        assert r.term == Term() and r.cost == 0 and r.optimal

    def test_budget_zero_carries_trivial_fallback(self, orchid, monkeypatch):
        fallback = minimal_majoritary_reason(orchid, X_POS, Deadline.after(0))
        assert fallback.term == Term.of_instance(X_POS)
        assert fallback.extras["fallback"] == "timeout" and not fallback.optimal
        # with no greedy reason the deadline has passed, so MaxSAT is not run
        def no_maxsat(*args, **kwargs):
            raise AssertionError("MaxSAT ran past the deadline")

        monkeypatch.setattr("rfreasons.optimize.maxsat_anytime", no_maxsat)
        again = minimal_majoritary_reason(orchid, X_POS, Deadline.after(0))
        assert again == fallback and again.extras == fallback.extras

    def test_matches_bruteforce_minimum(self):
        rng = random.Random(601)
        for _ in range(40):
            n = rng.randint(2, 10)
            forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
            x = random_instance(rng, n)
            expected = min(len(t) for t in brute.enumerate_majoritary_reasons(forest, x))
            r = minimal_majoritary_reason(forest, x)
            assert r.optimal and r.size == expected
            # post-hoc oracle validation on the caller side too
            target = forest if forest.evaluate(x) == 1 else forest.negated()
            assert MajorityOracle(target).accepts(r.term)

    def test_anytime_log_is_monotone(self, orchid):
        improvements = []
        r = minimal_majoritary_reason(
            orchid, X_POS, on_improve=lambda t, c, e: improvements.append((t, c))
        )
        costs = [c for _, c in improvements]
        assert costs == sorted(costs, reverse=True)
        assert tuple(c for _, c in r.extras["log"]) == tuple(costs)
        target_oracle = MajorityOracle(orchid)
        for term, _ in improvements:
            assert target_oracle.accepts(term)


class TestMinimalWeight:
    def test_weighted_golden_positive(self, orchid):
        r = minimal_weight_majoritary_reason(
            orchid, X_POS, WeightMap({1: 5, 2: 1, 3: 1, 4: 1})
        )
        assert r.term == term_of(2, 3, 4)
        assert r.cost == 3 and r.optimal

    def test_weighted_golden_negative(self, orchid):
        r = minimal_weight_majoritary_reason(orchid, X_NEG, WeightMap({2: 10}))
        assert r.term == term_of(-1, -4)
        assert r.cost == 2

    def test_uniform_weights_reduce_to_minimal_size(self, orchid):
        uniform = minimal_weight_majoritary_reason(orchid, X_POS, WeightMap())
        minimal = minimal_majoritary_reason(orchid, X_POS)
        assert uniform.size == minimal.size
        assert uniform.cost == minimal.cost

    def test_matches_bruteforce_weighted_minimum(self):
        rng = random.Random(602)
        for _ in range(30):
            n = rng.randint(2, 9)
            forest = random_forest(rng, n, rng.choice([1, 3, 5]), 4)
            x = random_instance(rng, n)
            weights = WeightMap({v: rng.randint(1, 6) for v in range(1, n + 1)})
            expected = min(
                weights.of_term(t) for t in brute.enumerate_majoritary_reasons(forest, x)
            )
            r = minimal_weight_majoritary_reason(forest, x, weights)
            assert r.optimal and r.cost == expected

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightMap({1: 0})

    @pytest.mark.parametrize("weight", [2.9, 2.0, True, "3", None, -1])
    def test_weight_must_be_a_positive_int(self, weight):
        # a float or str weight used to be truncated, a bool read as 1
        with pytest.raises(ValueError, match="positive int"):
            WeightMap({1: 2, 2: weight})

    def test_total_weight_overflow_rejected(self, orchid):
        with pytest.raises(ValueError):
            minimal_weight_majoritary_reason(orchid, X_POS, WeightMap({1: 2**31}))


class TestMinimalSufficientDt:
    def test_golden_single_tree(self, orchid):
        r = minimal_sufficient_reason_dt(orchid.trees[1], X_POS)
        assert r.term == term_of(2) and r.optimal

    def test_clause_tree(self):
        tree = clause_to_tree((1, 2), 2)
        r = minimal_sufficient_reason_dt(tree, (1, 1))
        assert r.size == 1 and r.term in {term_of(1), term_of(2)}

    def test_matches_bruteforce_minimum(self):
        rng = random.Random(603)
        for _ in range(60):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n, 5)
            x = random_instance(rng, n)
            expected = min(
                len(t)
                for t in brute.enumerate_sufficient_reasons(RandomForest([tree]), x)
            )
            r = minimal_sufficient_reason_dt(tree, x)
            assert r.optimal and r.size == expected


class TestGreedyUpperBound:
    """The minimal kinds report the best greedy majoritary reason first,
    then let MaxSAT search below its cost."""

    @staticmethod
    def greedy(forest, x, weights):
        masks = [t.disagreement_masks(x) for t in normalize(forest, x).trees]
        return best_of_orders(masks, x, GREEDY_ORDERS, DEFAULT_SEED, weight=weights.of)[0]

    @staticmethod
    def check_log(r, seen, greedy, weights):
        # the greedy reason opens the trajectory, which the log repeats
        costs = [c for _, c in seen]
        assert seen[0] == (greedy, weights.of_term(greedy))
        assert tuple(c for _, c in r.extras["log"]) == tuple(costs)
        assert costs == sorted(set(costs), reverse=True)
        assert r.term == seen[-1][0] and r.cost == costs[-1]

    def test_optimum_below_a_beaten_greedy_bound(self):
        rng = random.Random(1300)
        beaten = 0
        for _ in range(40):
            n = rng.randint(8, 10)
            forest = random_forest(rng, n, rng.choice([3, 9]), 6, leaf_chance=0.1)
            x = random_instance(rng, n)
            candidates = brute.enumerate_majoritary_reasons(forest, x)
            random_weights = WeightMap({v: rng.randint(1, 30) for v in range(1, n + 1)})
            for weights in (WeightMap(), random_weights):
                expected = min(weights.of_term(t) for t in candidates)
                greedy = self.greedy(forest, x, weights)
                seen = []
                record = lambda t, c, e: seen.append((t, c))
                if weights.weights:
                    r = minimal_weight_majoritary_reason(forest, x, weights, on_improve=record)
                else:
                    r = minimal_majoritary_reason(forest, x, on_improve=record)
                assert r.optimal and r.cost == expected and r.term in candidates
                self.check_log(r, seen, greedy, weights)
                if weights.of_term(greedy) > expected:
                    beaten += 1
                    assert len(seen) >= 2  # MaxSAT improved on the bound

            tree = forest.trees[0]
            one_tree = RandomForest([tree])
            expected = min(len(t) for t in brute.enumerate_sufficient_reasons(one_tree, x))
            greedy = self.greedy(one_tree, x, WeightMap())
            r = minimal_sufficient_reason_dt(tree, x)
            assert r.optimal and r.size == r.cost == expected
            assert r.extras["log"][0][1] == len(greedy)
            beaten += len(greedy) > expected
        assert beaten >= 1  # two weighted instances with this seed

    def test_deadline_inside_maxsat_keeps_the_greedy_reason(self, orchid):
        # the deadline passes once the greedy reason is reported
        reported = []

        class PassesOnReport(Deadline):
            def expired(self):
                return bool(reported)

        r = minimal_majoritary_reason(
            orchid, X_POS, PassesOnReport(math.inf), lambda t, c, e: reported.append(t)
        )
        assert len(reported) == 1 and r.term == reported[0]
        assert not r.optimal and r.cost == r.size and "fallback" not in r.extras
        assert MajorityOracle(orchid).accepts(r.term)

    def test_greedy_skipped_after_the_deadline(self, orchid):
        masks = [t.disagreement_masks(X_POS) for t in orchid.trees]
        got = best_of_orders(masks, X_POS, GREEDY_ORDERS, DEFAULT_SEED, Deadline.after(0))
        assert got == (None, False)


class TestHittingInstance:
    """A term within t_x implies the tree exactly when it hits every
    restricted 0-path clause."""

    def test_clause_tree_instance(self):
        tree = clause_to_tree((1, 2), 2)
        assert _restricted_clauses(tree, (1, 2)) == [(1, 2)]

    def test_golden_tree_sets(self, orchid):
        sets = _restricted_clauses(orchid.trees[1], Term.of_instance(X_POS).literals)
        assert set(map(frozenset, sets)) == {
            frozenset({1, 2}),
            frozenset({2, 4}),
        }

    def test_hitting_characterizes_implication(self):
        rng = random.Random(604)
        for _ in range(25):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n, 5)
            x = random_instance(rng, n)
            if tree.evaluate(x) != 1:
                tree = tree.negated()
            full = Term.of_instance(x)
            sets = _restricted_clauses(tree, full.literals)
            for k in range(0, min(len(full), 6) + 1):
                for subset in itertools.combinations(full.literals, k):
                    term = Term(subset)
                    hits = all(set(subset) & set(s) for s in sets)
                    assert hits == tree.implied_by(term)


class TestGreedyCoverApproximation:
    def test_clause_tree(self):
        tree = clause_to_tree((1, 2), 2)
        r = approx_minimal_reason_dt(tree, (1, 1))
        assert r.size == 1

    def test_golden_tree_is_sufficient(self, orchid):
        r = approx_minimal_reason_dt(orchid.trees[0], X_POS)
        assert r.term in brute.enumerate_sufficient_reasons(
            RandomForest([orchid.trees[0]]), X_POS
        )

    def test_ratio_against_exact_minimum(self):
        rng = random.Random(605)
        for _ in range(60):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n, 5)
            x = random_instance(rng, n)
            approx = approx_minimal_reason_dt(tree, x)
            exact = minimal_sufficient_reason_dt(tree, x)
            assert approx.size <= max(1, exact.size) * (math.log(n) + 1)
            target = tree if tree.evaluate(x) == 1 else tree.negated()
            assert brute.is_implicant_bruteforce(target, approx.term)


class TestWcnfConstruction:
    def test_requires_positive_polarity(self, orchid):
        with pytest.raises(NotAnImplicantError):
            majority_wcnf(orchid, X_NEG)

    def test_soft_clauses_negate_instance_literals(self, orchid):
        problem = majority_wcnf(orchid, X_POS)
        assert [c for c, _ in problem.soft] == [(-1,), (-2,), (-3,), (-4,)]
        assert all(w == 1 for _, w in problem.soft)

    def test_selector_forced_off_when_clause_vanishes(self):
        # a tree demanding x1=0 cannot be implied from within t_x with x1=1
        tree = clause_to_tree((-1,), 2)
        forest = RandomForest([tree, DecisionTree.leaf(1, 2), DecisionTree.leaf(1, 2)])
        x = (1, 1)
        problem = majority_wcnf(forest, x)
        assert (-3,) in problem.hard.clauses  # selector of the first tree
        r = minimal_majoritary_reason(forest, x)
        assert r.term == Term()


@st.composite
def forest_cases(draw):
    """(forest, x, weights): 1 to 9 trees, so odd and even counts, over at
    most 8 variables, with x of either class."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    forest = random_forest(rng, n, draw(st.integers(1, 9)), draw(st.integers(1, 6)), 0.15)
    weights = WeightMap({v: rng.randint(1, 9) for v in range(1, n + 1)})
    return forest, random_instance(rng, n), weights


class TestSubsumptionFreeInstance:
    """majority_wcnf keeps only each tree's subset-minimal restricted
    clauses: the same hitting-set instance, so the same optima."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(forest_cases())
    def test_optima_and_implication_match_brute_force(self, case):
        forest, x, weights = case
        candidates = brute.enumerate_majoritary_reasons(forest, x)
        r = minimal_majoritary_reason(forest, x)
        assert r.optimal and r.cost == min(map(len, candidates)) and r.term in candidates
        w = minimal_weight_majoritary_reason(forest, x, weights)
        assert w.optimal and w.cost == min(map(weights.of_term, candidates))
        assert w.term in candidates
        # a subterm of t_x implies a tree exactly when it hits every kept clause
        model = normalize(forest, x)
        full = Term.of_instance(x)
        kept = guarded_clauses(majority_wcnf(model, x), model)
        for k in range(len(full) + 1):
            for subset in itertools.combinations(full.literals, k):
                term = Term(subset)
                for tree, clauses in zip(model.trees, kept):
                    hits = all(set(subset) & set(c) for c in clauses)
                    assert hits == tree.implied_by(term)

    def test_subsumed_clause_is_dropped(self):
        # the tree computes x1 through x2: its 0-paths give (1, 2) and
        # (1, -2), restricted to t_x = x1 x2 (1, 2) and (1,)
        half = {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}}
        tree = DecisionTree.from_nested({"var": 2, "low": half, "high": half}, 2)
        assert _restricted_clauses(tree, (1, 2)) == [(1, 2), (1,)]
        problem = majority_wcnf(RandomForest([tree]), (1, 1))
        assert guarded_clauses(problem, RandomForest([tree])) == [[(1,)]]
        assert (-3, 1, 2) not in problem.hard.clauses

    def test_empty_clause_leaves_the_unit_alone(self):
        # x1 x2 reaches a 0-leaf, so the first tree cannot be implied
        # within t_x; its other 0-paths restrict to (1,) and (2,)
        tree = DecisionTree.from_nested(
            {
                "var": 1,
                "low": {"leaf": 0},
                "high": {"var": 2, "low": {"leaf": 0}, "high": {"leaf": 0}},
            },
            2,
        )
        forest = RandomForest([tree, DecisionTree.leaf(1, 2), DecisionTree.leaf(1, 2)])
        x = (1, 1)
        assert sorted(_restricted_clauses(tree, (1, 2))) == [(), (1,), (2,)]
        problem = majority_wcnf(forest, x)
        assert guarded_clauses(problem, forest) == [[()], [], []]

    def test_no_kept_clause_contains_another(self):
        rng = random.Random(2001)
        dropped = 0
        for _ in range(12):
            forest = random_forest(rng, 20, 15, 6, 0.1)
            x = random_instance(rng, 20)
            model = normalize(forest, x)
            instance = Term.of_instance(x).literals
            for tree, kept in zip(model.trees, guarded_clauses(majority_wcnf(model, x), model)):
                full = _restricted_clauses(tree, instance)
                # kept clauses come in their order in the full family
                assert kept == [c for c in full if c in kept]
                sets = list(map(frozenset, kept))
                assert not any(a <= b for a, b in itertools.permutations(sets, 2))
                # every dropped clause contains a kept one
                assert all(any(k <= set(c) for k in sets) for c in full)
                dropped += len(full) - len(kept)
        assert dropped > 0


def mask_clauses(tree: DecisionTree, x) -> list[tuple[int, ...]]:
    """The tree's disagreement masks under x as clauses of instance literals."""
    instance = Term.of_instance(x).literals
    return [tuple(l for l in instance if m >> abs(l) & 1) for m in tree.disagreement_masks(x)]


class TestDisagreementMasks:
    """A tree's disagreement masks under x are its subset-minimal
    restricted clauses, as a list: in cnf_clauses order."""

    @staticmethod
    def reference(tree: DecisionTree, x) -> list[tuple[int, ...]]:
        return brute.subset_minimal(_restricted_clauses(tree, Term.of_instance(x).literals))

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 7))
    def test_random_and_negated_trees(self, seed, n, depth):
        rng = random.Random(seed)
        tree = random_tree(rng, n, depth, 0.15)
        x = random_instance(rng, n)
        for t in (tree, tree.negated()):
            assert mask_clauses(t, x) == self.reference(t, x)

    def test_clause_trees(self):
        rng = random.Random(2101)
        for _ in range(60):
            n = rng.randint(1, 8)
            picked = rng.sample(range(1, n + 1), rng.randint(0, n))
            clause = [v if rng.random() < 0.5 else -v for v in picked]
            if clause and rng.random() < 0.1:
                clause.append(-clause[0])  # a tautology: the constant-1 tree
            tree = clause_to_tree(clause, n)
            x = random_instance(rng, n)
            assert mask_clauses(tree, x) == self.reference(tree, x)

    def test_constant_trees(self):
        x = (1, 0, 1)
        assert DecisionTree.leaf(1, 3).disagreement_masks(x) == []
        assert DecisionTree.leaf(0, 3).disagreement_masks(x) == [0]
        assert self.reference(DecisionTree.leaf(0, 3), x) == [()]

    def test_instance_reaching_a_zero_leaf(self):
        # x1 x2 reaches a 0-leaf; the masks of the other 0-paths, {1} and
        # {2}, contain the empty one
        tree = DecisionTree.from_nested(
            {
                "var": 1,
                "low": {"leaf": 0},
                "high": {"var": 2, "low": {"leaf": 0}, "high": {"leaf": 0}},
            },
            2,
        )
        assert tree.disagreement_masks((1, 1)) == [0]
        assert self.reference(tree, (1, 1)) == [()]

    def test_low_branch_first(self):
        # x1 ? (x2 ? 1 : 0) : 0 under x = 11: the walk follows x and meets
        # the 0-leaf under x2 first, but the low branch of x1 comes first
        tree = DecisionTree.from_nested(
            {
                "var": 1,
                "low": {"leaf": 0},
                "high": {"var": 2, "low": {"leaf": 0}, "high": {"leaf": 1}},
            },
            2,
        )
        assert tree.disagreement_masks((1, 1)) == [1 << 1, 1 << 2]
        assert tree.cnf_clauses() == ((1,), (-1, 2))


def reference_best(forest, x, permutations, seed, weights):
    """The best of greedy_reason's runs on the majority oracle over
    best_of_orders' seeded orders, ties to the earlier order."""
    rng = random.Random(seed)
    model = normalize(forest, x)
    base = list(range(1, forest.var_count + 1))
    best = None
    for _ in range(permutations):
        rng.shuffle(base)
        term = greedy_reason(MajorityOracle(model), x, tuple(base), ReasonKind.MAJORITARY).term
        if best is None or weights.of_term(term) < weights.of_term(best):
            best = term
    return best


class TestBestOfOrders:
    """best_of_orders on disagreement masks against the per-order greedy
    runs on the traversal oracle."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(forest_cases(), st.integers(0, 2**16), st.integers(1, 8), st.booleans())
    def test_matches_the_best_greedy_order(self, case, seed, permutations, unit):
        forest, x, weights = case
        if unit:
            weights = WeightMap()
        model = normalize(forest, x)
        masks = [t.disagreement_masks(x) for t in model.trees]
        got, complete = best_of_orders(masks, x, permutations, seed, weight=None if unit else weights.of)
        assert complete
        expected = reference_best(forest, x, permutations, seed, weights)
        assert got == expected and weights.of_term(got) == weights.of_term(expected)
        oracle = MajorityOracle(model)
        assert oracle.accepts(got)
        assert not any(oracle.accepts(Term(l for l in got if l != lit)) for lit in got)
