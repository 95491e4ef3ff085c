import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.core import (
    DecisionTree,
    DimensionError,
    InconsistentTermError,
    ModelFormatError,
    RandomForest,
    Term,
    clause_to_tree,
    cnf_to_forest,
    dnf_to_forest,
    normalize,
)
from rfreasons.solver import CnfInstance

import brute
from conftest import X_NEG, X_POS
from generators import random_forest, random_tree


def all_assignments(n):
    return itertools.product((0, 1), repeat=n)


def satisfies(x, clause):
    return any(bool(x[abs(l) - 1]) == (l > 0) for l in clause)


@st.composite
def int_clauses(draw, max_clauses=1):
    """(n, clauses): signed-int clauses over x1..xn with duplicates, any
    literal order, tautologies and the empty clause all allowed."""
    n = draw(st.integers(1, 6))
    literal = st.integers(-n, n).filter(bool)
    clauses = draw(
        st.lists(st.lists(literal, max_size=2 * n), min_size=1, max_size=max_clauses)
    )
    return n, clauses


def reference_render(lits, names=None):
    """Test-side renderer: literals sorted by variable, ¬ on negatives."""
    if not lits:
        return "⊤"
    parts = []
    for l in sorted(lits, key=abs):
        name = names[abs(l) - 1] if names is not None else "x%d" % abs(l)
        parts.append(name if l > 0 else "¬" + name)
    return " ∧ ".join(parts)


class TestLiteralsTermsClauses:
    def test_term_canonical_and_structural_equality(self):
        t1 = Term([3, -1])
        t2 = Term([-1, 3, 3])
        assert t1 == t2
        assert list(t1) == [-1, 3]

    def test_term_rejects_inconsistency(self):
        with pytest.raises(InconsistentTermError):
            Term([2, -2])

    @pytest.mark.parametrize("bad", [0, True, False, 1.5, 2.0, "2", None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda l: Term([1, l]),
            lambda l: CnfInstance(2, [(1, l)]),
            lambda l: clause_to_tree([1, l], 2),
        ],
        ids=["Term", "CnfInstance", "clause_to_tree"],
    )
    def test_refuses_non_literals(self, build, bad):
        with pytest.raises(ValueError, match="literal"):
            build(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 12), st.booleans(), max_size=8),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_any_listing_of_a_literal_set(self, polarity, rng, named):
        lits = [v if p else -v for v, p in polarity.items()]
        dupes = [rng.choice(lits) for _ in range(4)] if lits else []
        listing = lits + dupes
        rng.shuffle(listing)
        term = Term(listing)
        assert term == Term(lits)
        assert list(term) == sorted(lits, key=abs)
        assert all(type(l) is int for l in term)
        names = [f"f{v}" for v in range(1, 13)] if named else None
        assert term.render(names) == reference_render(lits, names)
        if lits:
            with pytest.raises(InconsistentTermError):
                Term(listing + [-rng.choice(lits)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 12), st.booleans(), max_size=8),
        st.integers(0, 12),
    )
    def test_to_array_spans_var_count_and_every_literal(self, polarity, var_count):
        # the empty term, and terms reaching past var_count, included
        term = Term(v if p else -v for v, p in polarity.items())
        expected = [None] * (max([var_count, *term.variables()]) + 1)
        for l in term:
            expected[abs(l)] = l > 0
        assert term.to_array(var_count) == expected
        assert Term.from_array(term.to_array(var_count)) == term

    def test_covers_is_false_beyond_the_instance(self):
        assert Term([1, -2]).covers((1, 0))
        assert not Term([5]).covers((1, 1))

    def test_full_instance_term(self):
        t = Term.of_instance((1, 0, 1))
        assert t.to_ints() == (1, -2, 3)
        assert t.covers((1, 0, 1))
        assert not t.covers((1, 1, 1))

    def test_render(self):
        t = Term([1, -4])
        assert str(t) == "x1 ∧ ¬x4"
        assert t.render(["fragrant", "b", "c", "sympodial"]) == "fragrant ∧ ¬sympodial"
        assert str(Term()) == "⊤"


class TestTreeStructure:
    def test_read_once_enforced(self):
        with pytest.raises(ModelFormatError):
            DecisionTree.from_nested(
                {"var": 1, "low": {"leaf": 0},
                 "high": {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}}},
                2,
            )

    def test_var_range_enforced(self):
        with pytest.raises(ModelFormatError):
            DecisionTree.from_nested(
                {"var": 5, "low": {"leaf": 0}, "high": {"leaf": 1}}, 3
            )

    def test_negative_var_refused_in_a_direct_build(self):
        with pytest.raises(ModelFormatError, match="variable -1"):
            DecisionTree(2, ((-1, 1, 2), (0, 0, 0), (0, 1, 1)), 0)

    def test_nested_round_trip(self):
        nested = {"var": 2, "low": {"leaf": 1},
                  "high": {"var": 1, "low": {"leaf": 0}, "high": {"leaf": 1}}}
        tree = DecisionTree.from_nested(nested, 2)
        assert tree.to_nested() == nested

    def test_size_counts_all_nodes(self, orchid):
        t1, t2, t3 = orchid.trees
        # one arena node per nested record, leaves included
        assert (len(t1.nodes), len(t2.nodes), len(t3.nodes)) == (9, 7, 15)


class TestEvaluation:
    def test_golden_tree_values(self, orchid):
        t1, t2, _ = orchid.trees
        assert t1.evaluate(X_POS) == 1
        assert t2.evaluate(X_NEG) == 1

    def test_constant_tree(self):
        leaf = DecisionTree.leaf(0, 3)
        assert all(leaf.evaluate(x) == 0 for x in all_assignments(3))

    def test_dimension_mismatch(self, orchid):
        with pytest.raises(DimensionError):
            orchid.trees[0].evaluate((1, 0))

    def test_golden_forest_values(self, orchid):
        assert orchid.evaluate(X_POS) == 1
        assert orchid.evaluate(X_NEG) == 0

    def test_single_tree_forest_collapses(self, orchid):
        t2 = orchid.trees[1]
        f = RandomForest([t2])
        assert all(f.evaluate(x) == t2.evaluate(x) for x in all_assignments(4))


class TestNegation:
    def test_leaf_negation(self):
        assert DecisionTree.leaf(1, 2).negated().evaluate((0, 0)) == 0

    def test_tree_negation_golden(self, orchid):
        assert orchid.trees[0].negated().evaluate(X_POS) == 0

    def test_tree_double_negation_exhaustive(self, orchid):
        t1 = orchid.trees[0]
        nn = t1.negated().negated()
        assert all(nn.evaluate(x) == t1.evaluate(x) for x in all_assignments(4))

    def test_negation_flips_only_leaves(self):
        rng = random.Random(103)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 8), 5)
            neg = tree.negated()
            assert (neg.var_count, neg.root) == (tree.var_count, tree.root)
            for node, flipped in zip(tree.nodes, neg.nodes):
                var, lo, hi = node
                assert flipped == ((0, 1 - lo, 1 - hi) if var == 0 else node)
                assert var == 0 or flipped is node  # internal nodes are shared
            assert neg.negated().nodes == tree.nodes
            assert neg.negated() == tree

    def test_negation_is_not_revalidated(self, monkeypatch):
        tree = random_tree(random.Random(104), 6, 4)
        monkeypatch.setattr(DecisionTree, "_validate", lambda self: pytest.fail("validated"))
        assert tree.negated().negated() == tree
        with pytest.raises(pytest.fail.Exception):
            DecisionTree(tree.var_count, tree.nodes, tree.root)

    def test_forest_negation_golden(self, orchid):
        neg = orchid.negated()
        assert neg.evaluate(X_POS) == 0
        assert neg.evaluate(X_NEG) == 1

    def test_forest_double_negation_exhaustive(self, orchid):
        nn = orchid.negated().negated()
        assert all(nn.evaluate(x) == orchid.evaluate(x) for x in all_assignments(4))

    def test_negation_random_odd_forests(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(2, 10)
            f = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
            neg = f.negated()
            assert all(neg.evaluate(x) == 1 - f.evaluate(x) for x in all_assignments(n))

    def test_forest_negation_is_built_once_and_pickled_with_the_forest(self):
        f = random_forest(random.Random(105), 6, 4, 4)
        neg = f.negated()
        assert f.negated() is neg
        # the cache is no field: equality and hashing see the trees alone
        fresh = RandomForest(f.trees)
        assert fresh == f and hash(fresh) == hash(f)
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and copy.__dict__["_negation"] == neg
        assert copy.negated() is copy.__dict__["_negation"]

    def test_leaves_are_shared(self):
        # every tree built from records, flipped, or made constant holds the
        # same two leaf tuples
        rng = random.Random(106)
        trees = [random_tree(rng, rng.randint(1, 8), 5) for _ in range(10)]
        trees += [t.negated() for t in trees] + [DecisionTree.leaf(b, 3) for b in (0, 1)]
        trees.append(clause_to_tree((1, -2), 2))
        leaves = [node for t in trees for node in t.nodes if node[0] == 0]
        assert len(leaves) > 20 and len({id(node) for node in leaves}) == 2

    def test_negation_even_forest_handles_ties(self):
        rng = random.Random(102)
        for _ in range(20):
            n = rng.randint(2, 8)
            f = random_forest(rng, n, rng.choice([2, 4]), 4)
            neg = f.negated()
            assert all(neg.evaluate(x) == 1 - f.evaluate(x) for x in all_assignments(n))


class TestClausalViews:
    def test_cnf_of_golden_tree(self, orchid):
        t2 = orchid.trees[1]
        got = set(t2.cnf_clauses())
        assert got == {(1, 2), (-1, 2, 4)}

    def test_cnf_of_leaves(self):
        assert DecisionTree.leaf(1, 2).cnf_clauses() == ()
        clauses = DecisionTree.leaf(0, 2).cnf_clauses()
        assert clauses == ((),)

    def test_dnf_of_golden_tree(self, orchid):
        t2 = orchid.trees[1]
        got = {t.to_ints() for t in brute.dnf_terms(t2)}
        assert got == {(2,), (1, -2, 4)}

    def test_dnf_of_leaf0(self):
        assert brute.dnf_terms(DecisionTree.leaf(0, 2)) == ()

    def test_views_agree_with_eval_random(self):
        rng = random.Random(103)
        for _ in range(40):
            n = rng.randint(2, 12)
            tree = random_tree(rng, n, 5)
            cnf = tree.cnf_clauses()
            dnf = brute.dnf_terms(tree)
            for x in all_assignments(n):
                expect = tree.evaluate(x)
                assert expect == (1 if any(t.covers(x) for t in dnf) else 0)
                assert expect == (1 if all(satisfies(x, c) for c in cnf) else 0)
                assert all(list(c) == sorted(c, key=abs) for c in cnf)


class TestClauseToTree:
    def test_empty_clause(self):
        assert clause_to_tree((), 2).evaluate((1, 1)) == 0

    def test_tautology(self):
        t = clause_to_tree((1, -1), 2)
        assert all(t.evaluate(x) == 1 for x in all_assignments(2))

    def test_two_literal_clause(self):
        t = clause_to_tree((1, 2), 2)
        assert sum(1 for var, _, _ in t.nodes if var) == 2
        assert all(t.evaluate(x) == (1 if x[0] or x[1] else 0) for x in all_assignments(2))

    def test_size_linear_in_clause(self):
        t = clause_to_tree([v if v % 2 == 0 else -v for v in range(1, 9)], 8)
        assert sum(1 for var, _, _ in t.nodes if var) == 8

    def test_zero_is_not_a_literal(self):
        with pytest.raises(ValueError):
            clause_to_tree((1, 0), 2)

    @settings(max_examples=200, deadline=None)
    @given(int_clauses())
    def test_agrees_with_clause_on_every_assignment(self, case):
        n, (clause,) = case
        t = clause_to_tree(clause, n)
        assert all(t.evaluate(x) == satisfies(x, clause) for x in all_assignments(n))


class TestCnfDnfToForest:
    def test_single_clause(self):
        f = cnf_to_forest([(1, 2)], 2)
        assert f.tree_count == 1
        assert all(f.evaluate(x) == (1 if x[0] or x[1] else 0) for x in all_assignments(2))

    def test_two_clauses_equiv_x2(self):
        f = cnf_to_forest([(1, 2), (-1, 2)], 2)
        assert f.tree_count == 3
        assert all(f.evaluate(x) == x[1] for x in all_assignments(2))

    def test_empty_clause_constant_zero(self):
        f = cnf_to_forest([()], 2)
        assert all(f.evaluate(x) == 0 for x in all_assignments(2))

    @settings(max_examples=100, deadline=None)
    @given(int_clauses(max_clauses=5))
    def test_cnf_matches_brute_truth_table(self, case):
        n, clauses = case
        f = cnf_to_forest(clauses, n)
        table = brute.truth_table_forest(f)
        for i in range(1 << n):
            x = [(i >> (v - 1)) & 1 for v in range(1, n + 1)]
            assert table[i] == all(satisfies(x, c) for c in clauses)

    def test_requires_a_clause(self):
        with pytest.raises(ValueError):
            cnf_to_forest([], 2)

    def test_dnf_single_term(self):
        f = dnf_to_forest([Term([1, 4])], 4)
        assert all(f.evaluate(x) == (1 if x[0] and x[3] else 0) for x in all_assignments(4))

    def test_dnf_empty(self):
        f = dnf_to_forest([], 3)
        assert all(f.evaluate(x) == 0 for x in all_assignments(3))

    def test_dnf_of_tree_round_trip(self, orchid):
        t1 = orchid.trees[0]
        f = dnf_to_forest(list(brute.dnf_terms(t1)), 4)
        assert all(f.evaluate(x) == t1.evaluate(x) for x in all_assignments(4))

    def test_random_round_trips_and_tree_counts(self):
        rng = random.Random(104)
        for _ in range(30):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n, 5)
            clauses = tree.cnf_clauses()
            if clauses:
                f = cnf_to_forest(clauses, n)
                assert f.tree_count == 2 * len(clauses) - 1
                assert all(f.evaluate(x) == tree.evaluate(x) for x in all_assignments(n))
            terms = brute.dnf_terms(tree)
            f = dnf_to_forest(terms, n)
            if terms:
                assert f.tree_count == 2 * len(terms) - 1
            assert all(f.evaluate(x) == tree.evaluate(x) for x in all_assignments(n))


class TestTreeImplication:
    def test_golden_cases(self, orchid):
        t1, t2, _ = orchid.trees
        assert t2.implied_by(Term([2]))
        assert not t1.implied_by(Term([1, 4]))
        assert t1.implied_by(Term.of_instance(X_POS))

    def test_array_form_agrees(self):
        rng = random.Random(106)
        for _ in range(40):
            n = rng.randint(1, 8)
            tree = random_tree(rng, n, 5)
            variables = rng.sample(range(1, n + 1), rng.randint(0, n))
            term = Term(v if rng.random() < 0.5 else -v for v in variables)
            array = term.to_array(n)
            assert len(array) == n + 1 and Term.from_array(array) == term
            implied = tree.explore((tree.root,), array) is not None
            assert implied == tree.implied_by(term) == brute.is_implicant_bruteforce(tree, term)

    def test_resume_from_closed_children(self):
        # freeing v and exploring only v's closed children decides the
        # shrunk term and leaves the groups a run from the root would give
        rng = random.Random(107)
        for _ in range(60):
            n = rng.randint(1, 8)
            x = [rng.randint(0, 1) for _ in range(n)]
            tree = normalize(random_tree(rng, n, 6, leaf_chance=0.1), x)
            assign = Term.of_instance(x).to_array(n)
            closed = tree.explore((tree.root,), assign)
            for v in rng.sample(range(1, n + 1), n):
                assign[v] = None
                found = tree.explore(closed.get(v, ()), assign)
                fresh = tree.explore((tree.root,), assign)
                assert (found is None) == (fresh is None)
                if found is None:
                    break
                closed = {u: g for u, g in closed.items() if u != v}
                for u, group in found.items():
                    closed[u] = closed.get(u, []) + group
                assert {u: sorted(g) for u, g in closed.items()} == {
                    u: sorted(g) for u, g in fresh.items()
                }

    def test_reach_resumes_from_closed_children(self):
        # the same with paths, past the first reachable 0-leaf: the 1-paths
        # reached before plus those below v's closed children are a run
        # from the root's, and so are the merged groups; a 0-leaf reached
        # so far is the implicant test's negation
        rng = random.Random(108)
        for _ in range(60):
            n = rng.randint(1, 8)
            x = [rng.randint(0, 1) for _ in range(n)]
            tree = normalize(random_tree(rng, n, 6, leaf_chance=0.1), x)
            assign = Term.of_instance(x).to_array(n)
            ones, closed, broken = tree.reach(((tree.root, ()),), assign)
            assert not broken
            for v in rng.sample(range(1, n + 1), n):
                assign[v] = None
                found, opened, zero = tree.reach(closed.get(v, ()), assign)
                fresh_ones, fresh, fresh_zero = tree.reach(((tree.root, ()),), assign)
                broken = broken or zero
                assert broken == fresh_zero == (not tree.implied_by(Term.from_array(assign)))
                ones = ones + found
                assert sorted(ones) == sorted(fresh_ones)
                closed = {u: g for u, g in closed.items() if u != v}
                for u, group in opened.items():
                    closed[u] = closed.get(u, []) + group
                assert {u: sorted(g) for u, g in closed.items()} == {
                    u: sorted(g) for u, g in fresh.items()
                }

    def test_agrees_with_bruteforce(self):
        rng = random.Random(105)
        for _ in range(40):
            n = rng.randint(2, 12)
            tree = random_tree(rng, n, 5)
            for _ in range(6):
                size = rng.randint(0, n)
                variables = rng.sample(range(1, n + 1), size)
                term = Term(v if rng.random() < 0.5 else -v for v in variables)
                assert tree.implied_by(term) == brute.is_implicant_bruteforce(tree, term)


class TestModelCounting:
    def test_golden_counts(self, orchid):
        t1 = orchid.trees[0]
        assert t1.count_models() == 5
        assert t1.count_models(Term([2, 4])) == 1
        assert DecisionTree.leaf(1, 3).count_models() == 8

    def test_agrees_with_bruteforce_and_complement(self):
        rng = random.Random(106)
        for _ in range(40):
            n = rng.randint(2, 12)
            tree = random_tree(rng, n, 5)
            assert tree.count_models() + tree.negated().count_models() == 1 << n
            for _ in range(5):
                size = rng.randint(0, n)
                variables = rng.sample(range(1, n + 1), size)
                term = Term(v if rng.random() < 0.5 else -v for v in variables)
                assert tree.count_models(term) == brute.count_models_bruteforce(tree, term)


class TestForestInvariants:
    def test_forest_requires_trees(self):
        with pytest.raises(ModelFormatError):
            RandomForest([])

    def test_forest_rejects_mixed_var_counts(self):
        with pytest.raises(ModelFormatError):
            RandomForest([DecisionTree.leaf(1, 2), DecisionTree.leaf(0, 3)])

    def test_feature_name_arity(self):
        with pytest.raises(ModelFormatError):
            RandomForest([DecisionTree.leaf(1, 2)], ["only-one"])
