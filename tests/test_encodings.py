import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.core import DecisionTree, RandomForest, Term, normalize
from rfreasons.encodings import (
    ImplicantCnf,
    VarAllocator,
    WeightedCnf,
    at_least,
    implicant_test_cnf,
    weighted_at_most,
)
from rfreasons.solver import CnfInstance, SatSolver, SolveStatus

import brute
from conftest import X_NEG, X_POS
from generators import random_forest, random_instance


def projected_satisfiable(clauses, var_count, fixed_bits):
    units = [(v if b else -v) for v, b in fixed_bits.items()]
    cnf = CnfInstance(var_count, list(clauses) + [(u,) for u in units])
    return SatSolver(cnf).solve().status is SolveStatus.SAT


class TestCardinality:
    def test_exhaustive_projection_up_to_six(self):
        # every selector assignment extends to the registers iff the bound holds
        for m in range(1, 7):
            selectors = tuple(range(1, m + 1))
            for k in range(0, m + 2):
                alloc = VarAllocator(m)
                clauses = at_least(selectors, k, alloc)
                for bits in itertools.product((False, True), repeat=m):
                    fixed = dict(zip(selectors, bits))
                    assert projected_satisfiable(clauses, alloc.top, fixed) == (
                        sum(bits) >= k
                    ), (m, k, bits)

    @pytest.mark.parametrize("m,count", [(1, 1), (3, 4), (5, 16)])
    def test_majority_projected_model_counts(self, m, count):
        selectors = tuple(range(1, m + 1))
        alloc = VarAllocator(m)
        clauses = at_least(selectors, m // 2 + 1, alloc)
        got = sum(
            projected_satisfiable(clauses, alloc.top, dict(zip(selectors, bits)))
            for bits in itertools.product((False, True), repeat=m)
        )
        assert got == count

    def test_majority_of_one_forces_selector(self):
        alloc = VarAllocator(1)
        out = SatSolver(CnfInstance(alloc.top, at_least((1,), 1, alloc))).solve()
        assert out.status is SolveStatus.SAT and out.model[0] is True

    def test_unsatisfiable_bound(self):
        alloc = VarAllocator(2)
        clauses = at_least((1, 2), 3, alloc)
        assert SatSolver(CnfInstance(alloc.top, clauses)).solve().status is SolveStatus.UNSAT


class TestWeightedBound:
    def test_exhaustive_small_cases(self):
        rng = random.Random(301)
        for _ in range(150):
            q = rng.randint(1, 6)
            weights = [rng.randint(1, 6) for _ in range(q)]
            bound = rng.randint(0, sum(weights) + 1)
            alloc = VarAllocator(q)
            clauses = weighted_at_most(
                [(i + 1, w) for i, w in enumerate(weights)], bound, alloc
            )
            for bits in itertools.product((False, True), repeat=q):
                fixed = dict(zip(range(1, q + 1), bits))
                expect = sum(w for w, b in zip(weights, bits) if b) <= bound
                assert projected_satisfiable(clauses, alloc.top, fixed) == expect

    def test_negative_bound_is_contradiction(self):
        assert weighted_at_most([(1, 1)], -1, VarAllocator(1)) == [()]

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            weighted_at_most([(1, 0), (2, -1)], 1, VarAllocator(2))

    @pytest.mark.parametrize("bound", [0, 1])
    @pytest.mark.parametrize(
        "items",
        [[(1.5, 1)], [("2", 2)], [(0, 1)], [(True, 1)], [(1, 2.9)], [(1, "2")], [(1, True)]],
    )
    def test_rejects_non_int_literal_or_weight(self, items, bound):
        with pytest.raises(ValueError):
            weighted_at_most(items, bound, VarAllocator(2))

    @staticmethod
    def _random_case(rng):
        q = rng.randint(1, 10)
        items = [((i + 1) * rng.choice((1, -1)), rng.randint(1, 6)) for i in range(q)]
        return q, items, rng.randint(0, sum(w for _, w in items) + 1)

    def test_every_register_is_both_set_and_read(self):
        # a register that occurs with one sign only is dead: it can never
        # be set, or it never leads to an overflow
        rng = random.Random(303)
        for _ in range(400):
            q, items, bound = self._random_case(rng)
            alloc = VarAllocator(q)
            clauses = weighted_at_most(items, bound, alloc)
            signs = {(abs(l), l > 0) for c in clauses for l in c if abs(l) > q}
            for v in range(q + 1, alloc.top + 1):
                assert (v, True) in signs and (v, False) in signs, (items, bound, v)

    def test_majority_counter_size(self):
        # 25 selectors, at least 13 true: of the full counter's 25 x 12
        # registers, 156 can be set and can still reach the bound
        alloc = VarAllocator(25)
        at_least(range(1, 26), 13, alloc)
        assert alloc.top - 25 == 156

    def test_unit_propagation_refutes_every_input_that_would_overflow(self):
        rng = random.Random(304)
        forced = 0
        for _ in range(400):
            q, items, bound = self._random_case(rng)
            alloc = VarAllocator(q)
            clauses = weighted_at_most(items, bound, alloc)
            true, weight = [], 0
            for lit, w in rng.sample(items, rng.randint(0, q)):
                if weight + w <= bound:
                    true.append(lit)
                    weight += w
            value = unit_propagate(clauses + [(l,) for l in true])
            assert value is not None, (items, bound, true)
            for lit, w in items:
                if lit not in true and w > bound - weight:
                    assert value.get(abs(lit)) == (lit < 0), (items, bound, true, lit)
                    forced += 1
        assert forced > 500  # the premise held often enough to matter

    def test_a_heavy_input_gets_its_unit_clause_alone(self):
        # an input heavier than the bound is fixed false and leaves the
        # counter of the light inputs as it is without it
        alloc = VarAllocator(5)
        clauses = weighted_at_most([(1, 2), (2, 9), (5, 9), (3, 2), (4, 2)], 3, alloc)
        assert alloc.top - 5 == 2 and len(clauses) == 2 + 5
        rng = random.Random(305)
        mixed = 0
        for _ in range(400):
            q, items, bound = self._random_case(rng)
            light = [(l, w) for l, w in items if w <= bound]
            units = [(-l,) for l, w in items if w > bound]
            alloc, alone = VarAllocator(q), VarAllocator(q)
            clauses = weighted_at_most(items, bound, alloc)
            assert clauses == units + weighted_at_most(light, bound, alone), (items, bound)
            assert alloc.top == alone.top
            mixed += bool(units and light)
        assert mixed > 50  # cases with both kinds of input


def unit_propagate(clauses):
    """The root assignment that unit propagation derives from clauses,
    as {var: bool}, or None on a conflict."""
    value: dict[int, bool] = {}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(value.get(abs(l)) == (l > 0) for l in clause):
                continue
            free = [l for l in clause if abs(l) not in value]
            if not free:
                return None
            if len(free) == 1:
                value[abs(free[0])] = free[0] > 0
                changed = True
    return value


class TestImplicantCnf:
    def test_golden_structure(self, orchid):
        enc = implicant_test_cnf(orchid)
        assert enc.selectors == (5, 6, 7)
        assert enc.cnf.var_count > 7  # cardinality registers beyond selectors

    def test_golden_queries(self, orchid):
        enc = implicant_test_cnf(orchid)
        solver = SatSolver(enc.cnf)
        full = Term.of_instance(X_POS)
        assert solver.solve(assumptions=full.to_ints()).status is SolveStatus.UNSAT
        assert solver.solve(assumptions=(2, 4)).status is SolveStatus.SAT
        assert solver.solve(assumptions=(1, 4)).status is SolveStatus.UNSAT

    def test_negative_instance_via_negation(self, orchid):
        enc = implicant_test_cnf(orchid.negated())
        solver = SatSolver(enc.cnf)
        full = Term.of_instance(X_NEG)
        assert solver.solve(assumptions=full.to_ints()).status is SolveStatus.UNSAT

    def test_agrees_with_bruteforce(self):
        rng = random.Random(302)
        for _ in range(30):
            n = rng.randint(2, 10)
            forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
            enc = implicant_test_cnf(forest)
            solver = SatSolver(enc.cnf)
            for _ in range(6):
                size = rng.randint(0, n)
                variables = rng.sample(range(1, n + 1), size)
                term = Term((v if rng.random() < 0.5 else -v) for v in variables)
                got = solver.solve(assumptions=term.to_ints()).status is SolveStatus.UNSAT
                assert got == brute.is_implicant_bruteforce(forest, term)

    def test_any_tree_count_with_constant_trees_exact(self):
        # the falsified-tree bound m - majority + 1 needs no padding tree
        rng = random.Random(303)
        for _ in range(30):
            n = rng.randint(2, 8)
            forest = random_forest(rng, n, rng.randint(1, 6), 4)
            trees = [
                DecisionTree.leaf(rng.randint(0, 1), n) if rng.random() < 0.3 else t
                for t in forest.trees
            ]
            forest = RandomForest(trees)
            enc = implicant_test_cnf(forest)
            assert enc.selectors == tuple(range(n + 1, n + len(trees) + 1))
            solver = SatSolver(enc.cnf)
            for _ in range(6):
                size = rng.randint(0, n)
                variables = rng.sample(range(1, n + 1), size)
                term = Term((v if rng.random() < 0.5 else -v) for v in variables)
                got = solver.solve(assumptions=term.to_ints()).status is SolveStatus.UNSAT
                assert got == brute.is_implicant_bruteforce(forest, term)


@st.composite
def restricted_cases(draw):
    """(normalized forest, subterm of t_x): 1 to 8 trees, so even counts
    get the negation's padding tree, and depth 0 makes constant trees."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    forest = random_forest(rng, n, draw(st.integers(1, 8)), draw(st.integers(0, 4)), 0.3)
    x = random_instance(rng, n)
    keep = draw(st.sets(st.integers(1, n)))
    return normalize(forest, x), Term.of_instance(x).restrict_to(keep)


def counterexamples(forest: RandomForest, enc: ImplicantCnf) -> set[tuple[int, ...]]:
    """Every model of the forest's encoding, restricted to the features:
    each model found blocks its features in the next solver's CNF."""
    clauses, found = list(enc.cnf.clauses), set()
    while True:
        outcome = SatSolver(CnfInstance(enc.cnf.var_count, clauses)).solve()
        if outcome.status is not SolveStatus.SAT:
            return found
        z = tuple(int(b) for b in outcome.model[: forest.var_count])
        found.add(z)
        clauses.append([-v if b else v for v, b in enumerate(z, 1)])


class TestRestrictedImplicantCnf:
    """implicant_test_cnf(forest, t) encodes the extensions of t alone."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(restricted_cases())
    def test_agrees_with_bruteforce(self, case):
        forest, term = case
        enc = implicant_test_cnf(forest, term)
        outcome = SatSolver(enc.cnf).solve()
        assert (outcome.status is SolveStatus.UNSAT) == brute.is_implicant_bruteforce(
            forest, term
        )

    @settings(max_examples=100, deadline=None, database=None)
    @given(restricted_cases())
    def test_models_are_the_counterexamples_extending_the_term(self, case):
        forest, term = case
        expected = {
            z
            for z in itertools.product((0, 1), repeat=forest.var_count)
            if term.covers(z) and forest.evaluate(z) == 0
        }
        assert counterexamples(forest, implicant_test_cnf(forest, term)) == expected

    @settings(max_examples=100, deadline=None, database=None)
    @given(restricted_cases())
    def test_the_frame_is_the_encoding_less_its_path_clauses(self, case):
        # a path clause is the one kind that negates a selector, and a tree
        # a nonempty term implies gets none
        forest, term = case
        full, frame = implicant_test_cnf(forest, term), implicant_test_cnf(forest, term, paths=False)
        open_trees = [t for t in forest.trees if not (term and t.implied_by(term))]
        assert frame.selectors == full.selectors and len(full.selectors) == len(open_trees)
        negated = {-y for y in full.selectors}
        assert frame.cnf == CnfInstance(
            full.cnf.var_count, [c for c in full.cnf.clauses if not negated & set(c)]
        )

    def test_empty_term_gives_the_full_encoding(self, orchid):
        # constant trees keep their selector: the search's encoding is unchanged
        padded = RandomForest([*orchid.trees, DecisionTree.leaf(1, 4)]).negated()
        for forest in (orchid, padded):
            enc = implicant_test_cnf(forest, Term())
            assert enc == implicant_test_cnf(forest)
            assert len(enc.selectors) == forest.tree_count
        assert SatSolver(implicant_test_cnf(orchid).cnf).solve().status is SolveStatus.SAT

    def test_term_implying_a_majority_outright_is_the_empty_clause(self, orchid):
        # t_x implies all three orchid trees: no tree can be falsified
        enc = implicant_test_cnf(orchid, Term.of_instance(X_POS))
        assert enc.selectors == () and () in enc.cnf.clauses
        assert SatSolver(enc.cnf).solve().status is SolveStatus.UNSAT

    def test_term_the_forest_refutes(self, orchid):
        term = Term.of_instance(X_NEG)
        assert orchid.evaluate(X_NEG) == 0
        enc = implicant_test_cnf(orchid, term)
        assert counterexamples(orchid, enc) == {X_NEG}
        assert enc.cnf.clause_count < implicant_test_cnf(orchid).cnf.clause_count


class TestWeightedCnf:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightedCnf(CnfInstance(1, []), (((1,), 0),))

    @pytest.mark.parametrize("weight", [1.5, True, "2"])
    def test_rejects_non_int_weight(self, weight):
        with pytest.raises(ValueError, match="a soft weight is a positive int"):
            WeightedCnf(CnfInstance(1, []), (((1,), weight),))

    def test_rejects_out_of_range_soft_literal(self):
        with pytest.raises(ValueError):
            WeightedCnf(CnfInstance(1, []), (((2,), 1),))
        # the solver's one clause check refuses a non-literal too
        for lit in (1.5, 0, True):
            with pytest.raises(ValueError, match="a literal is a nonzero int"):
                WeightedCnf(CnfInstance(2, []), (((lit,), 1),))
