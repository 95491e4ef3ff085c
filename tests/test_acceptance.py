"""Acceptance suite: one test per release criterion.

Each criterion runs at its stated tolerance (exact unless noted) and the
terminal summary reports one pass/fail line per criterion (see
conftest).  Expected values for the running example are frozen from
independent brute-force enumeration over all assignments.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from rfreasons.core import (
    RandomForest,
    Term,
    cnf_to_forest,
    dnf_to_forest,
)
from rfreasons.cli import parity_fixture
from rfreasons.encodings import implicant_test_cnf
from rfreasons.solver import Deadline
from rfreasons.explain import (
    ForestSatOracle,
    MajorityOracle,
    delta_probable_reason_dt,
    direct_reason,
    majoritary_reason,
    majoritary_reason_multi,
    sufficient_reason_rf,
)
from rfreasons.optimize import (
    WeightMap,
    approx_minimal_reason_dt,
    minimal_majoritary_reason,
    minimal_sufficient_reason_dt,
    minimal_weight_majoritary_reason,
)
from rfreasons.solver import SatSolver, SolveStatus

import brute
from conftest import X_NEG, X_POS
from generators import random_forest, random_instance, random_tree


def term_of(*lits: int) -> Term:
    return Term(lits)


def all_assignments(n):
    return itertools.product((0, 1), repeat=n)


def test_criterion_1_figure_golden_suite(orchid):
    started = time.monotonic()

    assert orchid.evaluate(X_POS) == 1
    assert orchid.evaluate(X_NEG) == 0

    assert direct_reason(orchid, X_POS).term == term_of(1, 2, 3, 4)
    assert direct_reason(orchid, X_NEG).term == term_of(2, -3, -4)

    sufficient_pos = {term_of(2, 3, 4), term_of(1, 4)}
    sufficient_neg = {term_of(-4), term_of(-1, -3)}
    assert brute.enumerate_sufficient_reasons(orchid, X_POS) == sufficient_pos
    assert brute.enumerate_sufficient_reasons(orchid, X_NEG) == sufficient_neg
    for perm in itertools.permutations(range(1, 5)):
        assert sufficient_reason_rf(orchid, X_POS, order=perm).term in sufficient_pos
        assert sufficient_reason_rf(orchid, X_NEG, order=perm).term in sufficient_neg

    majoritary_pos = brute.enumerate_majoritary_reasons(orchid, X_POS)
    majoritary_neg = brute.enumerate_majoritary_reasons(orchid, X_NEG)
    assert majoritary_pos == {term_of(1, 2, 4), term_of(1, 3, 4), term_of(2, 3, 4)}
    assert majoritary_neg == {term_of(-1, -4), term_of(2, -4), term_of(-1, 2, -3)}
    assert sorted(len(t) for t in majoritary_pos) == [3, 3, 3]
    assert sorted(len(t) for t in majoritary_neg) == [2, 2, 3]

    minimal_pos = minimal_majoritary_reason(orchid, X_POS)
    minimal_neg = minimal_majoritary_reason(orchid, X_NEG)
    assert minimal_pos.optimal and minimal_pos.size == 3
    assert minimal_neg.optimal and minimal_neg.size == 2

    assert min(sufficient_pos, key=len) == term_of(1, 4)
    assert min(sufficient_neg, key=len) == term_of(-4)

    assert time.monotonic() - started < 1.0


def test_criterion_2_oracle_equivalence_suites():
    started = time.monotonic()
    rng = random.Random(20_211)

    # forest negation: 200 random models, full-table agreement
    for _ in range(200):
        n = rng.randint(2, 10)
        forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
        expect = ~brute.truth_table_forest(forest)
        assert np.array_equal(brute.truth_table_forest(forest.negated()), expect)

    # CNF/DNF <-> forest conversions with exact 2p-1 tree counts
    for _ in range(200):
        n = rng.randint(2, 10)
        source = random_tree(rng, n, 5)
        table = brute.truth_table_tree(source)
        clauses = source.cnf_clauses()
        if clauses:
            f = cnf_to_forest(clauses, n)
            assert f.tree_count == 2 * len(clauses) - 1
            assert np.array_equal(brute.truth_table_forest(f), table)
        terms = brute.dnf_terms(source)
        f = dnf_to_forest(terms, n)
        if terms:
            assert f.tree_count == 2 * len(terms) - 1
        assert np.array_equal(brute.truth_table_forest(f), table)

    # SAT implicant test against brute force
    for _ in range(200):
        n = rng.randint(2, 10)
        forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
        solver = SatSolver(implicant_test_cnf(forest).cnf)
        for _ in range(4):
            variables = rng.sample(range(1, n + 1), rng.randint(0, n))
            term = Term((v if rng.random() < 0.5 else -v) for v in variables)
            got = solver.solve(assumptions=term.to_ints()).status is SolveStatus.UNSAT
            assert got == brute.is_implicant_bruteforce(forest, term)

    # single-tree implicant test and model counting
    for _ in range(200):
        n = rng.randint(2, 10)
        tree = random_tree(rng, n, 5)
        assert tree.count_models() + tree.negated().count_models() == 1 << n
        for _ in range(4):
            variables = rng.sample(range(1, n + 1), rng.randint(0, n))
            term = Term((v if rng.random() < 0.5 else -v) for v in variables)
            assert tree.implied_by(term) == brute.is_implicant_bruteforce(tree, term)
            assert tree.count_models(term) == brute.count_models_bruteforce(tree, term)

    assert time.monotonic() - started < 60.0


def test_criterion_3_maxsat_optimality():
    started = time.monotonic()
    rng = random.Random(30_303)
    for _ in range(100):
        n = rng.randint(2, 10)
        forest = random_forest(rng, n, rng.choice([1, 3, 5]), 5)
        x = random_instance(rng, n)
        candidates = brute.enumerate_majoritary_reasons(forest, x)
        best_size = min(len(t) for t in candidates)
        r = minimal_majoritary_reason(forest, x)
        assert r.optimal and r.size == best_size

        weights = WeightMap({v: rng.randint(1, 9) for v in range(1, n + 1)})
        best_weight = min(weights.of_term(t) for t in candidates)
        rw = minimal_weight_majoritary_reason(forest, x, weights)
        assert rw.optimal and rw.cost == best_weight
    assert time.monotonic() - started < 120.0


def test_criterion_4_anytime_contract():
    rng = random.Random(40_404)
    for _ in range(20):
        n = 30
        forest = random_forest(rng, n, 15, 7, leaf_chance=0.2)
        x = random_instance(rng, n)
        log: list[tuple[Term, int]] = []
        minimal_majoritary_reason(
            forest, x, Deadline.after(30), on_improve=lambda t, c, e: log.append((t, c))
        )
        assert log, "at least one model must be reported"
        costs = [c for _, c in log]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        normalized = forest if forest.evaluate(x) == 1 else forest.negated()
        majority = MajorityOracle(normalized)
        exact = ForestSatOracle(normalized)
        for term, _ in log:
            assert term.covers(x)
            assert majority.accepts(term)  # implies a strict majority of trees
            assert exact.accepts(term)  # hence an implicant of the forest


def test_criterion_5_delta_probable_contract():
    rng = random.Random(50_505)
    deltas = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)]
    for i in range(200):
        n = rng.randint(2, 12)
        tree = random_tree(rng, n, 5)
        x = random_instance(rng, n)
        target = tree if tree.evaluate(x) == 1 else tree.negated()

        delta = deltas[i % len(deltas)]
        r = delta_probable_reason_dt(tree, x, delta)
        assert brute.conditional_probability_bruteforce(target, r.term) >= delta

        exact = delta_probable_reason_dt(tree, x, 1)
        assert exact.term in brute.enumerate_sufficient_reasons(
            RandomForest([tree]), x
        )


def test_criterion_6_adversarial_parity_fixture():
    for n in (2, 3):
        for copies in (1, 2):
            forest = parity_fixture(n, copies)
            for x in all_assignments(n):
                assert forest.evaluate(x) == 1
                assert majoritary_reason(forest, x).term == Term.of_instance(x)
                assert sufficient_reason_rf(forest, x).term == Term()


def test_criterion_7_size_ordering():
    rng = random.Random(909)
    wins = 0
    direct_sizes, multi_sizes, minimal_sizes = [], [], []
    for i in range(100):
        n = rng.randint(9, 12)
        forest = random_forest(rng, n, 5, 5, leaf_chance=0.15)
        x = random_instance(rng, n)
        d = direct_reason(forest, x).size
        m = majoritary_reason_multi(forest, x, permutations=50, seed=1000 + i).size
        mm = minimal_majoritary_reason(forest, x).size
        assert mm <= m  # any majoritary reason bounds the minimum
        direct_sizes.append(d)
        multi_sizes.append(m)
        minimal_sizes.append(mm)
        if mm < d:
            wins += 1
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(minimal_sizes) <= mean(multi_sizes) <= mean(direct_sizes)
    assert wins >= 80


def test_criterion_8_greedy_cover_approximation():
    rng = random.Random(80_808)
    for _ in range(200):
        n = rng.randint(2, 10)
        tree = random_tree(rng, n, 5)
        x = random_instance(rng, n)
        approx = approx_minimal_reason_dt(tree, x)
        exact = minimal_sufficient_reason_dt(tree, x)
        assert exact.optimal
        assert approx.size <= exact.size * (math.log(n) + 1)
