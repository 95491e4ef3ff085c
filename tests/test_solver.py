import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfreasons.encodings import implicant_test_cnf
from rfreasons.solver import CnfInstance, Deadline, SatSolver, SolveStatus, _normalize_clause

import reference_solver
from generators import random_forest


def random_cnf(rng, n, m, width=3):
    clauses = []
    for _ in range(m):
        size = rng.randint(1, min(width, n))
        variables = rng.sample(range(1, n + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfInstance(n, clauses)


def brute_satisfiable(cnf: CnfInstance) -> bool:
    # vectorized: row i of the table is the assignment with bits of i
    idx = np.arange(1 << cnf.var_count, dtype=np.int64)
    ok = np.ones(1 << cnf.var_count, dtype=bool)
    for clause in cnf.clauses:
        sat = np.zeros(1 << cnf.var_count, dtype=bool)
        for lit in clause:
            bit = ((idx >> (abs(lit) - 1)) & 1).astype(bool)
            sat |= bit if lit > 0 else ~bit
        ok &= sat
    return bool(ok.any())


def check_model(cnf: CnfInstance, model):
    for clause in cnf.clauses:
        assert any(model[abs(l) - 1] == (l > 0) for l in clause), clause


class TestSolve:
    def test_unit(self):
        out = SatSolver(CnfInstance(1, [(1,)])).solve()
        assert out.status is SolveStatus.SAT and out.model[0] is True

    def test_contradiction(self):
        out = SatSolver(CnfInstance(1, [(1,), (-1,)])).solve()
        assert out.status is SolveStatus.UNSAT

    def test_assumptions_refute_clause(self):
        out = SatSolver(CnfInstance(2, [(1, 2)])).solve(assumptions=[-1, -2])
        assert out.status is SolveStatus.UNSAT

    def test_empty_clause(self):
        out = SatSolver(CnfInstance(3, [()])).solve()
        assert out.status is SolveStatus.UNSAT

    def test_no_clauses_full_model(self):
        out = SatSolver(CnfInstance(4, [])).solve()
        assert out.status is SolveStatus.SAT
        assert len(out.model) == 4

    def test_random_agrees_with_bruteforce(self):
        rng = random.Random(201)
        for _ in range(250):
            n = rng.randint(1, 14)
            cnf = random_cnf(rng, n, rng.randint(1, int(4.4 * n)))
            out = SatSolver(cnf).solve()
            assert out.status in (SolveStatus.SAT, SolveStatus.UNSAT)
            assert (out.status is SolveStatus.SAT) == brute_satisfiable(cnf)
            if out.status is SolveStatus.SAT:
                check_model(cnf, out.model)

    def test_assumptions_equal_unit_clauses(self):
        rng = random.Random(202)
        for _ in range(120):
            n = rng.randint(1, 10)
            cnf = random_cnf(rng, n, rng.randint(1, 3 * n))
            k = rng.randint(0, n)
            assumed = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
            with_assumptions = SatSolver(cnf).solve(assumptions=assumed)
            as_units = SatSolver(
                CnfInstance(n, list(cnf.clauses) + [(a,) for a in assumed])
            ).solve()
            assert with_assumptions.status == as_units.status

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_loaded_clauses_agree_with_brute_force(self, data):
        # SatSolver(cnf) attaches CnfInstance's normalized clauses, each
        # simplified by the root assignment so far.  Unit clauses drawn
        # between longer ones assign variables at the root that later
        # clauses mention, which ends _attach's shortcut for an
        # unassigned root.
        n = data.draw(st.integers(1, 6))
        literal = st.integers(-n, n).filter(bool)
        longer = st.lists(literal, min_size=2, max_size=4)
        clause = st.one_of(longer, st.lists(literal, max_size=4), literal.map(lambda l: [l]))
        raw = data.draw(st.lists(clause, max_size=12))
        loaded = SatSolver(CnfInstance(n, raw))
        for _ in range(3):
            assumed = data.draw(st.lists(literal, max_size=3))
            constraints = raw + [[a] for a in assumed]
            satisfied = lambda x: all(
                any(x[abs(l) - 1] == (l > 0) for l in c) for c in constraints
            )
            expect = any(map(satisfied, itertools.product((False, True), repeat=n)))
            outcome = loaded.solve(assumptions=assumed)
            assert outcome.status is (SolveStatus.SAT if expect else SolveStatus.UNSAT)
            assert outcome.model is None or satisfied(outcome.model)

    def test_deterministic_models(self):
        rng = random.Random(203)
        cnf = random_cnf(rng, 12, 30)
        first = SatSolver(cnf).solve()
        second = SatSolver(cnf).solve()
        assert first.status == second.status
        assert first.model == second.model

    def test_timeout_statuses(self):
        out = SatSolver(CnfInstance(1, [(1,)])).solve(deadline=Deadline.after(0))
        assert out.status is SolveStatus.TIMEOUT

    def test_learning_survives_hard_instance(self):
        # pigeonhole: p pigeons, p-1 holes, unsatisfiable
        p, h = 6, 5
        var = lambda i, j: (i - 1) * h + j
        clauses = [tuple(var(i, j) for j in range(1, h + 1)) for i in range(1, p + 1)]
        for j in range(1, h + 1):
            for i1, i2 in itertools.combinations(range(1, p + 1), 2):
                clauses.append((-var(i1, j), -var(i2, j)))
        out = SatSolver(CnfInstance(p * h, clauses)).solve()
        assert out.status is SolveStatus.UNSAT

    def test_bad_literals_rejected(self):
        with pytest.raises(ValueError):
            CnfInstance(2, [(3,)])
        s = SatSolver(CnfInstance(2, []))
        with pytest.raises(ValueError):
            s.solve(assumptions=[5])

    @pytest.mark.parametrize("bad", [1.5, "2", True, 0])
    def test_non_literal_assumption_is_refused(self, bad):
        # True is no x1, and a float or str is no literal either
        with pytest.raises(ValueError, match="literal"):
            SatSolver(CnfInstance(2, [(1, 2)])).solve(assumptions=[bad])


class TestAddClauses:
    """add_clauses attaches clauses between solves: the session answers as
    a fresh solver on everything it holds, and keeps what it learnt."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_split_instance_answers_as_a_fresh_one(self, data):
        n = data.draw(st.integers(1, 7))
        literal = st.integers(-n, n).filter(bool)
        clauses = data.draw(st.lists(st.lists(literal, max_size=4), max_size=20))
        cut = data.draw(st.integers(0, len(clauses)))
        session = SatSolver(CnfInstance(n, clauses[:cut]))

        def answers_as_fresh(held):
            for _ in range(data.draw(st.integers(1, 3))):
                assumed = data.draw(st.lists(literal, max_size=3))
                outcome = session.solve(assumptions=assumed)
                fresh = SatSolver(CnfInstance(n, held)).solve(assumptions=assumed)
                assert outcome.status is fresh.status
                if outcome.model is not None:
                    check_model(CnfInstance(n, held + [[a] for a in assumed]), outcome.model)

        answers_as_fresh(clauses[:cut])
        session.add_clauses(clauses[cut:])
        answers_as_fresh(clauses)

    def test_a_clause_falsified_at_the_root_refutes_every_later_solve(self):
        session = SatSolver(CnfInstance(3, [(1,), (2, 3)]))
        assert session.solve(assumptions=[-2]).status is SolveStatus.SAT
        session.add_clauses([(-1, 2), (-2,)])  # 2 at the root, then its negation
        for assumed in ([], [3], [-3]):
            assert session.solve(assumptions=assumed).status is SolveStatus.UNSAT
        session = SatSolver(CnfInstance(2, [(1, 2)]))
        session.add_clauses([()])
        assert session.solve().status is SolveStatus.UNSAT

    @pytest.mark.parametrize("bad", [(3,), (-3,), (1.5,), ("2",), (True,), (0,)])
    def test_bad_literals_rejected(self, bad):
        session = SatSolver(CnfInstance(2, [(1, 2)]))
        with pytest.raises(ValueError):
            session.add_clauses([(-1,), bad])
        assert session.solve().status is SolveStatus.SAT  # -1 was not attached
        assert session.solve(assumptions=[1, -2]).status is SolveStatus.SAT
        with pytest.raises(ValueError):
            CnfInstance(2, [bad])


class TestCnfInstance:
    def test_normalizes_duplicates_and_tautologies(self):
        cnf = CnfInstance(3, [(1, 1, 2), (2, -2), (3,)])
        assert cnf.clauses == ((1, 2), (3,))

    def test_immutable_value_semantics(self):
        cnf = CnfInstance(2, [(1, 2)])
        assert cnf == CnfInstance(2, [(1, 2)])

    @pytest.mark.parametrize("bad", [1.5, "2", True, 0])
    def test_tautology_with_a_non_literal_is_refused(self, bad):
        with pytest.raises(ValueError, match="literal"):
            CnfInstance(2, [(1, -1, bad)])

    def test_out_of_range_literal_gives_one_error(self):
        with pytest.raises(ValueError) as loaded:
            CnfInstance(2, [(1, -3)])
        assert str(loaded.value) == "literal -3 exceeds declared variable count 2"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(-n, n).filter(bool), max_size=8))
        )
    )
    def test_normalization_matches_the_reference(self, case):
        # small ranges make duplicates and tautologies common
        n, lits = case
        assert _normalize_clause(lits, n) == reference_solver._normalize_clause(lits)


def assert_same_state(new: SatSolver, ref: reference_solver.SatSolver, first, second):
    assert first == second
    assert new._conflicts == ref._conflicts and new._decisions == ref._decisions


def signed(code: int) -> int:
    """The signed literal of a solver-internal literal code (2v, 2v+1)."""
    return -(code >> 1) if code & 1 else code >> 1


class TestAgainstReference:
    """The solver and tests/reference_solver.py, its loop version, make
    the same search: same outcomes and models, same conflict and
    decision counts, step for step."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_steps_same_search(self, data):
        # One drawn CnfInstance loads both solvers, then a drawn sequence
        # of solves under assumptions reuses what each has learnt.
        n = data.draw(st.integers(1, 8))
        literal = st.integers(-n, n).filter(bool)
        cnf = CnfInstance(n, data.draw(st.lists(st.lists(literal, max_size=5), max_size=24)))
        new, ref = SatSolver(cnf), reference_solver.SatSolver(cnf)
        assert_same_state(new, ref, new._unsat, ref._unsat)
        for _ in range(data.draw(st.integers(1, 8))):
            assumed = data.draw(st.lists(literal, max_size=4))
            assert_same_state(
                new, ref, new.solve(assumptions=assumed), ref.solve(assumptions=assumed)
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(30, 90))
    def test_same_search_on_random_3cnf(self, seed, n):
        # Random 3-SAT at the threshold: tens to hundreds of conflicts, so
        # learning, backjumps and restarts all run.
        rng = random.Random(seed)
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(int(4.26 * n))
        ]
        cnf = CnfInstance(n, clauses)
        new, ref = SatSolver(cnf), reference_solver.SatSolver(cnf)
        for _ in range(4):
            k = rng.randint(0, 4)
            assumed = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
            assert_same_state(
                new, ref, new.solve(assumptions=assumed), ref.solve(assumptions=assumed)
            )

    def test_same_search_through_learnt_clause_reduction(self):
        # 1,729 conflicts on 130 variables: the learnt clauses outgrow
        # their limit, and reduction deletes some of their watches.
        rng = random.Random(1)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 131), 3))
            for _ in range(553)
        ]
        cnf = CnfInstance(130, clauses)
        new, ref = SatSolver(cnf), reference_solver.SatSolver(cnf)
        assert_same_state(new, ref, new.solve(), ref.solve())
        learnts = [[signed(code) for code in c.lits] for c in new._learnts]
        assert learnts == [c.lits for c in ref._learnts]
        assert len(new._learnts) < new._conflicts - 500

    def test_same_search_across_an_activity_rescale(self):
        # var_inc grows by 1/0.95 per conflict, so activities pass 1e100
        # and are rescaled after ~4,490 conflicts; the third solve crosses
        # that point and runs ~2,300 conflicts beyond it, while the heap
        # still holds entries keyed by the activities before the rescale.
        rng = random.Random(8)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 151), 3))
            for _ in range(639)
        ]
        cnf = CnfInstance(150, clauses)
        new, ref = SatSolver(cnf), reference_solver.SatSolver(cnf)
        for _ in range(3):
            k = rng.randint(0, 3)
            assumed = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 151), k)]
            assert_same_state(
                new, ref, new.solve(assumptions=assumed), ref.solve(assumptions=assumed)
            )
        # without a rescale the conflicts alone would have taken var_inc past 1e100
        assert 0.95 ** -new._conflicts > 1e100 > new._var_inc
        assert new._activity == ref._activity

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_search_on_implicant_encoding(self, seed):
        # A term's literals, then negated selectors, as ForestSatOracle
        # assumes them (now and then a selector of either sign).
        encoding = implicant_test_cnf(random_forest(random.Random(seed), 40, 25, 8, 0.1))
        new, ref = SatSolver(encoding.cnf), reference_solver.SatSolver(encoding.cnf)
        rng = random.Random(seed)
        for _ in range(20):
            k = rng.randint(0, 40)
            assumed = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 41), k)]
            picked = rng.sample(encoding.selectors, rng.randint(0, len(encoding.selectors)))
            assumed += [y if rng.random() < 0.1 else -y for y in picked]
            assert_same_state(
                new, ref, new.solve(assumptions=assumed), ref.solve(assumptions=assumed)
            )
