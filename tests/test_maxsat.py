import itertools
import random

import pytest

from rfreasons.encodings import WeightedCnf
from rfreasons.maxsat import (
    HardClausesUnsatisfiable,
    MaxSatResult,
    maxsat_anytime,
    violated_weight,
)
from rfreasons.solver import CnfInstance, Deadline


def brute_optimum(var_count, hard, soft):
    best = None
    for bits in itertools.product((False, True), repeat=var_count):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in hard):
            cost = violated_weight(soft, bits)
            best = cost if best is None else min(best, cost)
    return best


class TestWorkedExamples:
    def test_prefers_cheaper_violation(self):
        problem = WeightedCnf(CnfInstance(2, [(1, 2)]), (((-1,), 1), ((-2,), 2)))
        result = maxsat_anytime(problem)
        assert result.optimal and result.cost == 1
        assert result.model == (True, False)

    def test_no_soft_clauses(self):
        result = maxsat_anytime(WeightedCnf(CnfInstance(2, [(1,), (2,)]), ()))
        assert result.optimal and result.cost == 0

    def test_forced_violation(self):
        result = maxsat_anytime(WeightedCnf(CnfInstance(1, [(-1,)]), (((1,), 1),)))
        assert result.optimal and result.cost == 1 and result.model[0] is False

    def test_hard_unsat_is_distinguished(self):
        with pytest.raises(HardClausesUnsatisfiable):
            maxsat_anytime(WeightedCnf(CnfInstance(1, [(1,), (-1,)]), ()))

    def test_zero_budget(self):
        # a deadline that passed before the first model yields no result
        problem = WeightedCnf(CnfInstance(1, []), (((1,), 1),))
        assert maxsat_anytime(problem, Deadline.after(0)) is None


class TestRandomized:
    def test_matches_bruteforce_optimum(self):
        rng = random.Random(401)
        for _ in range(120):
            n = rng.randint(1, 8)
            def clause(width):
                variables = rng.sample(range(1, n + 1), min(width, n))
                return tuple(v if rng.random() < 0.5 else -v for v in variables)
            hard = [clause(rng.randint(1, 3)) for _ in range(rng.randint(0, 2 * n))]
            soft = tuple(
                (clause(rng.randint(1, 2)), rng.randint(1, 4))
                for _ in range(rng.randint(1, 2 * n))
            )
            expect = brute_optimum(n, hard, soft)
            problem = WeightedCnf(CnfInstance(n, hard), soft)
            if expect is None:
                with pytest.raises(HardClausesUnsatisfiable):
                    maxsat_anytime(problem)
                continue
            costs = []
            result = maxsat_anytime(problem, on_improve=lambda m, c: costs.append(c))
            assert result.optimal
            assert result.cost == expect
            assert violated_weight(soft, result.model) == result.cost
            # callback stream is strictly improving and ends at the optimum
            assert costs == sorted(costs, reverse=True)
            assert len(set(costs)) == len(costs)
            assert costs[-1] == result.cost

    def test_iterations_count_improvements_and_the_proof(self):
        # one solve call per improving model, and one more for the UNSAT
        # proof unless the last model costs 0
        rng = random.Random(405)
        for _ in range(80):
            n = rng.randint(1, 8)
            def clause(width):
                variables = rng.sample(range(1, n + 1), min(width, n))
                return tuple(v if rng.random() < 0.5 else -v for v in variables)
            hard = [clause(rng.randint(1, 3)) for _ in range(rng.randint(0, n))]
            soft = tuple(
                (clause(rng.randint(1, 2)), rng.randint(1, 4))
                for _ in range(rng.randint(1, 2 * n))
            )
            if brute_optimum(n, hard, soft) is None:
                continue
            costs = []
            result = maxsat_anytime(
                WeightedCnf(CnfInstance(n, hard), soft), on_improve=lambda m, c: costs.append(c)
            )
            assert result.optimal and costs[-1] == result.cost
            assert result.iterations == len(costs) + (costs[-1] > 0)

    def test_upper_bound_searches_below_it(self):
        # a caller's solution at the optimum leaves one UNSAT proof; one
        # above it leaves a cheaper model to find
        rng = random.Random(404)
        for _ in range(80):
            n = rng.randint(1, 8)
            def clause(width):
                variables = rng.sample(range(1, n + 1), min(width, n))
                return tuple(v if rng.random() < 0.5 else -v for v in variables)
            hard = [clause(rng.randint(1, 3)) for _ in range(rng.randint(0, n))]
            soft = tuple(
                (clause(rng.randint(1, 2)), rng.randint(1, 4))
                for _ in range(rng.randint(1, 2 * n))
            )
            expect = brute_optimum(n, hard, soft)
            if expect is None:
                continue
            problem = WeightedCnf(CnfInstance(n, hard), soft)
            proved = maxsat_anytime(problem, upper=expect)
            assert proved == MaxSatResult(None, expect, True, 1)
            costs = []
            result = maxsat_anytime(
                problem, on_improve=lambda m, c: costs.append(c), upper=expect + 1
            )
            assert result.optimal and result.cost == expect == costs[-1]
            assert violated_weight(soft, result.model) == expect
            assert result.iterations == len(costs) + (expect > 0)  # cost 0 needs no proof

    def test_upper_bound_past_the_deadline(self):
        problem = WeightedCnf(CnfInstance(1, []), (((1,), 1),))
        assert maxsat_anytime(problem, Deadline.after(0), upper=1) == MaxSatResult(
            None, 1, False, 1
        )

    def test_larger_instances_reach_the_optimum(self):
        # wider problems, checked against a vectorized enumerator
        import numpy as np

        rng = random.Random(403)
        for _ in range(5):
            n = rng.randint(12, 16)
            def clause(width):
                variables = rng.sample(range(1, n + 1), width)
                return tuple(v if rng.random() < 0.5 else -v for v in variables)
            hard = [clause(3) for _ in range(2 * n)]
            soft = tuple((clause(rng.randint(1, 2)), rng.randint(1, 5)) for _ in range(n))

            idx = np.arange(1 << n, dtype=np.int64)
            def table(c):
                sat = np.zeros(1 << n, dtype=bool)
                for lit in c:
                    bit = ((idx >> (abs(lit) - 1)) & 1).astype(bool)
                    sat |= bit if lit > 0 else ~bit
                return sat
            feasible = np.ones(1 << n, dtype=bool)
            for c in hard:
                feasible &= table(c)
            if not feasible.any():
                with pytest.raises(HardClausesUnsatisfiable):
                    maxsat_anytime(WeightedCnf(CnfInstance(n, hard), soft))
                continue
            cost = np.zeros(1 << n, dtype=np.int64)
            for c, w in soft:
                cost += np.where(table(c), 0, w)
            expect = int(cost[feasible].min())
            result = maxsat_anytime(WeightedCnf(CnfInstance(n, hard), soft))
            assert result.optimal and result.cost == expect

    def test_runs_are_independent(self):
        # optimality proofs over-constrain a session, so each call gets its
        # own; back-to-back runs of different problems stay unaffected
        first = maxsat_anytime(
            WeightedCnf(CnfInstance(3, [(1, 2)]), (((-1,), 1), ((-2,), 2)))
        )
        assert first.optimal and first.cost == 1
        second = maxsat_anytime(WeightedCnf(CnfInstance(3, [(3,)]), (((-3,), 4),)))
        assert second.optimal and second.cost == 4

    def test_intermediate_models_satisfy_hard_clauses(self):
        rng = random.Random(402)
        n = 10
        hard = [(v, -(v % n + 1)) for v in range(1, n + 1)]
        soft = tuple(((-v,), 1) for v in range(1, n + 1))
        problem = WeightedCnf(CnfInstance(n, hard), soft)

        seen = []

        def record(model, cost):
            for clause in hard:
                assert any(model[abs(l) - 1] == (l > 0) for l in clause)
            seen.append(cost)

        maxsat_anytime(problem, on_improve=record)
        assert seen
