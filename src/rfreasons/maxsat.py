"""Anytime Partial MaxSAT by model-improving linear search.

Soft clauses get relaxation selectors, then the loop alternates between
tightening a "total violated weight <= best - 1" constraint (a
sequential weighted counter over the selectors) and finding a model;
the first bound comes from the caller's upper bound, when given.  Every
intermediate model satisfies all hard clauses, so callers can use each
one as a valid approximate solution; costs reported through the
callback are strictly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .encodings import VarAllocator, WeightedCnf, weighted_at_most
from .solver import CnfInstance, Deadline, SatSolver, SolveStatus


class HardClausesUnsatisfiable(Exception):
    """The mandatory part of the problem has no model."""


@dataclass(frozen=True)
class MaxSatResult:
    """Best model found, its exact cost, and whether optimality was proved.

    model is None when the run found nothing cheaper than the caller's
    upper bound, which cost then repeats."""

    model: tuple[bool, ...] | None
    cost: int
    optimal: bool
    iterations: int = 0


def violated_weight(
    soft: Sequence[tuple[tuple[int, ...], int]], model: Sequence[bool]
) -> int:
    """Total weight of soft clauses falsified by the model."""
    cost = 0
    for clause, weight in soft:
        if not any(model[abs(l) - 1] == (l > 0) for l in clause):
            cost += weight
    return cost


def maxsat_anytime(
    problem: WeightedCnf,
    deadline: Deadline | None = None,
    on_improve: Callable[[tuple[bool, ...], int], None] | None = None,
    upper: int | None = None,
) -> MaxSatResult | None:
    """Minimize the violated soft weight subject to the hard clauses.

    Raises HardClausesUnsatisfiable when no model exists at all, and
    returns None when, with no upper given, the deadline passes before
    the first model.  A deadline that passes later yields the best
    model so far with optimal=False.  on_improve(model, cost) fires once
    per strictly improving model, the final one included; the loop keeps
    no clock, so a caller that logs when improvements come times them.

    upper is the cost of a solution the caller already holds: the bound
    "cost <= upper - 1" goes in before the first solve, so only cheaper
    models are searched for.  If there is none, the result has model
    None and cost upper (optimal unless the deadline cut the search), and
    the result is never None.  iterations counts the solve calls, the
    final UNSAT proof included.

    Each bound is solved on a solver of its own, built in one pass from
    the hard clauses, the relaxed soft clauses and that bound's counter,
    whose registers every bound numbers from the same base.
    """
    alloc = VarAllocator(problem.hard.var_count)
    base = list(problem.hard.clauses)
    relaxed: list[tuple[int, int]] = []  # (selector literal, weight)
    for clause, weight in problem.soft:
        sel = alloc.fresh()
        base.append(tuple(clause) + (sel,))
        relaxed.append((sel, weight))

    n_report = problem.hard.var_count
    best_model: tuple[bool, ...] | None = None
    best_cost = upper
    iterations = 0

    def finish(optimal: bool) -> MaxSatResult:
        return MaxSatResult(best_model, best_cost, optimal, iterations)

    while True:
        registers = VarAllocator(alloc.top)
        counter = [] if best_cost is None else weighted_at_most(relaxed, best_cost - 1, registers)
        outcome = SatSolver(CnfInstance(registers.top, base + counter)).solve(deadline=deadline)
        iterations += 1
        if outcome.status is SolveStatus.TIMEOUT:
            return None if best_cost is None else finish(False)
        if outcome.status is SolveStatus.UNSAT:
            if best_cost is None:
                raise HardClausesUnsatisfiable("hard clauses are unsatisfiable")
            return finish(True)
        model = outcome.model[:n_report]
        cost = violated_weight(problem.soft, model)
        assert best_cost is None or cost < best_cost
        best_model, best_cost = model, cost
        if on_improve is not None:
            on_improve(model, cost)
        if cost == 0:
            return finish(True)
