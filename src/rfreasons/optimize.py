"""Minimum-size and minimum-weight reasons.

The forest-level optimizers reduce to Partial MaxSAT: selector-guarded
restricted tree clauses plus a majority cardinality constraint form the
hard part, and one soft clause per instance literal asks to drop it.
Intersecting the instance term with any model of the hard part yields a
term implying a strict majority of trees, so even non-optimal
intermediate models give valid abductive explanations; the optimum gives
a minimum-size (or minimum-weight) majoritary reason.  The search starts
from the cost of a greedy majoritary reason, which is usually optimal.
Before any instance is built, a hitting-set lower bound on the same
masks (mask_bound_reaches) tries to prove that; only when it falls
short do the instance and the solver run.  All three read each tree's
disagreement masks, walked once.

For single trees, a greedy covering over the contradicted 0-paths gives
a fast approximation of the minimum-size reason.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import DecisionTree, Instance, RandomForest, Term, mask_variables, normalize
from .encodings import VarAllocator, WeightedCnf, at_least
from .explain import DEFAULT_SEED, GREEDY_ORDERS, MajorityOracle, NotAnImplicantError, Reason
from .explain import ReasonKind, best_of_orders, greedy_reason
from .maxsat import maxsat_anytime
from .solver import CnfInstance, Deadline

MAX_TOTAL_WEIGHT = 2**31 - 1

# The most majority-sized tree sets mask_bound_reaches tries, each one
# packing pass over the masks.  On 15-tree forests 64 admits up to 10
# implied trees and closes two requests in three, at worst in about a
# tenth of the time of the UNSAT proof it spares.
BOUND_SUBSETS = 64

# Nothing raises this: a deadline ends in a fallback reason.  The name
# stays for callers that still catch it.
OptimizationBudgetError = TimeoutError


@dataclass(frozen=True)
class WeightMap:
    """Positive integer disutility per feature; missing features weigh 1."""

    weights: Mapping[int, int]

    def __init__(self, weights: Mapping[int, int] | None = None):
        weights = dict(weights or {})
        for var, w in weights.items():
            if type(w) is not int or w < 1:
                raise ValueError(f"weight of x{var} must be a positive int, got {w!r}")
        object.__setattr__(self, "weights", weights)

    def of(self, var: int) -> int:
        return self.weights.get(var, 1)

    def of_term(self, term: Term) -> int:
        return sum(self.of(abs(l)) for l in term)

    def check_total(self, var_count: int) -> None:
        """Refuse weights whose sum over x1..x{var_count} overflows
        MAX_TOTAL_WEIGHT, the optimizer's bound."""
        if sum(self.of(v) for v in range(1, var_count + 1)) > MAX_TOTAL_WEIGHT:
            raise ValueError("total feature weight overflows the optimizer bound")


def majority_wcnf(
    forest: RandomForest,
    x: Instance,
    weights: WeightMap | None = None,
    masks: Sequence[Sequence[int]] | None = None,
) -> WeightedCnf:
    """The Partial MaxSAT instance whose optima are the minimum-weight
    majoritary reasons for x.

    Callers must pass a polarity-normalized forest (one that classifies x
    positively), and may pass its trees' disagreement_masks under x.
    Soft clauses negate the instance literals; hard clauses say
    "selector i implies each mask of tree i, as a clause of instance
    literals" plus the strict-majority count over selectors.  The masks
    are the subset-minimal restricted clauses: a term hitting C hits
    every clause containing C, so the others add nothing.  A tree x
    sends to a 0-leaf has the empty mask: the unit (-y,) forces its
    selector off.
    """
    if forest.evaluate(x) != 1:
        raise NotAnImplicantError("forest must classify the instance positively")
    weights = weights or WeightMap()
    n = forest.var_count
    instance = Term.of_instance(x).literals
    weights.check_total(n)
    if masks is None:
        masks = [t.disagreement_masks(x) for t in forest.trees]

    alloc = VarAllocator(n)
    selectors = tuple(alloc.fresh() for _ in forest.trees)
    hard: list[tuple[int, ...]] = []
    for y, tree_masks in zip(selectors, masks):
        for m in tree_masks:  # an empty one forces -y
            hard.append((-y, *(instance[v - 1] for v in mask_variables(m))))
    hard.extend(at_least(selectors, forest.majority, alloc))
    soft = tuple(((-lit,), weights.of(abs(lit))) for lit in instance)
    return WeightedCnf(CnfInstance(alloc.top, hard), soft)


def mask_bound_reaches(
    masks: Sequence[Sequence[int]], majority: int, weight: Callable[[int], int], cost: int
) -> bool:
    """Whether every majoritary reason weighs at least cost, shown from
    the trees' disagreement masks with exact integer arithmetic.

    A majoritary reason implies majority of the trees t_x implies (those
    whose masks are not [0]), so it meets every mask of each tree in some
    majority-sized set S of them.  A greedy packing of S's masks into a
    disjoint set, smallest first, takes first the variables that the
    one-variable masks force, then masks that miss all it took: each
    packed mask needs a variable of its own, no lighter than its
    lightest one.  The bound holds when, for every S, the packed weights
    reach cost.  It is not tried, and the answer is False, when more
    than BOUND_SUBSETS sets S exist."""
    implied = [m for m in masks if m != [0]]
    if math.comb(len(implied), majority) > BOUND_SUBSETS:
        return False
    packing = sorted(  # (tree bit, mask, its lightest weight), smallest first
        ((1 << i, m, min(map(weight, mask_variables(m)))) for i, ms in enumerate(implied) for m in ms),
        key=lambda p: p[1].bit_count(),
    )
    for group in itertools.combinations([1 << i for i in range(len(implied))], majority):
        trees = sum(group)
        used = bound = 0
        for tree, m, lightest in packing:
            if tree & trees and not m & used:
                used |= m
                bound += lightest
                if bound >= cost:
                    break
        if bound < cost:
            return False
    return True


def _restricted_clauses(tree: DecisionTree, instance: Sequence[int]) -> list[tuple[int, ...]]:
    """The tree's 0-path clauses cut down to the instance literals, one
    per 0-path and in cnf_clauses order: a term within the instance term
    implies the tree exactly when it hits every one of them.  Every
    clause is kept, subsumed ones too: approx_minimal_reason_dt counts
    them."""
    keep = set(instance)
    return [tuple(l for l in clause if l in keep) for clause in tree.cnf_clauses()]


def _intersect_with_model(x: Instance, model: Sequence[bool]) -> Term:
    return Term(l for l in Term.of_instance(x) if model[abs(l) - 1] == (l > 0))


def _optimize(
    forest: RandomForest,
    x: Instance,
    weights: WeightMap | None,
    kind: ReasonKind,
    deadline: Deadline | None,
    on_improve: Callable[[Term, int, float], None] | None,
) -> Reason:
    """The minimal kinds' common loop.  The best greedy majoritary reason
    over GREEDY_ORDERS seeded orders is the first improvement.  When
    mask_bound_reaches proves its cost optimal, that ends the search
    with no instance or solver built; otherwise MaxSAT searches only
    below its cost, so a request whose greedy reason is already optimal
    takes one UNSAT proof.  When optimal is True, extras["proof"] says
    which proof closed the search, "bound" or "maxsat".  The bound is
    skipped once the deadline has passed.  Every improvement is checked
    on the majority oracle and logged in extras["log"], a tuple of
    (seconds since start, cost) pairs timed here; the reason is the
    last one.  A deadline that passed before the greedy search starts
    leaves no improvement, and MaxSAT could then only time out: the
    result is the instance term with extras["fallback"] = "timeout"."""
    start = time.monotonic()
    weights = weights or WeightMap()
    normalized = normalize(forest, x)
    weights.check_total(normalized.var_count)
    masks = [t.disagreement_masks(x) for t in normalized.trees]
    oracle = MajorityOracle(normalized)
    greedy, _ = best_of_orders(masks, x, GREEDY_ORDERS, DEFAULT_SEED, deadline, weights.of)
    if greedy is None:
        full = Term.of_instance(x)
        return Reason(
            full, kind, tuple(x), cost=weights.of_term(full), extras={"fallback": "timeout"}
        )
    best = greedy
    log: list[tuple[float, int]] = []

    def improved(term: Term, cost: int) -> None:
        nonlocal best
        if not oracle.accepts(term):
            raise AssertionError("optimizer produced a non-implicant")
        elapsed = time.monotonic() - start
        best = term
        log.append((elapsed, cost))
        if on_improve is not None:
            on_improve(term, cost, elapsed)

    upper = weights.of_term(greedy)
    improved(greedy, upper)
    if (deadline is None or not deadline.expired()) and mask_bound_reaches(
        masks, normalized.majority, weights.of, upper
    ):
        cost, optimal, proof = upper, True, "bound"
    else:
        result = maxsat_anytime(
            majority_wcnf(normalized, x, weights, masks),
            deadline,
            lambda model, cost: improved(_intersect_with_model(x, model), cost),
            upper=upper,
        )
        cost, optimal, proof = result.cost, result.optimal, "maxsat"
    extras = {"log": tuple(log), "proof": proof} if optimal else {"log": tuple(log)}
    return Reason(best, kind, tuple(x), cost=cost, optimal=optimal, extras=extras)


def minimal_majoritary_reason(
    forest: RandomForest,
    x: Instance,
    deadline: Deadline | None = None,
    on_improve: Callable[[Term, int, float], None] | None = None,
) -> Reason:
    """A minimum-size majoritary reason when solved to optimality before
    the deadline, otherwise the best intermediate explanation found.

    cost is the reason size, and on_improve(term, cost, elapsed) sees
    every improvement, the greedy reason first (see _optimize).  When
    the deadline passes before the greedy search starts, the result is
    the instance term with extras["fallback"] = "timeout"."""
    return _optimize(forest, x, None, ReasonKind.MINIMAL_MAJORITARY, deadline, on_improve)


def minimal_weight_majoritary_reason(
    forest: RandomForest,
    x: Instance,
    weights: WeightMap,
    deadline: Deadline | None = None,
    on_improve: Callable[[Term, int, float], None] | None = None,
) -> Reason:
    """Majoritary reason minimizing the summed feature weights; uniform
    weights make this coincide with minimal_majoritary_reason."""
    return _optimize(
        forest, x, weights, ReasonKind.MINIMAL_WEIGHT, deadline, on_improve
    )


def minimal_sufficient_reason_dt(
    tree: DecisionTree, x: Instance, deadline: Deadline | None = None
) -> Reason:
    """A minimum-size prime implicant of the tree covering x, solved as
    the single-tree case of the majority optimization."""
    return _optimize(
        RandomForest([tree]), x, None, ReasonKind.MINIMAL_SUFFICIENT, deadline, None
    )


# ---------------------------------------------------------------------------
# greedy covering for single trees


def approx_minimal_reason_dt(tree: DecisionTree, x: Instance) -> Reason:
    """Greedy approximation of the minimum-size reason for a tree.

    Repeatedly picks an instance literal hitting the most still-uncovered
    restricted 0-path clauses (ties to the lowest feature index), then
    prime-reduces the cover so the output is a genuine sufficient reason.
    The degrees count every restricted clause, subsumed ones included:
    dropping those, as majority_wcnf does, leaves the clauses to hit the
    same but changes which literal has the most, and so the cover.
    """
    normalized = normalize(tree, x)
    remaining = _restricted_clauses(normalized, Term.of_instance(x).literals)
    picked: set[int] = set()
    while remaining:
        degree: dict[int, int] = {}
        for s in remaining:
            for l in s:
                degree[l] = degree.get(l, 0) + 1
        best = max(degree.items(), key=lambda kv: (kv[1], -abs(kv[0])))[0]
        picked.add(best)
        remaining = [s for s in remaining if best not in s]
    oracle = MajorityOracle(RandomForest([normalized]))
    return greedy_reason(oracle, x, None, ReasonKind.APPROX_MINIMAL, seed_term=Term(picked))
