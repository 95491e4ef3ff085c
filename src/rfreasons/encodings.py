"""CNF encodings: a weighted counter, cardinality bounds, forest implicant test.

One sequential weighted counter (Sinz, CP 2005) states every count in
the engine.  It introduces register variables s[i][j] meaning "the
weighted prefix sum of the first i inputs reaches j", banded like the
constraint's BDD (Eén & Sörensson, JSAT 2006) to the sums the prefix
can reach and from which the rest can still overflow; an at-least-k
bound over selectors is an at-most bound over their negations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import RandomForest, Term
from .solver import CnfInstance, _normalize_clause, check_literal


class VarAllocator:
    """Hands out fresh variable indices above an initial count."""

    def __init__(self, top: int = 0):
        self.top = top

    def fresh(self) -> int:
        self.top += 1
        return self.top


def weighted_at_most(
    items: Sequence[tuple[int, int]], bound: int, alloc: VarAllocator
) -> list[tuple[int, ...]]:
    """Clauses enforcing sum(weight for true literal) <= bound.

    One-directional sequential weighted counter: enough to refute any
    assignment exceeding the bound while every assignment within the
    bound extends to the registers, with the counter's full propagation
    strength.  Register s[i][j] ("the inputs up to item i weigh at least
    j") exists only where the weights up to item i can reach j and a
    clause of the next row reads it: the reachable BDD nodes that can
    still reach the bound.  An input heavier than the bound gets only
    its unit clause, ahead of the counter, and no row.  Each literal is
    checked like a clause literal, and each weight must be a positive int.
    """
    for lit, w in items:
        check_literal(lit)
        if type(w) is not int or w < 1:
            raise ValueError(f"a weight is a positive int, got {w!r}")
    if bound < 0:
        return [()]
    clauses: list[tuple[int, ...]] = [(-lit,) for lit, w in items if w > bound]
    items = [(lit, w) for lit, w in items if w <= bound]
    weights = [w for _, w in items]
    prefix = list(accumulate(weights))
    live = [0] * len(items)  # bit j of live[i]: a clause of row i + 1 reads s[i][j]
    for i in range(len(items) - 1, 0, -1):
        w, later = weights[i], live[i]
        reach = (2 << min(prefix[i - 1], bound)) - 2  # bits 1 .. the sums row i - 1 can reach
        live[i - 1] = (later | later >> w | 1 << bound + 1 - w) & reach
    s = [[alloc.fresh() if row >> j & 1 else 0 for j in range(bound + 1)] for row in live]

    prev = [0] * (bound + 1)  # 0: no register
    for (lit, w), row in zip(items, s):
        for j in range(1, bound + 1):  # prefix sums only grow
            if prev[j] and row[j]:
                clauses.append((-prev[j], row[j]))
        for j in range(1, w + 1):
            if row[j]:
                clauses.append((-lit, row[j]))
        for j in range(1, bound + 1 - w):
            if prev[j] and row[j + w]:
                clauses.append((-prev[j], -lit, row[j + w]))
        if prev[bound + 1 - w]:
            clauses.append((-prev[bound + 1 - w], -lit))
        prev = row
    return clauses


def at_least(selectors: Sequence[int], k: int, alloc: VarAllocator) -> list[tuple[int, ...]]:
    """Clauses enforcing sum(selectors) >= k: at most len - k are false."""
    return weighted_at_most([(-y, 1) for y in selectors], len(selectors) - k, alloc)


# ---------------------------------------------------------------------------
# forest implicant encoding


@dataclass(frozen=True)
class ImplicantCnf:
    """CNF H built for a term t: a term extending t over the feature
    variables implies the forest iff H together with its literals is
    unsatisfiable, so H alone is unsatisfiable iff t does.

    Each selector guards the clausal form of one negated tree, and a
    cardinality constraint demands that more trees be falsified than the
    majority can spare, so H's models are exactly the counterexamples
    extending t.  A tree t implies has no selector; under the empty
    term, selectors[i] guards forest.trees[i].  Built without its path
    clauses, H is the frame that ForestSatOracle completes clause by
    clause.
    """

    cnf: CnfInstance
    selectors: tuple[int, ...]


def path_clause(selector: int, path: Sequence[int]) -> tuple[int, ...]:
    """The clause that selector's tree does not reach the 1-leaf at the
    end of path, its literals in ascending variable order."""
    return (-selector,) + tuple(sorted((-l for l in path), key=abs))


def implicant_test_cnf(
    forest: RandomForest, term: Term = Term(), paths: bool = True
) -> ImplicantCnf:
    """Build the refutation CNF for exact forest implicant tests on the
    extensions of term (none given: every assignment).

    The forest decides 0 exactly when fewer than forest.majority trees
    vote 1, that is when at least m - majority + 1 of its m trees are
    falsified; the bound holds for odd and even m alike.  Under term's
    literals (unit clauses) each tree gets a clause per reachable 1-path
    over the free variables (path_clause), and a tree term implies gets
    no selector: with fewer selectors left than the bound, the bound is
    the empty clause.  The empty term keeps one on constant trees too,
    so the search's encoding is the full one.  paths=False leaves out
    the path clauses and, under the empty term, walks no tree.
    """
    n = forest.var_count
    assign = term.to_array(n)
    alloc = VarAllocator(n)
    selectors = []
    clauses: list[tuple[int, ...]] = [(l,) for l in term]
    for tree in forest.trees:
        reached = list(tree.paths(assign)) if paths or term else []
        if term and all(label for _, label in reached):
            continue
        y = alloc.fresh()
        selectors.append(y)
        if paths:
            clauses.extend(path_clause(y, lits) for lits, label in reached if label)
    clauses.extend(at_least(selectors, forest.tree_count - forest.majority + 1, alloc))
    return ImplicantCnf(CnfInstance(alloc.top, clauses), tuple(selectors))


@dataclass(frozen=True)
class WeightedCnf:
    """A Partial MaxSAT problem: mandatory clauses plus weighted soft clauses."""

    hard: CnfInstance
    soft: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        for clause, weight in self.soft:
            if type(weight) is not int or weight < 1:
                raise ValueError(f"a soft weight is a positive int, got {weight!r}")
            _normalize_clause(clause, self.hard.var_count)  # raises on a bad literal
