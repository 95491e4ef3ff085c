"""Exhaustive-enumeration oracles for testing the fast paths.

Everything here walks all 2^n assignments (or all subsets of an instance
term), independently of the SAT machinery, and is meant for small n.
Truth tables are numpy bool arrays indexed by the assignment read as a
little-endian bit string: bit i-1 of the index is the value of x_i.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from rfreasons.core import DecisionTree, Instance, RandomForest, Term, normalize
from rfreasons.explain import Prioritization

DEFAULT_VAR_LIMIT = 16


class VarLimitExceeded(ValueError):
    """The model is too wide for exhaustive enumeration."""


def _check_width(n: int, var_limit: int) -> None:
    if n > var_limit:
        raise VarLimitExceeded(f"{n} variables exceed the enumeration limit {var_limit}")


def truth_table_tree(tree: DecisionTree, var_limit: int = DEFAULT_VAR_LIMIT) -> np.ndarray:
    _check_width(tree.var_count, var_limit)
    n = tree.var_count
    idx = np.arange(1 << n, dtype=np.int64)

    def walk(i: int) -> np.ndarray:
        var, lo, hi = tree.nodes[i]
        if var == 0:
            return np.full(1 << n, bool(lo))
        bit = ((idx >> (var - 1)) & 1).astype(bool)
        return np.where(bit, walk(hi), walk(lo))

    return walk(tree.root)


def truth_table_forest(forest: RandomForest, var_limit: int = DEFAULT_VAR_LIMIT) -> np.ndarray:
    _check_width(forest.var_count, var_limit)
    votes = sum(
        truth_table_tree(t, var_limit).astype(np.int32) for t in forest.trees
    )
    return votes >= forest.majority


def cover_mask(term: Term, var_count: int) -> np.ndarray:
    """Boolean mask of the assignments covered by the term."""
    idx = np.arange(1 << var_count, dtype=np.int64)
    mask = np.ones(1 << var_count, dtype=bool)
    for lit in term:
        bit = ((idx >> (abs(lit) - 1)) & 1).astype(bool)
        mask &= bit if lit > 0 else ~bit
    return mask


def dnf_terms(tree: DecisionTree) -> tuple[Term, ...]:
    """One term per 1-path; their disjunction is equivalent to the tree."""
    return tuple(Term(lits) for lits, label in tree.paths() if label == 1)


def subset_minimal(clauses: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Of clauses that repeat no literal, those that contain no other
    one, in their order; of equal ones the first.  A term hits them all
    exactly when it hits every clause, so they are the same hitting-set
    instance."""
    kept: list[int] = []
    sets: list[frozenset[int]] = []  # of the kept clauses
    for _, i in sorted(zip(map(len, clauses), range(len(clauses)))):
        s = frozenset(clauses[i])
        if not any(map(s.issuperset, sets)):
            kept.append(i)
            sets.append(s)
    return [clauses[i] for i in sorted(kept)]


def is_implicant_bruteforce(
    model: DecisionTree | RandomForest, term: Term, var_limit: int = DEFAULT_VAR_LIMIT
) -> bool:
    """Does every assignment covered by the term satisfy the model?"""
    table = (
        truth_table_tree(model, var_limit)
        if isinstance(model, DecisionTree)
        else truth_table_forest(model, var_limit)
    )
    return bool(table[cover_mask(term, model.var_count)].all())


def conditional_probability_bruteforce(
    tree: DecisionTree, term: Term, var_limit: int = DEFAULT_VAR_LIMIT
) -> Fraction:
    """Exact proportion of the term's extensions that satisfy the tree."""
    table = truth_table_tree(tree, var_limit)
    mask = cover_mask(term, tree.var_count)
    covered = int(np.count_nonzero(mask))
    good = int(np.count_nonzero(table & mask))
    return Fraction(good, covered)


def count_models_bruteforce(
    tree: DecisionTree, term: Term = Term(), var_limit: int = DEFAULT_VAR_LIMIT
) -> int:
    table = truth_table_tree(tree, var_limit)
    return int(np.count_nonzero(table & cover_mask(term, tree.var_count)))


def _minimal_passing_subsets(
    predicate: Callable[[Term], bool], x: Instance
) -> set[Term]:
    """All subsets of t_x passing the predicate whose single-literal
    shrinkings all fail.

    For a predicate closed under adding literals this is exactly the set
    of subset-minimal passing terms.
    """
    full = Term.of_instance(x)
    lits = full.literals
    n = len(lits)
    passing: dict[int, bool] = {}

    def check(bits: int) -> bool:
        cached = passing.get(bits)
        if cached is None:
            cached = predicate(Term(lits[i] for i in range(n) if bits >> i & 1))
            passing[bits] = cached
        return cached

    out = set()
    for bits in range(1 << n):
        if not check(bits):
            continue
        if any(check(bits & ~(1 << i)) for i in range(n) if bits >> i & 1):
            continue
        out.add(Term(lits[i] for i in range(n) if bits >> i & 1))
    return out


def enumerate_sufficient_reasons(
    forest: RandomForest, x: Instance, var_limit: int = DEFAULT_VAR_LIMIT
) -> set[Term]:
    """All sufficient reasons for x, by exhaustive subset enumeration.

    Negative examples are handled through forest negation, as everywhere
    else in the package.
    """
    forest = normalize(forest, x)
    table = truth_table_forest(forest, var_limit)
    n = forest.var_count

    def implies(term: Term) -> bool:
        return bool(table[cover_mask(term, n)].all())

    return _minimal_passing_subsets(implies, x)


def enumerate_majoritary_reasons(
    forest: RandomForest, x: Instance, var_limit: int = DEFAULT_VAR_LIMIT
) -> set[Term]:
    """All majoritary reasons for x: subset-minimal terms of t_x implying
    strictly more than half the trees (of the negated forest for negative
    examples)."""
    forest = normalize(forest, x)
    tables = [truth_table_tree(t, var_limit) for t in forest.trees]
    n = forest.var_count
    need = forest.majority

    def majority_implicant(term: Term) -> bool:
        mask = cover_mask(term, n)
        votes = 0
        for table in tables:
            if bool(table[mask].all()):
                votes += 1
                if votes >= need:
                    return True
        return False

    return _minimal_passing_subsets(majority_implicant, x)


def deletion_reason_bruteforce(
    forest: RandomForest,
    x: Instance,
    order: Sequence[int] | None = None,
    var_limit: int = DEFAULT_VAR_LIMIT,
    start: Term | None = None,
) -> Term:
    """Plain deletion from start (t_x by default): visit the variables in
    order (descending index by default) and drop each literal whose
    removal leaves an implicant of the normalized forest, decided on its
    truth table."""
    forest = normalize(forest, x)
    table = truth_table_forest(forest, var_limit)
    n = forest.var_count
    term = Term.of_instance(x) if start is None else start
    for var in range(n, 0, -1) if order is None else order:
        candidate = Term(l for l in term if abs(l) != var)
        if len(candidate) < len(term) and table[cover_mask(candidate, n)].all():
            term = candidate
    return term


def prefers(prio: Prioritization, t: Term, other: Term, var_count: int) -> bool:
    """Strict preference: t beats other on the first stratum where their
    projections differ, by strict inclusion; unlisted features form a
    final stratum."""
    rest = frozenset(range(1, var_count + 1)).difference(*prio.strata)
    for stratum in prio.strata + ((rest,) if rest else ()):
        a = frozenset(l for l in t if abs(l) in stratum)
        b = frozenset(l for l in other if abs(l) in stratum)
        if a == b:
            continue
        return a < b
    return False


def read_wcnf(text: str) -> tuple[int, int, list[tuple[int, tuple[int, ...]]]]:
    """(variable count, top weight, [(weight, clause)]) of a WCNF document
    in the 'p wcnf <vars> <clauses> <top>' form, one clause per line."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    p, fmt, var_count, count, top = rows[0]
    assert (p, fmt) == ("p", "wcnf") and all(row[-1] == "0" for row in rows[1:])
    records = [(int(row[0]), tuple(int(t) for t in row[1:-1])) for row in rows[1:]]
    assert len(records) == int(count)
    return int(var_count), int(top), records


def maxsat_optimum_bruteforce(
    var_count: int,
    top: int,
    records: Sequence[tuple[int, tuple[int, ...]]],
    var_limit: int = DEFAULT_VAR_LIMIT,
) -> int | None:
    """Least total weight of soft clauses (weight below top) falsified by
    an assignment satisfying every hard clause; None when none does."""
    _check_width(var_count, var_limit)
    idx = np.arange(1 << var_count, dtype=np.int64)
    hard = np.ones(1 << var_count, dtype=bool)
    cost = np.zeros(1 << var_count, dtype=np.int64)
    for weight, clause in records:
        sat = np.zeros(1 << var_count, dtype=bool)
        for lit in clause:
            bit = ((idx >> (abs(lit) - 1)) & 1).astype(bool)
            sat |= bit if lit > 0 else ~bit
        if weight >= top:
            hard &= sat
        else:
            cost += np.where(sat, 0, weight)
    return int(cost[hard].min()) if hard.any() else None
