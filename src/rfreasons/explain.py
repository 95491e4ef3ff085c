"""Reasons explaining tree and forest classifications.

The greedy explainers all share one shape: start from the instance term
(the sufficient reason from a majoritary one), try to drop literals in
some order, keep a drop whenever the remaining term still passes an
implicant oracle.  Oracles encapsulate what "implicant" means: of a
strict majority of trees (of the tree itself in a one-tree forest), of
the forest function (via the SAT encoding), or probabilistically.

A negative classification is always explained by negating the model
first (core.normalize); no algorithm here is dual-cased.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from threading import Lock
from typing import Callable, Iterable, Iterator, Sequence

from .core import DecisionTree, Instance, RandomForest, Term, mask_variables, normalize
from .encodings import ImplicantCnf, implicant_test_cnf, path_clause
from .solver import Deadline, SatSolver, SolveStatus

DEFAULT_SEED = 42
# greedy orders tried for the minimal kinds' first upper bound and for the
# sufficient search's seed: on 256 requests on 20-variable, 15-tree forests
# of depth 6, the greedy reason missed the optimum 59 times with 5 orders,
# 4 with 20 and 1 with 50, but 50 orders cost more time than the extra
# MaxSAT searches they save
GREEDY_ORDERS = 20
MAJORITARY_ORDERS = 50  # majoritary_reason_multi's, and stats' for majoritary
CLIMB_FLIPS = 8  # ForestSatOracle's local search, per drop
# seeded_orders, per (n, seed): covers MAJORITARY_ORDERS and the
# GREEDY_ORDERS of the minimal kinds and of sufficient_reason_rf's seed
ORDERS_KEPT = 64
ORDER_KEYS_KEPT = 16  # (n, seed) keys seeded_orders keeps at once


class NotAnImplicantError(ValueError):
    """The starting term already fails the oracle."""


class ReasonKind(str, Enum):
    DIRECT = "direct"
    SUFFICIENT = "sufficient"
    MAJORITARY = "majoritary"
    MINIMAL_MAJORITARY = "minimal_majoritary"
    MINIMAL_WEIGHT = "minimal_weight"
    MINIMAL_SUFFICIENT = "minimal_sufficient"
    APPROX_MINIMAL = "approx_minimal"
    DELTA_PROBABLE = "delta_probable"
    COMPREHENSIBLE = "comprehensible"
    INCLUSION_PREFERRED = "inclusion_preferred"
    LIME = "lime"


@dataclass(frozen=True)
class Reason:
    """An explanation term for one classified instance.

    The term always covers the instance it explains.  cost carries the
    objective value of the minimal kinds (size or total feature weight),
    optimal says whether that value was proved minimal, and extras holds
    kind-specific diagnostics (conditional probability, anytime log,
    fallback flags).  elapsed is the request's wall time in seconds, set
    by the pipeline (cli.compute_reason); library calls leave it at 0.0.
    """

    term: Term
    kind: ReasonKind
    instance: tuple[int, ...]
    cost: int | None = None
    optimal: bool = False
    elapsed: float = 0.0
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "instance", tuple(int(v) for v in self.instance))
        if not self.term.covers(self.instance):
            raise ValueError(
                f"reason {self.term} does not cover its instance {self.instance}"
            )

    @property
    def size(self) -> int:
        return len(self.term)

    def render(self, feature_names: Sequence[str] | None = None) -> str:
        return self.term.render(feature_names)


# ---------------------------------------------------------------------------
# implicant oracles


class ImplicantOracle:
    """Decides whether a term counts as an implicant in some sense.

    monotone means closed under adding literals, which lets the greedy
    loop stop after a single elimination pass.  timed_out is set once a
    deadline made the oracle reject a query it could not decide.
    """

    monotone = True
    timed_out = False
    var_count: int

    def accepts(self, term: Term) -> bool:
        raise NotImplementedError

    def accepts_shrunk(self, assign: list[bool | None], var: int) -> bool:
        """accepts on the last accepted term less its literal on var, given
        in its Term.to_array form; the greedy loop asks only this."""
        return self.accepts(Term.from_array(assign))


class MajorityOracle(ImplicantOracle):
    """Implicant of strictly more than half the trees of a forest; on a
    one-tree forest, the exact implicant test of its tree.

    accepts walks each tree once (DecisionTree.explore) and keeps, for
    each tree the term implies, the children it closes, grouped by
    variable; a drop of v explores only v's group, and an accepted one
    adds the children it closes.  This serves single orders;
    best_of_orders runs many on masks.
    """

    def __init__(self, forest: RandomForest):
        self.forest = forest
        self.var_count = forest.var_count
        self.majority = forest.majority
        # tree index -> closed children by variable, for each tree the
        # last accepted term implies
        self._state: dict[int, dict[int, list[int]]] = {}

    def accepts(self, term: Term) -> bool:
        assign = term.to_array(self.var_count)
        state = {}
        for i, tree in enumerate(self.forest.trees):
            closed = tree.explore((tree.root,), assign)
            if closed is not None:
                state[i] = closed
        if len(state) < self.majority:
            return False
        self._state = state
        return True

    def accepts_shrunk(self, assign: list[bool | None], var: int) -> bool:
        # dropping a literal never makes a tree implied: only live ones can break
        state, trees = self._state, self.forest.trees
        spare = len(state) - self.majority
        opened = {}
        for i in [i for i, closed in state.items() if var in closed]:
            found = opened[i] = trees[i].explore(state[i][var], assign)
            if found is None and (spare := spare - 1) < 0:
                return False
        for i, found in opened.items():
            if found is None:
                del state[i]
                continue
            closed = state[i]
            del closed[var]
            for u, group in found.items():
                closed.setdefault(u, []).extend(group)
        return True


class ForestSatOracle(ImplicantOracle):
    """Exact implicant test for the forest function via SAT calls against
    its implicant encoding; owns its solver session and reuses learnt
    clauses across queries.

    A removal costs at most one SAT call.  A refused one yields a
    counterexample that recursive model rotation (Belov & Marques-Silva,
    FMCAD 2011) turns into more necessary literals with one walk of the
    forest, _flip_gains, the walk that scores the climb's flips below:
    their removals are then refused without the solver.  A literal
    necessary in a term stays necessary in every subterm keeping it, so
    the answers are those of plain deletion.

    Before the call, a hill-climb over the term's free variables (local
    search in the manner of WalkSAT: Selman, Kautz & Cohen, AAAI 1994)
    looks for the counterexample.  It starts from the last one, restored
    on its own dropped variable and so an extension of the last accepted
    term, with the newly dropped variable flipped.  It scores only the
    trees that can change: those open under the last accepted term and
    the implied ones with a child closed at a node testing the dropped
    variable; every other tree votes 1 on any extension.  Each move
    flips the free variable on the path of a tree voting 1 that most
    lowers the 1-votes, the lower index on ties; an equal move is
    allowed, but not on the variable just flipped.  A climb ends at a
    local minimum or after CLIMB_FLIPS flips, a constant.  One that
    finds nothing runs once more from the opposite corner, its start
    complemented on every free variable but the dropped one: a climb
    stalls on plateaus near the last counterexample, and that corner
    holds most of what it misses.  Then the solver decides.  A refusal
    needs the certificate forest.evaluate(z) == 0 on a point z that
    extends the term, so it is exact, and the same input makes the
    same moves.

    Each SAT call assumes the term's literals, then the negated selector
    of every tree the term implies, found by traversal.  No extension of
    the term falsifies such a tree, so these assumptions remove no model
    and leave every answer as it was; they spare the search the work of
    finding that out, and the counter forces the remaining selectors by
    unit propagation.

    The encoding is lazy (lazy clause generation: Ohrimenko, Stuckey &
    Codish, Constraints 2009): the first query loads selectors and
    counter (paths=False), one selector per tree in forest order; then,
    before each query and each once, the path clauses of the 1-paths its
    term leaves reachable in the trees it does not imply.  The others
    are satisfied under the query's assumptions, so every answer and
    learnt clause is the full encoding's.

    One walk (DecisionTree.reach) per tree serves both: a fresh accepts
    walks each tree from its root, and the oracle keeps, per tree, the
    children the last accepted term closes, with their paths, and while
    that term implies the tree, the 1-paths it reached.  A drop of v
    walks only the children closed at nodes testing v, since freeing a
    variable no reachable node tests changes nothing; a tree it opens
    loads its stored 1-paths and the new ones.

    Once the deadline has passed it rejects every query, since it never
    accepts a term it has not proved, and sets timed_out; the climb
    checks it before each flip and then leaves the query to the solver.
    """

    def __init__(self, forest: RandomForest, deadline: Deadline | None = None):
        self.forest = forest
        self.var_count = forest.var_count
        self.deadline = deadline
        self.encoding: ImplicantCnf | None = None  # built at the first query
        self.session: SatSolver | None = None
        self.necessary: set[int] = set()  # variables the current term must keep
        self.counterexample: tuple[bool, ...] | None = None  # of the last refusal
        self._loaded: set[tuple[int, ...]] = set()  # the path clauses in the session
        # per tree under the last accepted term: (selector, tree, closed
        # (child, path) groups by variable, the 1-paths reached while the
        # term implies the tree, None once it does not)
        self._states: list = []
        self._extension: list[bool] = []  # of the last accepted term

    def accepts(self, term: Term) -> bool:
        """One SAT call on any term, which starts afresh."""
        self.necessary.clear()
        assign = term.to_array(self.var_count)
        self._extension = [bool(b) for b in assign[1:]]
        return self._query(assign, None)

    def _query(self, assign: list[bool | None], dropped: int | None) -> bool:
        """The SAT call on the term assign.  dropped names the variable
        whose literal it lacks from the last accepted term; None: walk
        every tree from its root."""
        if self.session is None:
            enc = self.encoding = implicant_test_cnf(self.forest, Term(), paths=False)
            self.session = SatSolver(enc.cnf)
            self._states = [(y, t, {}, None) for y, t in zip(enc.selectors, self.forest.trees)]
            dropped = None
        # the literals in ascending variable order, as Term.literals has them
        assumed = [v if b else -v for v, b in enumerate(assign) if b is not None]
        states, clauses, loaded = [], [], self._loaded
        for y, tree, closed, ones in self._states:
            if dropped is None:
                starts, closed, ones = ((tree.root, ()),), {}, []
            else:
                starts = closed.get(dropped)
            if starts:
                closed = {u: group for u, group in closed.items() if u != dropped}
                found, opened, zero = tree.reach(starts, assign)
                for u, group in opened.items():
                    closed[u] = closed.get(u, []) + group
                if ones is not None and not zero:
                    ones = ones + found
                else:  # the tree is open: load its reachable 1-paths
                    for path in found if ones is None else ones + found:
                        clause = path_clause(y, path)
                        if clause not in loaded:
                            loaded.add(clause)
                            clauses.append(clause)
                    ones = None
            if ones is not None:
                assumed.append(-y)
            states.append((y, tree, closed, ones))
        if clauses:
            self.session.add_clauses(clauses)
        outcome = self.session.solve(assumptions=assumed, deadline=self.deadline)
        if outcome.status is SolveStatus.TIMEOUT:
            self.timed_out = True
        self.counterexample = outcome.model if outcome.status is SolveStatus.SAT else None
        if outcome.status is SolveStatus.UNSAT:
            self._states = states
            return True
        return False

    def accepts_shrunk(self, assign: list[bool | None], var: int) -> bool:
        if var in self.necessary:
            return False  # proved by an earlier counterexample
        # two starts, each an extension of the term: the last counterexample
        # restored, with var flipped, then with every free variable flipped
        first = list(self._extension)
        first[var - 1] = not first[var - 1]
        second = [not b if assign[u] is None else b for u, b in enumerate(self._extension, 1)]
        z = self._climb(assign, var, first) or self._climb(assign, var, second)
        if z is not None:
            self.counterexample = z
        elif self._query(assign, var):
            return True
        if self.counterexample is not None:
            self._rotate(assign, var, self.counterexample)
        return False

    def _climb(self, assign: list[bool | None], var: int, z: list[bool]) -> tuple[bool, ...] | None:
        """An extension of the term assign that the forest rejects, found
        by at most CLIMB_FLIPS flips of the free variables of the start
        point z, an extension of assign that it flips in place, or None."""
        states, deadline = self._states, self.deadline
        # a tree the last accepted term implies stays implied, and votes 1,
        # unless a node testing var closes one of its children; unscored is
        # the 1-votes of the trees left out less the majority
        trees = [tree for _, tree, closed, ones in states if ones is None or var in closed]
        unscored = len(states) - len(trees) - self.forest.majority
        free = [b is None for b in assign]
        last = 0
        for flips in range(CLIMB_FLIPS + 1):
            votes, gain = _flip_gains(trees, z, free)
            if votes + unscored < 0:
                return tuple(z) if self.forest.evaluate(z) == 0 else None
            if flips == CLIMB_FLIPS or deadline is not None and deadline.expired():
                return None
            g, last = min(((g, u) for u, g in gain.items() if u != last), default=(1, 0))
            if g > 0:
                return None  # every move adds a 1-vote
            z[last - 1] = not z[last - 1]

    def _rotate(self, assign: list[bool | None], var: int, model: tuple[bool, ...]) -> None:
        """Mark var necessary in the term assign plus var, and with it every
        other term variable u that the counterexample proves so: restored
        on var, the model extends the term, and flipped on u it is again
        a counterexample when the forest votes 0 on it.  Recursing from
        that point would restore u and reach the same point again, so one
        pass marks all that recursive model rotation would.  The model
        restored on var is the next climb's start.  _flip_gains, the
        climb's walk, scores every flip at once."""
        self.necessary.add(var)
        z = self._extension = list(model[: self.var_count])
        z[var - 1] = not z[var - 1]
        kept = [b is not None and u not in self.necessary for u, b in enumerate(assign)]
        votes, gain = _flip_gains(self.forest.trees, z, kept)
        spare = votes - self.forest.majority  # the 1-votes z can lose
        self.necessary.update(u for u, g in gain.items() if -g > spare)


def _flip_gains(
    trees: Sequence[DecisionTree], z: list[bool], flippable: list[bool]
) -> tuple[int, dict[int, int]]:
    """The 1-votes of trees on the point z, and gain[u], how a flip of u
    changes them, for each u with flippable[u] true on z's path in a tree
    voting 1; a flip of any other variable loses no 1-vote.  flippable
    is indexed by variable, as Term.to_array is.  A tree is read-once,
    so a flip of u changes its vote only below the node on z's path that
    tests u: a walk from that node's other child gives the new vote."""
    votes, walked, gain = 0, [], {}
    for tree in trees:  # z's path, with the other child of each flippable node
        nodes = tree.nodes
        u, lo, hi = nodes[tree.root]
        path = []
        while u:
            if z[u - 1]:
                lo, hi = hi, lo
            if flippable[u]:
                path.append((u, hi))
            u, lo, hi = nodes[lo]
        votes += lo
        walked.append((nodes, lo, path))
        if lo:
            for u, _ in path:
                gain[u] = 0
    for nodes, label, path in walked:
        for u, other in path:
            if u in gain:
                w, lo, hi = nodes[other]
                while w:
                    w, lo, hi = nodes[hi if z[w - 1] else lo]
                gain[u] += lo - label
    return votes, gain


class DeltaProbableOracle(ImplicantOracle):
    """Accepts terms whose extensions satisfy the tree with proportion at
    least delta.

    The test is exact: model counts are integers and delta is handled as
    a rational, so no floating point enters the accept decision.  Not
    monotone, so greedy runs to a fixpoint.
    """

    monotone = False

    def __init__(self, tree: DecisionTree, delta: float | Fraction | str):
        delta = Fraction(delta)
        if not 0 <= delta <= 1:
            raise ValueError(f"delta must be within [0, 1], got {delta}")
        self.tree = tree
        self.var_count = tree.var_count
        self.delta = delta

    def accepts(self, term: Term) -> bool:
        return self.probability(term) >= self.delta

    def probability(self, term: Term) -> Fraction:
        return Fraction(
            self.tree.count_models(term), 1 << (self.tree.var_count - len(term))
        )


def oracle_for_instance(
    forest: RandomForest,
    x: Instance,
    notion: str = "majority",
    deadline: Deadline | None = None,
) -> ImplicantOracle:
    """The search oracle of the implicant notion "majority" or
    "sufficient" (exact) on the polarity-normalized forest.  A one-tree
    forest has majority 1, so its exact test is the majority oracle's
    traversal; otherwise it takes SAT calls, the only ones the deadline
    reaches."""
    if notion not in ("majority", "sufficient"):
        raise ValueError(f"unknown implicant notion {notion!r}")
    forest = normalize(forest, x)
    if notion == "sufficient" and forest.tree_count > 1:
        return ForestSatOracle(forest, deadline)
    return MajorityOracle(forest)


# ---------------------------------------------------------------------------
# greedy elimination


def default_order(var_count: int) -> tuple[int, ...]:
    """Stable default elimination order: descending feature index."""
    return tuple(range(var_count, 0, -1))


def _eliminate(oracle: ImplicantOracle, assign: list, order: Sequence[int]) -> None:
    """Drop literals from assign, in place and in order, while the oracle
    accepts; the oracle's last accepted term is the one in assign."""
    while True:
        changed = False
        for var in order:
            value = assign[var] if 0 < var < len(assign) else None
            if value is None:
                continue
            assign[var] = None
            if oracle.accepts_shrunk(assign, var):
                changed = True
            else:
                assign[var] = value
        if oracle.monotone or not changed:
            return


def greedy_reason(
    oracle: ImplicantOracle,
    x: Instance,
    order: Sequence[int] | None,
    kind: ReasonKind,
    *,
    extras: dict | None = None,
    seed_term: Term | None = None,
) -> Reason:
    """Shrink t_x, or seed_term (a term covering x), literal by literal
    in order (None: default_order) while the oracle keeps accepting; the
    result is a reason of the given kind.

    The result passes the oracle and no single-literal removal does,
    unless the oracle's deadline cut the search short: the result is then
    the last term the oracle accepted (the start term when it accepted
    none), with extras["fallback"] = "timeout".  So when the oracle can
    time out, seed_term must be an implicant proved by other means;
    t_x is one for any normalized model.  Raises NotAnImplicantError
    when the start term itself is rejected.
    """
    full = Term.of_instance(x) if seed_term is None else seed_term
    if not full.covers(x):
        raise ValueError("seed term must cover the instance")
    if oracle.accepts(full):
        assign = full.to_array(oracle.var_count)
        _eliminate(
            oracle, assign, default_order(oracle.var_count) if order is None else order
        )
        term = Term.from_array(assign)
    elif oracle.timed_out:
        term = full  # an implicant, as the caller guarantees
    else:
        raise NotAnImplicantError(
            "the start term fails the oracle; is the polarity normalized?"
        )
    extras = dict(extras or {})
    if oracle.timed_out:
        extras["fallback"] = "timeout"
    return Reason(term, kind, tuple(x), extras=extras)


# ---------------------------------------------------------------------------
# the reason family


def direct_reason(forest: RandomForest, x: Instance) -> Reason:
    """Conjunction of the root-to-leaf path terms of the trees that agree
    with the vote on x; linear in the size of the forest."""
    prediction = forest.evaluate(x)
    lits: set[int] = set()
    for tree in forest.trees:
        if tree.evaluate(x) == prediction:
            lits.update(tree.path_term(x))
    return Reason(Term(lits), ReasonKind.DIRECT, tuple(x))


def sufficient_reason_rf(
    forest: RandomForest,
    x: Instance,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
) -> Reason:
    """A prime implicant of the forest function covering x.

    Deletion (Izza & Marques-Silva, IJCAI 2021) starts from a greedy
    majoritary reason, found by traversals alone: it implies a strict
    majority of the trees, so it fixes the vote and is an implicant, and
    deletion from any implicant covering x ends in a prime one.  With no
    order, the seed is the smallest over GREEDY_ORDERS seeded orders
    (best_of_orders, on masks) and deletion runs in default_order; given
    one, both passes run in it and keep the literals of the variables it
    leaves out.  The seed search is bounded and takes no deadline.  Each
    candidate removal then costs at most one SAT call with assumptions,
    which also rule out falsifying the trees the candidate implies, a
    fact the traversals settle and the search then need not; recursive
    model rotation proves most necessary literals without a call, and a
    capped hill-climb from two starts, certified by forest evaluation,
    refuses most of the other refused drops before the call (see
    ForestSatOracle).  The second pass takes the exact oracle of
    oracle_for_instance: on a one-tree forest that is the majority test
    the seed is already minimal under, so every drop is refused.  A
    deadline that passes first returns the last term the SAT oracle
    accepted, the seed when it accepted none (see greedy_reason).
    """
    forest = normalize(forest, x)
    if order is None:
        masks = [t.disagreement_masks(x) for t in forest.trees]
        seed, _ = best_of_orders(masks, x, GREEDY_ORDERS, DEFAULT_SEED)
    else:
        seed = greedy_reason(MajorityOracle(forest), x, order, ReasonKind.SUFFICIENT).term
    oracle = oracle_for_instance(forest, x, "sufficient", deadline)
    return greedy_reason(oracle, x, order, ReasonKind.SUFFICIENT, seed_term=seed)


def majoritary_reason(
    forest: RandomForest, x: Instance, order: Sequence[int] | None = None
) -> Reason:
    """Greedy majoritary reason under one elimination order: one
    traversal per tree for t_x, then each candidate literal explores only
    the subtrees its drop opens (see MajorityOracle); worst case a whole
    tree per (literal, tree) pair."""
    return greedy_reason(
        oracle_for_instance(forest, x, "majority"), x, order, ReasonKind.MAJORITARY
    )


def majoritary_reason_multi(
    forest: RandomForest,
    x: Instance,
    permutations: int = MAJORITARY_ORDERS,
    seed: int = DEFAULT_SEED,
    deadline: Deadline | None = None,
) -> Reason:
    """Smallest majoritary reason over uniformly random elimination
    orders, deterministic for a fixed seed (see best_of_orders).  A
    deadline that passes before the last order starts leaves the best of
    the orders run, t_x when none ran, with extras["fallback"] =
    "timeout"."""
    if permutations < 1:
        raise ValueError("need at least one permutation")
    masks = [t.disagreement_masks(x) for t in normalize(forest, x).trees]
    term, complete = best_of_orders(masks, x, permutations, seed, deadline)
    return Reason(
        Term.of_instance(x) if term is None else term,
        ReasonKind.MAJORITARY,
        tuple(x),
        extras={} if complete else {"fallback": "timeout"},
    )


@lru_cache(maxsize=ORDER_KEYS_KEPT)
def _kept(n: int, seed: int) -> tuple[list[tuple[int, ...]], random.Random, Lock]:
    """The orders of (n, seed) drawn so far, the generator that drew
    them, and the lock held to draw the next (see seeded_orders)."""
    return [], random.Random(seed), Lock()


def seeded_orders(n: int, seed: int) -> Iterator[tuple[int, ...]]:
    """The seeded elimination orders of the variables 1..n: the list
    [1, ..., n] shuffled in place again and again by one
    random.Random(seed), each order as its shuffle leaves it.

    The process keeps the first ORDERS_KEPT orders of each (n, seed) in
    _kept, an LRU cache of ORDER_KEYS_KEPT keys, and draws each of them
    once, under the key's lock, when an iterator first asks for it; an
    iterator draws the orders past them live, from a private copy of the
    generator's state after them.  No order is drawn before it is asked
    for.
    """
    kept, rng, lock = _kept(n, seed)
    for k in range(ORDERS_KEPT):
        with lock:
            if k == len(kept):
                order = list(kept[-1] if kept else range(1, n + 1))
                rng.shuffle(order)
                kept.append(tuple(order))
        yield kept[k]
    live = random.Random()
    with lock:
        live.setstate(rng.getstate())
    order = list(kept[-1])
    while True:
        live.shuffle(order)
        yield tuple(order)


def best_of_orders(
    masks: Sequence[Sequence[int]],
    x: Instance,
    permutations: int,
    seed: int,
    deadline: Deadline | None = None,
    weight: Callable[[int], int] | None = None,
) -> tuple[Term | None, bool]:
    """The lightest greedy majoritary reason over seeded random
    elimination orders, ties to the earlier order; weight(v) prices a
    kept literal on v (None: 1 each).  masks holds the normalized trees'
    disagreement_masks under x.  Dropping v breaks a tree still implied
    when one of its masks meets the term at v alone; bit sets over all
    the masks find those trees in a few integer operations per drop.
    The orders are seeded_orders(len(x), seed), kept once per process,
    so many requests on one feature count share their draws.  The
    deadline is checked before each order, before it is drawn: returns
    the lightest reason of the orders run (None when none ran) and
    whether all ran.
    """
    n, implied = len(x), [tm for tm in masks if 0 not in tm]
    # the implied trees' masks, numbered: column[v] has the bit of each
    # one holding v, tree[j] those of mask j's tree, and plane[k] bit k
    # of each one's count of term variables less one
    column, tree, plane = [0] * (n + 1), [], [0] * n.bit_length()
    for tree_masks in implied:
        bits = ((1 << len(tree_masks)) - 1) << len(tree)
        for m in tree_masks:
            for v in mask_variables(m):
                column[v] |= 1 << len(tree)
            for k in mask_variables(m.bit_count() - 1):
                plane[k] |= 1 << len(tree)
            tree.append(bits)
    orders = seeded_orders(n, seed)
    best, best_cost, complete = None, 0, True
    for _ in range(permutations):
        if deadline is not None and deadline.expired():
            complete = False
            break
        base = next(orders)
        term, live, counts = (1 << n + 1) - 2, (1 << len(tree)) - 1, list(plane)
        shared, spare = reduce(or_, plane, 0), len(implied) - len(masks) // 2 - 1
        for v in base:
            if alone := column[v] & live & ~shared:  # masks v alone meets break their trees
                if not spare:
                    continue
                dead, breaks = 0, 0
                while alone and breaks <= spare:
                    bits = tree[(alone & -alone).bit_length() - 1]
                    dead, alone, breaks = dead | bits, alone & ~bits, breaks + 1
                if breaks > spare:
                    continue
                live, spare = live & ~dead, spare - breaks
            term ^= 1 << v
            borrow = column[v] & live  # the counts of the masks holding v drop by one
            for k, bits in enumerate(counts):
                counts[k], borrow = bits ^ borrow, borrow & ~bits
                if not borrow:
                    break
            shared = reduce(or_, counts, 0)  # the masks the term meets twice or more
        cost = term.bit_count() if weight is None else sum(map(weight, mask_variables(term)))
        if best is None or cost < best_cost:
            best, best_cost = term, cost
    term = None if best is None else Term(l for l in Term.of_instance(x) if best >> abs(l) & 1)
    return term, complete


def delta_probable_reason_dt(
    tree: DecisionTree,
    x: Instance,
    delta: float | Fraction | str,
    order: Sequence[int] | None = None,
) -> Reason:
    """Greedy delta-probable reason for a single tree.

    The oracle compares exact model counts against delta as a rational;
    elimination repeats until no single literal can be dropped, since the
    probabilistic test is not monotone.
    """
    oracle = DeltaProbableOracle(normalize(tree, x), delta)
    reason = greedy_reason(oracle, x, order, ReasonKind.DELTA_PROBABLE)
    return replace(
        reason,
        extras={
            "delta": oracle.delta,
            "probability": oracle.probability(reason.term),
        },
    )


def comprehensible_reason(
    forest: RandomForest, x: Instance, intelligible: Iterable[int], notion: str
) -> Reason | None:
    """A reason under the implicant notion (see oracle_for_instance)
    restricted to literals over the intelligible features, or None when
    no such reason exists.

    Restricting t_x to the intelligible features gives the inclusion-
    largest candidate, so the rejection test is exact.  It takes no
    deadline: a first check cut short would read as "no comprehensible
    reason exists".
    """
    keep = set(intelligible)
    if not keep <= set(range(1, forest.var_count + 1)):
        raise ValueError("intelligible features out of range")
    order = tuple(v for v in default_order(forest.var_count) if v in keep)
    try:
        return greedy_reason(
            oracle_for_instance(forest, x, notion),
            x,
            order,
            ReasonKind.COMPREHENSIBLE,
            extras={"intelligible": tuple(sorted(keep)), "notion": notion},
            seed_term=Term.of_instance(x).restrict_to(keep),
        )
    except NotAnImplicantError:
        return None


@dataclass(frozen=True)
class Prioritization:
    """Ordered partition of features into salience strata, least salient
    first; features left out form an implicit final stratum."""

    strata: tuple[frozenset[int], ...]

    def __init__(self, strata: Iterable[Iterable[int]]):
        frozen = tuple(frozenset(s) for s in strata)
        if any(not s for s in frozen):
            raise ValueError("strata must be non-empty")
        seen: set[int] = set()
        for s in frozen:
            if s & seen:
                raise ValueError("strata must be pairwise disjoint")
            seen |= s
        object.__setattr__(self, "strata", frozen)

    def elimination_order(self, var_count: int) -> tuple[int, ...]:
        """Strata in declared order, ascending index inside each; unlisted
        features last."""
        order: list[int] = []
        for s in self.strata:
            order.extend(sorted(s))
        listed = set(order)
        order.extend(v for v in range(1, var_count + 1) if v not in listed)
        return tuple(order)


def inclusion_preferred_reason(
    forest: RandomForest,
    x: Instance,
    prioritization: Prioritization,
    notion: str,
    deadline: Deadline | None = None,
) -> Reason:
    """Greedy reason under the implicant notion (see oracle_for_instance)
    that tries hardest to drop the least salient features: elimination
    follows the strata in order, ascending feature index inside a
    stratum."""
    return greedy_reason(
        oracle_for_instance(forest, x, notion, deadline),
        x,
        prioritization.elimination_order(forest.var_count),
        ReasonKind.INCLUSION_PREFERRED,
        extras={"notion": notion},
    )


# ---------------------------------------------------------------------------
# linear threshold models


@dataclass(frozen=True)
class LinearModel:
    """A linear threshold classifier: positive iff weights . x > 0."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights: Iterable[float | Fraction | str]):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in weights))

    @property
    def var_count(self) -> int:
        return len(self.weights)

    def evaluate(self, x: Instance) -> int:
        score = sum(w for w, v in zip(self.weights, x) if v)
        return 1 if score > 0 else 0


def lime_linear_reason(model: LinearModel, x: Instance) -> Reason:
    """Minimal sufficient reason of a linear threshold model covering x.

    Positive case: take positive weights in decreasing order until their
    sum beats the total negative mass; the picked variables form the
    reason.  The negative case runs the same procedure on the negated
    weights, where a tie already counts as negative.  Ties between
    weights break on ascending feature index.  When the cumulative procedure cannot
    reach the bound, or picks a variable whose value in x disagrees, the
    full instance term is returned with a fallback flag in extras.
    """
    if len(x) != model.var_count:
        raise ValueError("instance length does not match the weight vector")
    prediction = model.evaluate(x)
    weights = [w if prediction == 1 else -w for w in model.weights]
    pool = sorted(
        ((w, i + 1) for i, w in enumerate(weights) if w > 0),
        key=lambda p: (-p[0], p[1]),
    )
    bound = -sum(w for w in weights if w < 0)
    if prediction == 1:
        exceed = lambda total: total > bound
    else:
        exceed = lambda total: total >= bound

    picked: list[int] = []
    total = Fraction(0)
    for w, var in pool:
        if exceed(total):
            break
        picked.append(var)
        total += w

    fallback = None
    if not exceed(total):
        fallback = "bound_unreachable"
    elif any(x[v - 1] != 1 for v in picked):
        fallback = "selection_not_covering"
    if fallback is not None:
        term = Term.of_instance(x)
    else:
        term = Term(picked)
    return Reason(
        term,
        ReasonKind.LIME,
        tuple(x),
        optimal=fallback is None,
        extras={"fallback": fallback} if fallback else {},
    )
