"""Conflict-driven clause-learning SAT solver with assumptions.

A small CDCL engine: two-watched-literal propagation, first-UIP clause
learning, activity-based branching with a stable index tie-break, phase
saving, Luby restarts and learnt-clause garbage collection.  A solver
holds the CnfInstance it was built from and the clauses add_clauses
attaches between solves; assumptions are handled as forced first
decisions, so repeated queries under different assumption sets reuse
everything learnt so far.

Literals are signed integers (DIMACS convention) at the interface:
clauses, assumptions and models.  The solver is fully deterministic: no
heuristic is randomized.

Inside, a literal is a non-negative code, MiniSat's (Eén & Sörensson,
SAT 2003): variable v is 2v and its negation 2v+1, so code ^ 1 negates
a literal and code >> 1 is its variable.  Values and watch lists are
lists indexed by code, 2n+2 entries over n variables (codes 0 and 1 are
unused), sized once by the constructor; _val[code] reads a literal's
value (+1, -1 or 0).  Clauses, the trail and learnt clauses hold codes.
The codes are non-negative because CPython 3.11 specializes list reads
at non-negative int indices only.  The clause intake codes clauses
through one lookup table, solve codes its assumptions, and a model is
read back by variable.

The branching heap holds (-activity, variable) entries, so ties go to
the lower variable, and a popped entry whose variable is assigned is
dropped.  Backtracking pushes every variable it unassigns, often an
entry equal to one still in the heap; these copies stay.  Up to an
activity rescale they never change which variable a pop returns, but a
copy keyed before a rescale outranks every later key, so dropping copies
would change the search there, and counting them exactly did not pay
for itself.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Deadline:
    """An absolute time on the monotonic clock.

    A request fixes its deadline once; every layer below it (oracles,
    solver calls, the MaxSAT loop) stops at that same instant instead of
    restarting a clock of its own.
    """

    at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + seconds)

    def expired(self) -> bool:
        return time.monotonic() >= self.at


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one solve call; model is indexed by variable (1-based)."""

    status: SolveStatus
    model: tuple[bool, ...] | None = None


@dataclass(frozen=True)
class CnfInstance:
    """An immutable CNF over variables 1..var_count (auxiliaries included)."""

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, var_count: int, clauses: Iterable[Sequence[int]] = ()):
        normalized = [_normalize_clause(c, var_count) for c in clauses]
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "clauses", tuple(c for c in normalized if c is not None))

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def check_literal(lit: int) -> int:
    """lit itself when it is a literal: a nonzero int, not a bool."""
    if type(lit) is not int or lit == 0:
        raise ValueError(f"a literal is a nonzero int, got {lit!r}")
    return lit


def _normalize_clause(lits: Sequence[int], var_count: int) -> tuple[int, ...] | None:
    """lits as a clause over variables 1..var_count, each literal checked
    and kept at its first occurrence; None for a tautology."""
    c = tuple(lits)
    for lit in c:
        if type(lit) is not int or not -var_count <= lit <= var_count or not lit:
            check_literal(lit)
            raise ValueError(f"literal {lit} exceeds declared variable count {var_count}")
    if len({*map(abs, c)}) < len(c):
        c = tuple(dict.fromkeys(c))
        if len(c) > len({*map(abs, c)}):
            return None  # holds a literal and its negation
    return c


class _Clause:
    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: list[int], learnt: bool = False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


_RESCALE = 1e100
_UNASSIGNED = 0


def _luby(i: int) -> int:
    # i-th element (0-based) of the Luby sequence 1,1,2,1,1,2,4,...
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class SatSolver:
    """One solver session; single-threaded, exclusively owned by its caller."""

    def __init__(self, cnf: CnfInstance):
        n = self.var_count = cnf.var_count
        self._val: list[int] = [_UNASSIGNED] * (2 * n + 2)  # by code: +1 true, -1 false
        self._wl: list[list[_Clause]] = [[] for _ in range(2 * n + 2)]  # by code: watchers
        self._level: list[int] = [0] * (n + 1)
        self._reason: list[_Clause | None] = [None] * (n + 1)
        self._activity: list[float] = [0.0] * (n + 1)
        self._phase: list[int] = [1] * (n + 1)  # saved phase: decide 2v | phase, false first
        self._clauses: list[_Clause] = []
        self._learnts: list[_Clause] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._unsat = False
        self._conflicts = 0
        self._decisions = 0
        self._heap: list[tuple[float, int]] = []
        self._load(cnf.clauses)

    # -- clause intake ---------------------------------------------------------

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Attach clauses over the solver's variables at level 0, between
        solves.  Each literal is checked as CnfInstance checks it, and a
        bad one attaches none of the clauses (ValueError).  A clause only
        removes models, so what was learnt stays valid; one falsified at
        the root makes every later solve UNSAT."""
        n = self.var_count
        self._load([c for c in (_normalize_clause(c, n) for c in clauses) if c is not None])

    def _load(self, clauses: Iterable[tuple[int, ...]]) -> None:
        """The one intake: attach normalized clauses, in range, at the root.
        The constructor passes its CnfInstance's, already normalized."""
        if self._unsat:
            return
        n = self.var_count
        # signed literal -> code: k at k and -k at 2n+1-k (negative indexing)
        code = [0, *range(2, 2 * n + 1, 2), *range(2 * n + 1, 2, -2)].__getitem__
        trail, wl, watched, value = self._trail, self._wl, self._clauses, self._val.__getitem__
        for c in clauses:
            lits = [*map(code, c)]
            # two or more literals, none assigned at the root: watch it as is
            if len(lits) > 1 and not (trail and any(map(value, lits))):
                clause = _Clause(lits)
                watched.append(clause)
                wl[lits[0]].append(clause)
                wl[lits[1]].append(clause)
            elif not self._attach(lits):
                return

    def _attach(self, lits: list[int]) -> bool:
        """Attach a clause of codes at the root, simplified by the root
        assignment; False once the instance is refuted."""
        val = self._val  # every assignment is a root one here
        if any(val[l] == 1 for l in lits):
            return True  # satisfied at root
        lits = [l for l in lits if val[l] != -1]
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        clause = _Clause(lits)
        self._clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: _Clause) -> None:
        self._wl[clause.lits[0]].append(clause)
        self._wl[clause.lits[1]].append(clause)

    # -- assignment helpers --------------------------------------------------

    def _enqueue(self, lit: int, reason: _Clause | None) -> None:
        self._val[lit] = 1
        self._val[lit ^ 1] = -1
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> _Clause | None:
        """Two-watched-literal unit propagation; returns a conflict or None."""
        trail, val, wl = self._trail, self._val, self._wl
        level, reasons = self._level, self._reason
        current = len(self._trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = wl[false_lit]
            i = j = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Make sure the falsified literal sits at position 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if val[first] == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    if val[lits[k]] != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        wl[lits[1]].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if val[first] == -1:
                        # conflict: keep remaining watchers in place
                        while i < n:
                            watchers[j] = watchers[i]
                            j += 1
                            i += 1
                        del watchers[j:]
                        self._qhead = qhead
                        return clause
                    val[first] = 1
                    val[first ^ 1] = -1
                    var = first >> 1
                    level[var] = current
                    reasons[var] = clause
                    trail.append(first)
            del watchers[j:]
        self._qhead = qhead
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > _RESCALE:
            for c in self._learnts:
                c.activity *= 1e-100
            self._cla_inc *= 1e-100

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP learning: returns (learnt clause, backjump level)."""
        trail, level, reasons, activity = self._trail, self._level, self._reason, self._activity
        var_inc = self._var_inc
        current = len(self._trail_lim)
        seen = [False] * (self.var_count + 1)
        learnt: list[int] = [0]  # slot 0 takes the asserting literal
        counter = 0
        p = 0
        index = len(trail)
        reason: _Clause | None = conflict
        while True:
            assert reason is not None
            if reason.learnt:
                self._bump_clause(reason)
            for q in reason.lits:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    activity[var] += var_inc
                    if activity[var] > _RESCALE:
                        for v in range(1, self.var_count + 1):
                            activity[v] *= 1e-100
                        var_inc = self._var_inc = var_inc * 1e-100
                    if level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = trail[index]
                if seen[p >> 1]:
                    break
            counter -= 1
            var = p >> 1
            seen[var] = False
            if counter == 0:
                break
            reason = reasons[var]
        learnt[0] = p ^ 1
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause.
        levels = [level[q >> 1] for q in learnt]
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[i] > levels[max_i]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[max_i]

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail, val, phase, reasons = self._trail, self._val, self._phase, self._reason
        activity, heap, push = self._activity, self._heap, heapq.heappush
        bound = trail_lim[level]
        for lit in reversed(trail[bound:]):
            var = lit >> 1
            phase[var] = lit & 1
            val[lit] = val[lit ^ 1] = _UNASSIGNED
            reasons[var] = None
            push(heap, (-activity[var], var))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    def _record_learnt(self, lits: list[int]) -> None:
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        clause = _Clause(lits, learnt=True)
        self._learnts.append(clause)
        self._bump_clause(clause)
        self._watch(clause)
        self._enqueue(lits[0], clause)

    def _reduce_learnts(self) -> None:
        locked = {self._reason[l >> 1] for l in self._trail}
        self._learnts.sort(key=lambda c: c.activity)
        keep_from = len(self._learnts) // 2
        kept = []
        for i, c in enumerate(self._learnts):
            if i >= keep_from or c in locked or len(c.lits) == 2:
                kept.append(c)
            else:
                self._wl[c.lits[0]].remove(c)
                self._wl[c.lits[1]].remove(c)
        self._learnts = kept

    # -- branching --------------------------------------------------------------

    def _pick_branch_var(self) -> int | None:
        heap, val = self._heap, self._val
        while heap:
            _, var = heapq.heappop(heap)
            if val[var << 1] == _UNASSIGNED:
                return var
        return None

    # -- main search --------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: Deadline | None = None,
    ) -> SolveOutcome:
        """Decide satisfiability under the given assumption literals.

        Returns SAT with a full model, UNSAT, or TIMEOUT once the deadline
        has passed.  The solver is left at decision level 0 with all learnt
        clauses retained.
        """
        for lit in assumptions:
            if abs(check_literal(lit)) > self.var_count:
                raise ValueError(f"bad assumption literal {lit}")
        if self._unsat:
            return SolveOutcome(SolveStatus.UNSAT)
        if deadline is not None:
            if deadline.expired():
                return SolveOutcome(SolveStatus.TIMEOUT)
            deadline = deadline.at  # the search loop compares clock readings
        assumptions = [2 * l if l > 0 else 1 - 2 * l for l in assumptions]

        val, activity = self._val, self._activity
        self._heap = [
            (-activity[v], v)
            for v in range(1, self.var_count + 1)
            if val[v << 1] == _UNASSIGNED
        ]
        heapq.heapify(self._heap)

        if self._propagate() is not None:
            self._unsat = True
            return SolveOutcome(SolveStatus.UNSAT)

        max_learnts = max(1000, 2 * len(self._clauses))
        restart_count = 0
        conflicts_until_restart = 64 * _luby(restart_count)
        conflicts_here = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    self._unsat = True
                    return SolveOutcome(SolveStatus.UNSAT)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if deadline is not None and self._conflicts % 64 == 0:
                    if time.monotonic() > deadline:
                        self._backtrack(0)
                        return SolveOutcome(SolveStatus.TIMEOUT)
                if conflicts_here >= conflicts_until_restart:
                    restart_count += 1
                    conflicts_here = 0
                    conflicts_until_restart = 64 * _luby(restart_count)
                    self._backtrack(0)
                if len(self._learnts) > max_learnts:
                    self._reduce_learnts()
                    max_learnts = int(max_learnts * 1.3)
                continue

            # choose the next decision: pending assumptions first
            decision = None
            failed = False
            for lit in assumptions:
                v = val[lit]
                if v == -1:
                    failed = True
                    break
                if v == 0:
                    decision = lit
                    break
            if failed:
                self._backtrack(0)
                return SolveOutcome(SolveStatus.UNSAT)
            if decision is None:
                var = self._pick_branch_var()
                if var is None:
                    model = tuple(v == 1 for v in val[2 : 2 * self.var_count + 2 : 2])
                    self._backtrack(0)
                    return SolveOutcome(SolveStatus.SAT, model)
                decision = var << 1 | self._phase[var]
            self._decisions += 1
            if deadline is not None and self._decisions % 512 == 0:
                if time.monotonic() > deadline:
                    self._backtrack(0)
                    return SolveOutcome(SolveStatus.TIMEOUT)
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)
