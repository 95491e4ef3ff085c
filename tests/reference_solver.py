"""The solver as it was before its literal-indexed layout: the reference
that tests/test_solver.py drives step for step beside rfreasons.solver.

SatSolver, _Clause, _luby and _normalize_clause are kept verbatim (one
value per variable behind _value(), watch lists in a dict).  Any
difference in outcomes, models, conflict or decision counts between the
two is a change of the search, not of its speed.
"""

from __future__ import annotations

import heapq
import time
from typing import Sequence

from rfreasons.solver import (
    CnfInstance,
    Deadline,
    SolveOutcome,
    SolveStatus,
    check_literal,
)


def _normalize_clause(lits: Sequence[int]) -> tuple[int, ...] | None:
    """Deduplicate; return None for tautological clauses."""
    seen: dict[int, int] = {}
    out = []
    for lit in lits:
        check_literal(lit)
        if lit in seen:
            continue
        if -lit in seen:
            return None
        seen[lit] = lit
        out.append(lit)
    return tuple(out)


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

    def __init__(self, cnf: CnfInstance | None = None):
        self.var_count = 0
        self._values: list[int] = [0]  # +1 true, -1 false, 0 unassigned
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._watches: dict[int, list[_Clause]] = {}
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
        if cnf is not None:
            self.ensure_vars(cnf.var_count)
            for c in cnf.clauses:  # already normalized and in range
                self._attach(c)

    # -- variable and clause management ------------------------------------

    def new_var(self) -> int:
        self.var_count += 1
        self._values.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches[self.var_count] = []
        self._watches[-self.var_count] = []
        return self.var_count

    def ensure_vars(self, var_count: int) -> None:
        while self.var_count < var_count:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the instance is already refuted."""
        if self._unsat:
            return False
        norm = _normalize_clause(lits)
        if norm is None:
            return True
        for lit in norm:
            if abs(lit) > self.var_count:
                raise ValueError(f"literal {lit} beyond declared variables")
        return self._attach(norm)

    def _attach(self, norm: tuple[int, ...]) -> bool:
        """add_clause after normalization and the range check."""
        if self._unsat:
            return False
        assert not self._trail_lim, "clauses must be added at decision level 0"
        if not self._trail and len(norm) > 1:
            lits = list(norm)  # the root assigns nothing yet: watch it as is
        else:
            lits = [l for l in norm if self._value(l) != -1 or self._level[abs(l)] > 0]
            if any(self._value(l) == 1 and self._level[abs(l)] == 0 for l in norm):
                return True  # satisfied at root
            if not lits:
                self._unsat = True
                return False
            if len(lits) == 1:
                if self._value(lits[0]) == -1:
                    self._unsat = True
                    return False
                if self._value(lits[0]) == 0:
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
        self._watches[clause.lits[0]].append(clause)
        self._watches[clause.lits[1]].append(clause)

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self._values[abs(lit)]
        return v if lit > 0 else -v

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: _Clause | None) -> None:
        var = abs(lit)
        self._values[var] = 1 if lit > 0 else -1
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> _Clause | None:
        """Two-watched-literal unit propagation; returns a conflict or None."""
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            watchers = self._watches[-p]
            i = j = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Make sure the falsified literal sits at position 1.
                if lits[0] == -p:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value(first) == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    if self._value(lits[k]) != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[lits[1]].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if self._value(first) == -1:
                        # conflict: keep remaining watchers in place
                        while i < n:
                            watchers[j] = watchers[i]
                            j += 1
                            i += 1
                        del watchers[j:]
                        return clause
                    self._enqueue(first, clause)
            del watchers[j:]
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _RESCALE:
            for v in range(1, self.var_count + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > _RESCALE:
            for c in self._learnts:
                c.activity *= 1e-100
            self._cla_inc *= 1e-100

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP learning: returns (learnt clause, backjump level)."""
        current = self._decision_level()
        seen = [False] * (self.var_count + 1)
        learnt: list[int] = [0]  # slot 0 takes the asserting literal
        counter = 0
        p = 0
        index = len(self._trail)
        reason: _Clause | None = conflict
        while True:
            assert reason is not None
            if reason.learnt:
                self._bump_clause(reason)
            for q in reason.lits:
                if q == p:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = self._trail[index]
                if seen[abs(p)]:
                    break
            counter -= 1
            seen[abs(p)] = False
            if counter == 0:
                break
            reason = self._reason[abs(p)]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if self._level[abs(learnt[i])] > self._level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            var = abs(lit)
            self._phase[var] = lit > 0
            self._values[var] = _UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

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
        locked = {self._reason[abs(l)] for l in self._trail}
        self._learnts.sort(key=lambda c: c.activity)
        keep_from = len(self._learnts) // 2
        kept = []
        for i, c in enumerate(self._learnts):
            if i >= keep_from or c in locked or len(c.lits) == 2:
                kept.append(c)
            else:
                self._watches[c.lits[0]].remove(c)
                self._watches[c.lits[1]].remove(c)
        self._learnts = kept

    # -- branching --------------------------------------------------------------

    def _pick_branch_var(self) -> int | None:
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self._values[var] == _UNASSIGNED:
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
        if self._unsat:
            return SolveOutcome(SolveStatus.UNSAT)
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.var_count:
                raise ValueError(f"bad assumption literal {lit}")
        if deadline is not None:
            if deadline.expired():
                return SolveOutcome(SolveStatus.TIMEOUT)
            deadline = deadline.at  # the search loop compares clock readings

        self._heap = [
            (-self._activity[v], v)
            for v in range(1, self.var_count + 1)
            if self._values[v] == _UNASSIGNED
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
                if self._decision_level() == 0:
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
                v = self._value(lit)
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
                    model = tuple(self._values[v] == 1 for v in range(1, self.var_count + 1))
                    self._backtrack(0)
                    return SolveOutcome(SolveStatus.SAT, model)
                decision = var if self._phase[var] else -var
            self._decisions += 1
            if deadline is not None and self._decisions % 512 == 0:
                if time.monotonic() > deadline:
                    self._backtrack(0)
                    return SolveOutcome(SolveStatus.TIMEOUT)
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)
