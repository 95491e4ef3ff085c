"""DIMACS CNF / WCNF interchange.

WCNF uses the classic header form "p wcnf <vars> <clauses> <top>" where
hard clauses carry the top weight.
"""

from __future__ import annotations

from typing import IO, Iterable

from .encodings import WeightedCnf
from .solver import CnfInstance


class DimacsError(ValueError):
    """Parse failure, located by input line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _clause_lines(lines: Iterable[str], start_at: int, var_count: int, weighted: bool):
    """Yield (line_no, weight or None, literals) for clause body lines."""
    pending: list[int] = []
    weight = None
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        for tok in tokens:
            try:
                value = int(tok)
            except ValueError:
                raise DimacsError(line_no, f"expected an integer, got {tok!r}") from None
            if weighted and weight is None and not pending:
                if value < 1:
                    raise DimacsError(line_no, f"clause weight must be positive, got {value}")
                weight = value
                continue
            if value == 0:
                yield line_no, weight, pending
                pending = []
                weight = None
            else:
                if abs(value) > var_count:
                    raise DimacsError(
                        line_no, f"literal {value} exceeds declared variable count {var_count}"
                    )
                pending.append(value)
    if pending or weight is not None:
        raise DimacsError(start_at, "unterminated clause at end of input")


def _read_lines(source: str | IO[str]) -> list[str]:
    if hasattr(source, "read"):
        return source.read().splitlines()
    return str(source).splitlines()


def read_dimacs(source: str | IO[str]) -> CnfInstance:
    """Parse a DIMACS CNF document (text or file object)."""
    lines = _read_lines(source)
    header = None
    body_start = 0
    for i, raw in enumerate(lines, 1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise DimacsError(i, f"malformed header {raw.strip()!r}")
            try:
                header = (int(tokens[2]), int(tokens[3]))
            except ValueError:
                raise DimacsError(i, f"malformed header {raw.strip()!r}") from None
            body_start = i
            break
        raise DimacsError(i, "expected 'p cnf <vars> <clauses>' header")
    if header is None:
        raise DimacsError(len(lines) or 1, "missing 'p cnf' header")
    var_count, declared = header
    clauses = [
        tuple(lits)
        for _, _, lits in _clause_lines(
            enumerate(lines[body_start:], body_start + 1), body_start, var_count, False
        )
    ]
    if len(clauses) != declared:
        raise DimacsError(
            body_start, f"header declares {declared} clauses, found {len(clauses)}"
        )
    return CnfInstance(var_count, clauses)


def write_dimacs(cnf: CnfInstance) -> str:
    out = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    out.extend(" ".join(map(str, c)) + " 0" for c in cnf.clauses)
    return "\n".join(out) + "\n"


def read_wcnf(source: str | IO[str]) -> WeightedCnf:
    """Parse a weighted instance; clauses at the declared top weight are hard."""
    lines = _read_lines(source)
    header = None
    body_start = 0
    for i, raw in enumerate(lines, 1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if len(tokens) != 5 or tokens[1] != "wcnf":
                raise DimacsError(i, f"malformed header {raw.strip()!r}")
            try:
                header = (int(tokens[2]), int(tokens[3]), int(tokens[4]))
            except ValueError:
                raise DimacsError(i, f"malformed header {raw.strip()!r}") from None
            body_start = i
            break
        raise DimacsError(i, "expected 'p wcnf <vars> <clauses> <top>' header")
    if header is None:
        raise DimacsError(len(lines) or 1, "missing 'p wcnf' header")
    var_count, declared, top = header
    hard: list[tuple[int, ...]] = []
    soft: list[tuple[tuple[int, ...], int]] = []
    count = 0
    for line_no, weight, lits in _clause_lines(
        enumerate(lines[body_start:], body_start + 1), body_start, var_count, True
    ):
        count += 1
        if weight >= top:
            hard.append(tuple(lits))
        else:
            soft.append((tuple(lits), weight))
    if count != declared:
        raise DimacsError(body_start, f"header declares {declared} clauses, found {count}")
    return WeightedCnf(CnfInstance(var_count, hard), tuple(soft))


def write_wcnf(problem: WeightedCnf) -> str:
    top = sum(w for _, w in problem.soft) + 1
    out = [
        f"p wcnf {problem.hard.var_count} "
        f"{len(problem.hard.clauses) + len(problem.soft)} {top}"
    ]
    out.extend(
        f"{top} " + " ".join(map(str, c)) + " 0" for c in problem.hard.clauses
    )
    out.extend(f"{w} " + " ".join(map(str, c)) + " 0" for c, w in problem.soft)
    return "\n".join(out) + "\n"

