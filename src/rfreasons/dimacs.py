"""DIMACS interchange: CNF and DNF readers, and a WCNF writer.

WCNF uses the classic header form "p wcnf <vars> <clauses> <top>" where
hard clauses carry the top weight.
"""

from __future__ import annotations

from typing import Iterable

from .core import InconsistentTermError, Term
from .encodings import WeightedCnf
from .solver import CnfInstance


class DimacsError(ValueError):
    """Parse failure, located by input line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _clause_lines(lines: Iterable[str], var_count: int):
    """Yield (line_no, literals) for clause body lines."""
    pending: list[int] = []
    opened_at = 0  # line of the open record's first token
    for line_no, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        for tok in tokens:
            try:
                value = int(tok)
            except ValueError:
                raise DimacsError(line_no, f"expected an integer, got {tok!r}") from None
            if not pending:
                opened_at = line_no
            if value == 0:
                yield line_no, tuple(pending)
                pending = []
            else:
                if abs(value) > var_count:
                    raise DimacsError(
                        line_no, f"literal {value} exceeds declared variable count {var_count}"
                    )
                pending.append(value)
    if pending:
        raise DimacsError(opened_at, "unterminated clause at end of input")


def _read_records(
    text: str, fmt: str, fields: tuple[str, str]
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Parse the 'p <fmt> <vars> <count>' header and the records after it:
    (variable count, [(line number, literals)]), with the record count
    checked against the header."""
    lines = text.splitlines()
    shape = f"'p {fmt} " + " ".join(f"<{f}>" for f in fields) + "'"
    header = None
    for i, raw in enumerate(lines, 1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] != "p":
            raise DimacsError(i, f"expected {shape} header")
        if len(tokens) != 2 + len(fields) or tokens[1] != fmt:
            raise DimacsError(i, f"malformed header {raw.strip()!r}")
        try:
            header = tuple(int(t) for t in tokens[2:])
        except ValueError:
            raise DimacsError(i, f"malformed header {raw.strip()!r}") from None
        break
    if header is None:
        raise DimacsError(len(lines) or 1, f"missing 'p {fmt}' header")
    for field, value in zip(fields, header):
        if value < 0:
            raise DimacsError(i, f"header <{field}> must be non-negative, got {value}")
    var_count, declared = header
    records = list(_clause_lines(enumerate(lines[i:], i + 1), var_count))
    if len(records) != declared:
        raise DimacsError(
            i, f"header declares {declared} {fields[1]}, found {len(records)}"
        )
    return var_count, records


def read_dimacs(text: str) -> CnfInstance:
    """Parse the text of a DIMACS CNF document."""
    var_count, records = _read_records(text, "cnf", ("vars", "clauses"))
    return CnfInstance(var_count, [lits for _, lits in records])


def read_dnf(text: str) -> tuple[list[Term], int]:
    """Parse the text of a DIMACS-style DNF document ('p dnf <vars>
    <terms>', one 0-terminated term per record): (terms, variable count)."""
    var_count, records = _read_records(text, "dnf", ("vars", "terms"))
    terms = []
    for line_no, lits in records:
        try:
            terms.append(Term(lits))
        except InconsistentTermError as e:
            raise DimacsError(line_no, str(e)) from None
    return terms, var_count


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

