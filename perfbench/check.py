"""Output checks that do not call the library.

The checker reads the model documents the benchmark generated and walks
the trees itself.  Terms are tuples of signed ints (DIMACS literals).
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

Node = tuple[int, int, int]  # (var, low, high); a leaf is (0, label, label)

EXTENSION_SAMPLES = 16


class Forest:
    """Flat copy of a model document: one node list per tree."""

    def __init__(self, doc: dict):
        self.var_count = int(doc["var_count"])
        self.trees = [_flatten(t) for t in doc["trees"]]

    @property
    def nodes(self) -> int:
        return sum(len(t) for t in self.trees)

    def evaluate(self, x: Sequence[int]) -> int:
        votes = sum(_evaluate(t, x) for t in self.trees)
        return 1 if 2 * votes > len(self.trees) else 0

    def implied_trees(self, term: Sequence[int], label: int) -> int:
        """How many trees give `label` on every extension of term."""
        assign = {abs(l): l > 0 for l in term}
        return sum(_implies(t, assign, label) for t in self.trees)

    def votes_needed(self, label: int) -> int:
        """Trees that must vote `label` for the forest to output it; ties
        go to 0, as in the program's polarity-normalized forest."""
        m = len(self.trees)
        return m // 2 + 1 if label == 1 else m - m // 2

    def is_majoritary(self, term: Sequence[int], label: int) -> bool:
        return self.implied_trees(term, label) >= self.votes_needed(label)


def _flatten(root: dict) -> list[Node]:
    nodes: list[Node] = []

    def emit(rec: dict) -> int:
        if "leaf" in rec:
            nodes.append((0, rec["leaf"], rec["leaf"]))
            return len(nodes) - 1
        i = len(nodes)
        nodes.append((0, 0, 0))
        lo = emit(rec["low"])
        hi = emit(rec["high"])
        nodes[i] = (rec["var"], lo, hi)
        return i

    emit(root)
    return nodes


def _evaluate(nodes: list[Node], x: Sequence[int]) -> int:
    var, lo, hi = nodes[0]
    while var:
        var, lo, hi = nodes[hi if x[var - 1] else lo]
    return lo


def _implies(nodes: list[Node], assign: dict[int, bool], label: int) -> bool:
    stack = [0]
    while stack:
        var, lo, hi = nodes[stack.pop()]
        if var == 0:
            if lo != label:
                return False
        elif var in assign:
            stack.append(hi if assign[var] else lo)
        else:
            stack.extend((lo, hi))
    return True


def check_reason(
    forest: Forest,
    x: Sequence[int],
    term: Sequence[int],
    prediction: int | None,
    kind: str,
    rng: random.Random,
    finished: bool = True,
) -> str | None:
    """Return why the reason is wrong, or None when every check passes.

    finished=False marks a reason cut short by its budget: it must still
    be an implicant, but need not be minimal."""
    label = forest.evaluate(x)
    if prediction != label:
        return f"prediction {prediction} but the forest says {label}"
    for l in term:
        if l == 0 or abs(l) > forest.var_count or x[abs(l) - 1] != (l > 0):
            return f"literal {l} does not cover the instance"
    if kind in ("majoritary", "minimal-majoritary"):
        if not forest.is_majoritary(term, label):
            return "term implies no strict majority of the trees"
        for l in term if finished else ():
            if forest.is_majoritary([m for m in term if m != l], label):
                return f"literal {l} can be dropped"
    elif kind == "sufficient":
        fixed = {abs(l) for l in term}
        free = [v for v in range(1, forest.var_count + 1) if v not in fixed]
        # first the extension farthest from x, then random ones
        y = list(x)
        for v in free:
            y[v - 1] = 1 - x[v - 1]
        for s in range(EXTENSION_SAMPLES):
            if s:
                for v in free:
                    y[v - 1] = rng.getrandbits(1)
            if forest.evaluate(y) != label:
                return "an extension of the term changes the prediction"
    else:
        raise ValueError(f"no checks for kind {kind!r}")
    return None


def digest(terms: Sequence[Sequence[int]]) -> str:
    h = hashlib.sha256()
    for t in terms:
        h.update((",".join(map(str, t)) + ";").encode())
    return h.hexdigest()[:16]
