"""Boolean decision trees and majority-vote random forests.

Trees are read-once binary trees over variables x1..xn stored in an
index-based node arena.  All objects in this module are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

from .solver import check_literal


class DimensionError(ValueError):
    """Instance length does not match the model's variable count."""


class InconsistentTermError(ValueError):
    """A variable occurs with both polarities in a term."""


class ModelFormatError(ValueError):
    """A tree or forest violates a structural invariant."""


Instance = Sequence[int]


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    """A consistent conjunction of signed-int literals (DIMACS convention),
    sorted by variable.

    Terms double as partial assignments and, when they mention every
    variable, as instances.  Equality is structural.
    """

    literals: tuple[int, ...] = ()

    def __init__(self, literals: Iterable[int] = ()):
        lits = sorted({check_literal(l) for l in literals}, key=abs)
        for a, b in zip(lits, lits[1:]):
            if a == -b:
                raise InconsistentTermError(f"x{abs(a)} occurs with both polarities")
        object.__setattr__(self, "literals", tuple(lits))

    @classmethod
    def of_instance(cls, x: Instance) -> "Term":
        """The full term t_x fixing every variable to its value in x."""
        return cls(v if b else -v for v, b in enumerate(x, 1))

    def to_array(self, var_count: int) -> list[bool | None]:
        """A list indexed by variable, None where free (slot 0 unused)."""
        top = abs(self.literals[-1]) if self.literals else 0  # sorted by variable
        array: list[bool | None] = [None] * (max(var_count, top) + 1)
        for l in self.literals:
            array[abs(l)] = l > 0
        return array

    @classmethod
    def from_array(cls, array: Sequence[bool | None]) -> "Term":
        """Inverse of to_array."""
        return cls(v if b else -v for v, b in enumerate(array) if b is not None)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.literals)

    def restrict_to(self, variables: Iterable[int]) -> "Term":
        keep = set(variables)
        return Term(l for l in self.literals if abs(l) in keep)

    def covers(self, x: Instance) -> bool:
        """Does x satisfy every literal?  False when the term mentions a
        variable beyond x."""
        return all(
            abs(l) <= len(x) and bool(x[abs(l) - 1]) == (l > 0) for l in self.literals
        )

    def to_ints(self) -> tuple[int, ...]:
        """The literals; the benchmark harness reads reasons through this."""
        return self.literals

    def render(self, feature_names: Sequence[str] | None = None) -> str:
        if not self.literals:
            return "⊤"

        def name(var: int) -> str:
            return feature_names[var - 1] if feature_names is not None else f"x{var}"

        return " ∧ ".join(name(l) if l > 0 else f"¬{name(-l)}" for l in self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# decision trees

# Node layout: (var, low, high) with var >= 1 for internal nodes, where
# low/high are arena indices for the value-0/value-1 child; leaves are
# (0, label, label), the two tuples of _LEAVES shared by every tree built
# or flipped here.
_Node = tuple[int, int, int]
_LEAVES: tuple[_Node, _Node] = ((0, 0, 0), (0, 1, 1))


@dataclass(frozen=True)
class DecisionTree:
    """A read-once binary decision tree over var_count Boolean variables."""

    var_count: int
    nodes: tuple[_Node, ...]
    root: int

    def __post_init__(self):
        if self.var_count < 0:
            raise ModelFormatError("negative variable count")
        if not 0 <= self.root < len(self.nodes):
            raise ModelFormatError("root index out of range")
        self._validate()

    def _validate(self):
        # Read-once check along every root-to-leaf path, plus index sanity.
        stack = [(self.root, frozenset())]
        while stack:
            i, on_path = stack.pop()
            if not 0 <= i < len(self.nodes):
                raise ModelFormatError(f"child index {i} out of range")
            var, lo, hi = self.nodes[i]
            if var == 0:
                if lo not in (0, 1) or lo != hi:
                    raise ModelFormatError(f"bad leaf {self.nodes[i]!r}")
                continue
            if not 0 < var <= self.var_count:
                raise ModelFormatError(
                    f"node tests variable {var} but the tree has {self.var_count} variables"
                )
            if var in on_path:
                raise ModelFormatError(f"x{var} repeats on a root-to-leaf path")
            if lo == i or hi == i:
                raise ModelFormatError("node is its own child")
            nxt = on_path | {var}
            stack.append((lo, nxt))
            stack.append((hi, nxt))

    @classmethod
    def leaf(cls, label: int, var_count: int = 0) -> "DecisionTree":
        """A constant tree."""
        return cls(var_count, (_LEAVES[bool(label)],), 0)

    @classmethod
    def from_nested(cls, node: dict, var_count: int) -> "DecisionTree":
        """Build from nested records {"var": i, "low": ..., "high": ...} with
        {"leaf": 0|1} at the leaves."""
        nodes: list[_Node] = []

        def build(rec) -> int:
            if not isinstance(rec, dict):
                raise ModelFormatError(f"expected a node record, got {rec!r}")
            if "leaf" in rec:
                if type(rec["leaf"]) is not int or rec["leaf"] not in (0, 1):
                    raise ModelFormatError(f"leaf label must be 0 or 1, got {rec['leaf']!r}")
                nodes.append(_LEAVES[rec["leaf"]])
                return len(nodes) - 1
            try:
                var = rec["var"]
                if type(var) is not int or var < 1:
                    raise ModelFormatError(
                        f"node variable must be a positive integer, got {var!r}"
                    )
                lo = build(rec["low"])
                hi = build(rec["high"])
            except KeyError as e:
                raise ModelFormatError(f"node record missing {e.args[0]!r}") from None
            nodes.append((var, lo, hi))
            return len(nodes) - 1

        root = build(node)
        return cls(var_count, tuple(nodes), root)

    def to_nested(self) -> dict:
        """Inverse of from_nested."""

        def emit(i: int) -> dict:
            var, lo, hi = self.nodes[i]
            if var == 0:
                return {"leaf": lo}
            return {"var": var, "low": emit(lo), "high": emit(hi)}

        return emit(self.root)

    def evaluate(self, x: Instance) -> int:
        if len(x) != self.var_count:
            raise DimensionError(
                f"instance has {len(x)} values, tree expects {self.var_count}"
            )
        var, lo, hi = self.nodes[self.root]
        while var:
            var, lo, hi = self.nodes[hi if x[var - 1] else lo]
        return lo

    def negated(self) -> "DecisionTree":
        """Same structure, already validated, with every leaf label flipped."""
        nodes = tuple(node if node[0] else _LEAVES[1 - node[1]] for node in self.nodes)
        flipped = object.__new__(DecisionTree)
        flipped.__dict__.update(var_count=self.var_count, nodes=nodes, root=self.root)
        return flipped

    def paths(self, assign: Sequence[bool | None] = ()) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (path literals as signed ints, leaf label) for every
        root-to-leaf path; given a partial assignment in Term.to_array
        form, for every path it leaves reachable, over the free variables."""
        stack = [(self.root, ())]
        while stack:
            i, lits = stack.pop()
            var, lo, hi = self.nodes[i]
            if var == 0:
                yield lits, lo
            elif assign and assign[var] is not None:
                stack.append((hi if assign[var] else lo, lits))
            else:
                stack.append((hi, lits + (var,)))
                stack.append((lo, lits + (-var,)))

    def path_term(self, x: Instance) -> Term:
        """The term of the unique root-to-leaf path compatible with x."""
        if len(x) != self.var_count:
            raise DimensionError(
                f"instance has {len(x)} values, tree expects {self.var_count}"
            )
        lits = []
        var, lo, hi = self.nodes[self.root]
        while var:
            value = bool(x[var - 1])
            lits.append(var if value else -var)
            var, lo, hi = self.nodes[hi if value else lo]
        return Term(lits)

    def cnf_clauses(self) -> tuple[tuple[int, ...], ...]:
        """One signed-int clause per 0-path (the negation of the path
        term), its literals in ascending variable order.

        The conjunction of the clauses is equivalent to the tree; a
        read-once path mentions each variable once, so no clause is
        tautological.
        """
        return tuple(
            tuple(sorted((-l for l in lits), key=abs))
            for lits, label in self.paths()
            if label == 0
        )

    def disagreement_masks(self, x: Instance) -> list[int]:
        """Per 0-path, the variables it tests against the complete
        instance x as an int mask (bit v for x_v), subset-minimal ones
        only, in cnf_clauses order; [0] when x reaches a 0-leaf.  A term
        within t_x implies the tree exactly when it meets each one.  The
        walk follows x first, so where two paths part, the later one goes
        against x and its mask is not within the earlier's; it skips a
        subtree once its mask contains one found."""
        nodes, width = self.nodes, self.var_count + 1
        found: list[int] = []
        paths: list[int] = []  # a 1, then the branch bits (high = 1)
        stack = [(self.root, 0, 1)]
        while stack:
            i, mask, path = stack.pop()
            for m in found:
                if m & mask == m:
                    break
            else:
                var, lo, hi = nodes[i]
                while var:
                    up = 1 if x[var - 1] else 0
                    path = path << 1 | up
                    stack.append(((hi, lo)[up], mask | 1 << var, path ^ 1))
                    var, lo, hi = nodes[(lo, hi)[up]]
                if lo == 0:
                    found.append(mask)
                    paths.append(path << width - path.bit_length())  # left-aligned
        return [m for _, m in sorted(zip(paths, found))]

    def implied_by(self, term: Term) -> bool:
        """Exact implicant test: does every extension of term reach a 1-leaf?"""
        return self.explore((self.root,), term.to_array(self.var_count)) is not None

    def explore(
        self, starts: Iterable[int], assign: Sequence[bool | None]
    ) -> dict[int, list[int]] | None:
        """Walk the subtrees at the node indices starts under a partial
        assignment in Term.to_array form.  None when a 0-leaf is reachable;
        otherwise the children the assignment closes, grouped by the fixed
        variable their parent tests: freeing that variable opens just
        those, and a read-once subtree never tests its parent's variable."""
        nodes = self.nodes
        stack = list(starts)
        closed: dict[int, list[int]] = {}
        while stack:
            var, lo, hi = nodes[stack.pop()]
            if var == 0:
                if lo == 0:
                    return None
                continue
            fixed = assign[var]
            if fixed is None:
                stack.append(lo)
                stack.append(hi)
            else:
                stack.append(hi if fixed else lo)
                closed.setdefault(var, []).append(lo if fixed else hi)
        return closed

    def reach(self, starts: Iterable[tuple[int, tuple[int, ...]]], assign: Sequence[bool | None]):
        """explore with paths and no early stop: walk the subtrees at
        (node index, literals from the root to it) pairs under a partial
        assignment in Term.to_array form.  Returns the literals of each
        path to a 1-leaf reached, the children the assignment closes,
        each with its path, grouped by the fixed variable their parent
        tests, and whether a 0-leaf is reachable."""
        nodes = self.nodes
        stack = list(starts)
        ones: list[tuple[int, ...]] = []
        closed: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        zero = False
        while stack:
            i, path = stack.pop()
            var, lo, hi = nodes[i]
            if var == 0:
                if lo:
                    ones.append(path)
                else:
                    zero = True
                continue
            fixed = assign[var]
            if fixed is None:
                stack.append((hi, path + (var,)))
                stack.append((lo, path + (-var,)))
            elif fixed:
                stack.append((hi, path + (var,)))
                closed.setdefault(var, []).append((lo, path + (-var,)))
            else:
                stack.append((lo, path + (-var,)))
                closed.setdefault(var, []).append((hi, path + (var,)))
        return ones, closed, zero

    def count_models(self, term: Term = Term()) -> int:
        """Exact number of assignments extending term that reach a 1-leaf:
        each 1-leaf path reachable under term (see paths) weighs 2 to the
        number of free variables it leaves untested.  Integer arithmetic
        throughout.
        """
        assign = term.to_array(self.var_count)
        if len(assign) > self.var_count + 1:
            raise DimensionError("term mentions a variable beyond the tree's range")
        free = self.var_count - len(term)
        return sum(1 << (free - len(lits)) for lits, label in self.paths(assign) if label)


def mask_variables(mask: int) -> Iterator[int]:
    """The variables whose bits are set in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def clause_to_tree(clause: Iterable[int], var_count: int) -> DecisionTree:
    """Linear-size tree equivalent to a clause of signed-int literals.

    The empty clause yields the constant-0 tree and a tautological clause
    the constant-1 tree.  Duplicate literals collapse, and the rest are
    consumed in ascending variable order, each adding one decision node
    whose satisfied branch is a 1-leaf.
    """
    lits = {check_literal(l) for l in clause}
    if any(-l in lits for l in lits):
        return DecisionTree.leaf(1, var_count)
    nodes: list[_Node] = [_LEAVES[0]]
    for lit in sorted(lits, key=abs, reverse=True):
        current, one = len(nodes) - 1, len(nodes)
        nodes.append(_LEAVES[1])
        nodes.append((lit, current, one) if lit > 0 else (-lit, one, current))
    return DecisionTree(var_count, tuple(nodes), len(nodes) - 1)


# ---------------------------------------------------------------------------
# random forests


@dataclass(frozen=True)
class RandomForest:
    """A non-empty ensemble of trees voting by strict majority."""

    trees: tuple[DecisionTree, ...]
    feature_names: tuple[str, ...] | None = None

    def __init__(
        self,
        trees: Iterable[DecisionTree],
        feature_names: Sequence[str] | None = None,
    ):
        trees = tuple(trees)
        if not trees:
            raise ModelFormatError("a forest needs at least one tree")
        n = trees[0].var_count
        if any(t.var_count != n for t in trees):
            raise ModelFormatError("all trees must share the variable count")
        if feature_names is not None:
            feature_names = tuple(feature_names)
            if len(feature_names) != n:
                raise ModelFormatError(
                    f"{len(feature_names)} feature names for {n} variables"
                )
            if len(set(feature_names)) < n:
                raise ModelFormatError("feature names must be distinct")
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "feature_names", feature_names)

    @property
    def var_count(self) -> int:
        return self.trees[0].var_count

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    @property
    def majority(self) -> int:
        """Votes needed to win: strictly more than half the trees."""
        return len(self.trees) // 2 + 1

    def evaluate(self, x: Instance) -> int:
        return 1 if sum(t.evaluate(x) for t in self.trees) >= self.majority else 0

    def negated(self) -> "RandomForest":
        """A forest computing the complement function.

        Flipping every leaf complements the majority vote only when the
        tree count is odd; an even ensemble first gets padded with a
        constant tree so that tied votes (which the original maps to 0)
        come out as 1 after negation.  Built on the first call and kept
        with the forest, outside its fields (a pickled forest carries
        it); two threads racing on the first call build equal forests.
        """
        negation = self.__dict__.get("_negation")
        if negation is None:
            flipped = [t.negated() for t in self.trees]
            if len(self.trees) % 2 == 0:
                flipped.append(DecisionTree.leaf(1, self.var_count))
            negation = RandomForest(flipped, self.feature_names)
            object.__setattr__(self, "_negation", negation)
        return negation

    def single(self) -> DecisionTree:
        if len(self.trees) != 1:
            raise ModelFormatError("expected a single-tree forest")
        return self.trees[0]


Model = TypeVar("Model", DecisionTree, RandomForest)


def normalize(model: Model, x: Instance) -> Model:
    """The model for a positive example, the negated model for a
    negative one.

    Every explainer works on the normalized model, which classifies x
    positively; this is how negative classifications are explained
    without dual-casing any algorithm.  model is a DecisionTree or a
    RandomForest, and the result has the same type.
    """
    return model if model.evaluate(x) == 1 else model.negated()


def cnf_to_forest(
    clauses: Sequence[Sequence[int]],
    var_count: int,
    feature_names: Sequence[str] | None = None,
) -> RandomForest:
    """Forest equivalent to the conjunction of p >= 1 signed-int clauses.

    Uses 2p-1 trees: one per clause plus p-1 constant-0 trees, so the
    majority passes exactly when every clause tree accepts.
    """
    p = len(clauses)
    if p < 1:
        raise ValueError("need at least one clause")
    trees = [clause_to_tree(c, var_count) for c in clauses]
    trees.extend(DecisionTree.leaf(0, var_count) for _ in range(p - 1))
    return RandomForest(trees, feature_names)


def dnf_to_forest(
    terms: Sequence[Term], var_count: int, feature_names: Sequence[str] | None = None
) -> RandomForest:
    """Forest equivalent to the disjunction of the terms.

    Dual construction: negate term-wise into clauses, build the clause
    forest, negate the forest.  An empty disjunction is constantly 0.
    """
    if not terms:
        return RandomForest([DecisionTree.leaf(0, var_count)], feature_names)
    negated = [[-l for l in t] for t in terms]
    return cnf_to_forest(negated, var_count, feature_names).negated()
