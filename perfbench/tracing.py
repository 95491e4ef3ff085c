"""Outside-in tracing: wrappers installed around the program's functions.

Each target is a public function or method of one module (the layer).
A wrapped call either records a span (name, start, end, parent span,
request id, self time, a few size attributes) or, for hot calls, only
adds to its counters; hot calls still count as children of the
enclosing span, so self times add up.  Self time is a call's duration
minus the durations of the traced calls made inside it.

Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    name: str  # layer.function, the prefix of its metrics
    module: str
    attr: str  # "function" or "Class.method"
    hot: bool = False
    note: Callable | None = None  # (tracer, args, result) -> {counter: amount}


def _accepts(tracer, args, result):
    oracle, term = args[0], args[1]
    if "cli.validate_reason" in tracer.open_spans or len(term) >= oracle.var_count:
        return {}
    return {"removals": 1, "kept": int(bool(result))}


def _implicant_cnf(tracer, args, result):
    return {"vars": result.cnf.var_count, "clauses": result.cnf.clause_count}


def _wcnf(tracer, args, result):
    return {"vars": result.hard.var_count, "clauses": result.hard.clause_count}


def _clauses(tracer, args, result):
    return {"clauses": len(result)}


def _solve(tracer, args, result):
    return {result.status.value: 1}


def _maxsat(tracer, args, result):
    return {"iterations": result.iterations, "optimal": int(result.optimal)}


TARGETS = (
    Target("models.load_forest", "rfreasons.models", "load_forest"),
    Target("cli.compute_reason", "rfreasons.cli", "compute_reason"),
    Target("cli.validate_reason", "rfreasons.cli", "validate_reason"),
    Target("explain.accepts", "rfreasons.explain", "MajorityOracle.accepts", hot=True, note=_accepts),
    Target("explain.accepts", "rfreasons.explain", "ForestSatOracle.accepts", hot=True, note=_accepts),
    Target("core.implied_by", "rfreasons.core", "DecisionTree.implied_by", hot=True),
    Target("core.negated", "rfreasons.core", "RandomForest.negated"),
    Target("encodings.implicant_test_cnf", "rfreasons.encodings", "implicant_test_cnf", note=_implicant_cnf),
    Target("encodings.weighted_at_most", "rfreasons.encodings", "weighted_at_most", note=_clauses),
    Target("optimize.majority_wcnf", "rfreasons.optimize", "majority_wcnf", note=_wcnf),
    Target("solver.init", "rfreasons.solver", "SatSolver.__init__"),
    Target("solver.solve", "rfreasons.solver", "SatSolver.solve", note=_solve),
    Target("maxsat.maxsat_anytime", "rfreasons.maxsat", "maxsat_anytime", note=_maxsat),
)


class Tracer:
    """Owns the wrappers, counters and spans of one traced phase."""

    def __init__(self):
        self.spans: list[dict] = []
        # name -> counter -> amount; every name has calls, ms and self_ms
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.open_spans: list[str] = []
        self._frames: list[list[float]] = [[0.0]]  # child time of each open call
        self._span_ids: list[int | None] = [None]
        self._request: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            module = importlib.import_module(t.module)
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(t, getattr(owner, attr)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(t, original)
            # the function is also bound under its name in every module
            # that imported it
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "rfreasons" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        frames = self._frames
        counter = self.counters[target.name]
        note = target.note
        tracer = self

        if target.hot:
            def hot(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    took = perf_counter() - start
                    frames.pop()
                    frames[-1][0] += took
                    counter["calls"] += 1
                    counter["ms"] += took * 1e3
                    counter["self_ms"] += (took - frame[0]) * 1e3
                    if note is not None:
                        for k, v in note(tracer, args, result).items():
                            counter[k] += v

            return hot

        def spanned(*args, **kwargs):
            span = tracer._open(target.name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = note(tracer, args, result) if note and result is not None else {}
                tracer._close(span, extra)

        return spanned

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._span_ids[-1],
            "request": self._request,
            "name": name,
            "start": perf_counter(),
        }
        self.spans.append(span)
        self._span_ids.append(span["id"])
        self.open_spans.append(name)
        self._frames.append([0.0])
        return span

    def _close(self, span: dict, extra: dict) -> None:
        end = perf_counter()
        took = end - span["start"]
        child = self._frames.pop()[0]
        self._frames[-1][0] += took
        self._span_ids.pop()
        self.open_spans.pop()
        span["end"] = end
        span["self_ms"] = (took - child) * 1e3
        span.update(extra)
        c = self.counters[span["name"]]
        c["calls"] += 1
        c["ms"] += took * 1e3
        c["self_ms"] += span["self_ms"]
        for k, v in extra.items():
            c[k] += v

    def request(self, k: int, call: Callable):
        """Run one request under a root span named "request"."""
        self._request = k
        span = self._open("request")
        try:
            return call()
        finally:
            self._close(span, {})
            self._request = None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
