"""Tests of the benchmark itself: its checker, its metric names and its
determinism.  Run with `python3 -m pytest perfbench` from the repository
root; they take a few seconds."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import Forest, check_reason  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = {
    "majoritary": Workload("tiny-majoritary", "majoritary", 10, 5, 4, 0.1, pool=2, permutations=3),
    "sufficient": Workload("tiny-sufficient", "sufficient", 10, 5, 4, 0.1, pool=2),
    "minimal-majoritary": Workload("tiny-minimal", "minimal-majoritary", 10, 5, 4, 0.1, pool=2, budget=60.0),
}


@pytest.fixture
def small_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_REQUESTS", 12)
    monkeypatch.setattr(run, "TRACE_MIN_REQUESTS", 6)


def served(kind: str, tmp_path: Path, count: int = 12):
    """A tiny run's first requests, answered by the program."""
    r = run.Run(TINY[kind], 3, tmp_path)
    r.setup(1)
    outcomes, _ = r.loop(0.0, count)
    assert all(o.error is None for o in outcomes)
    return r, outcomes


@pytest.mark.parametrize("kind", sorted(TINY))
def test_program_output_passes(kind, tmp_path):
    r, outcomes = served(kind, tmp_path)
    assert r.check(outcomes) == []


@pytest.mark.parametrize("kind", ["majoritary", "minimal-majoritary"])
def test_dropped_literal_fails(kind, tmp_path):
    r, outcomes = served(kind, tmp_path)
    nonempty = [o for o in outcomes if o.term]
    assert nonempty
    for o in nonempty:
        o.term = o.term[1:]
    assert len(r.check(outcomes)) == len(nonempty)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_flipped_literal_fails(kind, tmp_path):
    r, outcomes = served(kind, tmp_path)
    nonempty = [o for o in outcomes if o.term]
    assert nonempty
    for o in nonempty:
        o.term = (-o.term[0],) + o.term[1:]
    assert len(r.check(outcomes)) == len(nonempty)


def test_raised_request_fails(tmp_path):
    r, outcomes = served("sufficient", tmp_path)
    outcomes[0].term, outcomes[0].error = None, "RuntimeError: boom"
    assert r.check(outcomes) == ["request 0: RuntimeError: boom"]


# one tree computing x1 and x2
AND_DOC = {
    "var_count": 3,
    "trees": [
        {"var": 1, "low": {"leaf": 0},
         "high": {"var": 2, "low": {"leaf": 0}, "high": {"leaf": 1}}}
    ],
}


def test_sufficient_check_finds_a_counterexample():
    # dropping x2 leaves a term whose farthest extension sets x2 = 0
    f = Forest(AND_DOC)
    x = (1, 1, 0)
    assert check_reason(f, x, (1, 2), 1, "sufficient", random.Random(0)) is None
    assert check_reason(f, x, (1,), 1, "sufficient", random.Random(0)) is not None
    assert check_reason(f, x, (1, 2), 0, "sufficient", random.Random(0)) is not None


def test_budget_cut_reason_need_not_be_minimal():
    f = Forest(AND_DOC)
    x = (1, 1, 1)
    rng = random.Random(0)
    assert check_reason(f, x, (1, 2, 3), 1, "minimal-majoritary", rng, finished=False) is None
    assert check_reason(f, x, (1, 2, 3), 1, "minimal-majoritary", rng) is not None
    assert check_reason(f, x, (1,), 1, "minimal-majoritary", rng, finished=False) is not None


def declared(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_smoke_end_to_end_metrics(kind, tmp_path, small_runs):
    out = run.measure(TINY[kind], 1, 0.05, False, tmp_path)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the report names every metric with its unit, failed_rate included
    for name, unit in {**got, "failed_rate": "fraction"}.items():
        assert any(l.startswith(f"{name} = ") and f" {unit}" in l for l in out["report"]), name
    assert any(l.startswith("failed_rate = 0.0000 ") for l in out["report"])


@pytest.mark.parametrize("kind", sorted(TINY))
def test_smoke_per_layer_metrics(kind, tmp_path, small_runs):
    out = run.measure(TINY[kind], 1, 0.05, True, tmp_path)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if kind == "sufficient":
        assert metrics["encodings.implicant_test_cnf.calls"] == 2
        assert metrics["solver.solve.calls"] > 0
    if kind == "minimal-majoritary":
        assert metrics["maxsat.iterations"] >= 1
        assert metrics["optimize.majority_wcnf.clauses"] > 0
    if kind == "majoritary":
        assert metrics["core.implied_by.calls"] > 0
        assert metrics["solver.solve.calls"] == 0
    spans = list(tmp_path.glob("spans-*.jsonl"))
    assert len(spans) == 1 and spans[0].read_text()


def test_same_seed_same_digest(tmp_path, small_runs):
    digests = []
    for _ in range(2):
        out = run.measure(TINY["sufficient"], 5, 0.05, False, tmp_path)
        digests.append([l for l in out["report"] if l.startswith("digest")])
    assert digests[0] == digests[1]


def test_tracer_restores_the_program():
    run.import_program()
    from rfreasons import core, explain, optimize

    before = (core.DecisionTree.implied_by, explain.implicant_test_cnf, optimize.maxsat_anytime)
    tracer = Tracer()
    tracer.install()
    assert explain.implicant_test_cnf is not before[1]
    tracer.uninstall()
    assert (core.DecisionTree.implied_by, explain.implicant_test_cnf, optimize.maxsat_anytime) == before
