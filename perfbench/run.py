"""Closed-loop explanation benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one thread, one
client: the next request starts when the previous one has returned.  A
request is what `rfreasons explain --json` does once the model is
loaded: compute the reason (`cli.compute_reason`), then re-validate it
against its defining oracle (`cli.validate_reason`).

--trace 0 measures the end-to-end metrics.  --trace 1 runs each request
twice, plain and under the wrappers of tracing.py, and reports the
per-layer metrics plus the tracing overhead; its spans go to
.perfbench_work/.  Times are scaled to a reference machine speed by
calibrate.py.  Every reason is checked afterwards, outside the timed
span, by check.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_MS, Calibration  # noqa: E402
from check import Forest, check_reason, digest  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, instance_stream, write_models  # noqa: E402

MIN_REQUESTS = 100  # p90 needs ten samples beyond it; the digest covers these
TRACE_MIN_REQUESTS = 10
SETUP_REPEATS = 3
CALIBRATE_EVERY = 0.5  # seconds of requests between runs of the speed job
INSTANCES = 4096

E2E_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_rps": "1/s",
    "reason_size_mean": "literals",
    "optimal_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "models.load_forest.ms": "ms",
    "cli.compute_reason.ms": "ms",
    "cli.validate_reason.ms": "ms",
    "cli.validate_reason.share": "fraction",
    "explain.accepts.calls": "count",
    "explain.accepts.accept_ratio": "fraction",
    "core.implied_by.calls": "count",
    "core.implied_by.ms": "ms",
    "core.negated.ms": "ms",
    "encodings.implicant_test_cnf.calls": "count",
    "encodings.implicant_test_cnf.ms": "ms",
    "encodings.implicant_test_cnf.vars": "count",
    "encodings.implicant_test_cnf.clauses": "count",
    "encodings.weighted_at_most.calls": "count",
    "encodings.weighted_at_most.ms": "ms",
    "encodings.weighted_at_most.clauses": "count",
    "optimize.majority_wcnf.ms": "ms",
    "optimize.majority_wcnf.vars": "count",
    "optimize.majority_wcnf.clauses": "count",
    "solver.init.ms": "ms",
    "solver.solve.calls": "count",
    "solver.solve.ms": "ms",
    "solver.solve.ms_per_call": "ms",
    "solver.solve.unsat_ratio": "fraction",
    "solver.solve.timeouts": "count",
    "maxsat.maxsat_anytime.ms": "ms",
    "maxsat.iterations": "count",
    "maxsat.first_model_ms": "ms",
    "maxsat.final_proof_ms": "ms",
    "maxsat.final_proof_share": "fraction",
    "trace.overhead": "ms",
    # self time per request; model loads are set-up, not part of a request
    **{
        f"{name}.self_ms": "ms"
        for name in ["request"] + list(dict.fromkeys(t.name for t in TARGETS))
        if name != "models.load_forest"
    },
    "workload.forests": "count",
    "workload.nodes": "count",
    "workload.trees": "count",
    "workload.vars": "count",
    "workload.negative_share": "fraction",
    "workload.implicant_cnf.vars": "count",
    "workload.implicant_cnf.clauses": "count",
}


@dataclass
class Outcome:
    k: int
    start: float  # perf_counter() at the start
    seconds: float
    term: tuple[int, ...] | None = None
    prediction: int | None = None
    optimal: bool = False  # finished its search within the budget
    error: str | None = None


def import_program():
    src = ROOT / "src"
    if not (src / "rfreasons" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    from rfreasons import cli, encodings, models, optimize

    return cli, encodings, models, optimize


class Run:
    """Inputs, loaded models and the request function of one workload run."""

    def __init__(self, w: Workload, seed: int, work: Path = WORK):
        self.w, self.seed, self.work = w, seed, work
        self.cli, self.encodings, self.models, optimize = import_program()
        self.budget_error = optimize.OptimizationBudgetError
        self.settings = w.settings(self.cli)
        self.paths = write_models(w, seed, work)
        self.docs = [Forest(json.loads(p.read_text())) for p in self.paths]
        self.xs = instance_stream(w, seed, INSTANCES)
        self.forests = []
        self.calibration = Calibration()

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Load every model `repeats` times; (start, seconds) of each load."""
        self.calibration.sample()
        loads = []
        for _ in range(repeats):
            self.forests = []
            for path in self.paths:
                gc.collect()
                start = perf_counter()
                forest = self.models.load_forest(str(path))
                loads.append((start, perf_counter() - start))
                self.forests.append(forest)
        self.calibration.sample()
        return loads

    def request(self, k: int) -> Outcome:
        forest = self.forests[k % len(self.forests)]
        x = self.xs[k % len(self.xs)]
        cli = self.cli
        start = perf_counter()
        try:
            try:
                reason = cli.compute_reason(forest, x, self.settings)
            except self.budget_error as e:
                reason = e.fallback
            cli.validate_reason(forest, reason)
        except Exception as e:  # a failed request is counted, not fatal
            return Outcome(k, start, perf_counter() - start, error=f"{type(e).__name__}: {e}")
        took = perf_counter() - start
        return Outcome(
            k,
            start,
            took,
            reason.term.to_ints(),
            reason.extras.get("prediction"),
            reason.optimal or self.w.budget is None,
        )

    def loop(self, seconds: float, min_requests: int, serve=None):
        """Closed loop calling serve(k) (default: request(k)) for k = 0, 1,
        ... for `seconds` and at least `min_requests` times, with the speed
        job run between requests every CALIBRATE_EVERY seconds.  Returns
        the results and the loop's seconds without the speed job."""
        serve = serve or self.request
        out = []
        spent = 0.0
        start = due = perf_counter()
        deadline = start + seconds
        while len(out) < min_requests or perf_counter() < deadline:
            if perf_counter() >= due:
                spent += self.calibration.sample()
                due = perf_counter() + CALIBRATE_EVERY
            out.append(serve(len(out)))
        return out, perf_counter() - start - spent

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """One line per failed request."""
        failures = []
        for o in outcomes:
            if o.error is None:
                rng = random.Random(f"check/{self.w.name}/{self.seed}/{o.k}")
                why = check_reason(
                    self.docs[o.k % len(self.docs)],
                    self.xs[o.k % len(self.xs)],
                    o.term,
                    o.prediction,
                    self.w.kind,
                    rng,
                    o.optimal,
                )
            else:
                why = o.error
            if why is not None:
                failures.append(f"request {o.k}: {why}")
        return failures

    def properties(self, outcomes: list[Outcome]) -> dict[str, float]:
        """Input properties of this run that a later gain may depend on."""
        cnfs = [self.encodings.implicant_test_cnf(f) for f in self.forests]
        negative = sum(
            self.docs[o.k % len(self.docs)].evaluate(self.xs[o.k % len(self.xs)]) == 0
            for o in outcomes
        )
        return {
            "workload.forests": len(self.docs),
            "workload.nodes": statistics.mean(d.nodes for d in self.docs),
            "workload.trees": self.w.tree_count,
            "workload.vars": self.w.var_count,
            "workload.negative_share": negative / len(outcomes),
            "workload.implicant_cnf.vars": statistics.mean(c.cnf.var_count for c in cnfs),
            "workload.implicant_cnf.clauses": statistics.mean(c.cnf.clause_count for c in cnfs),
        }

    def scaled(self, start: float, seconds: float) -> float:
        """Seconds at the reference machine speed (see calibrate.py)."""
        return seconds * self.calibration.scale_at(start + seconds / 2)

    def latency_ms(self, outcomes: list[Outcome]) -> list[float]:
        return [self.scaled(o.start, o.seconds) * 1e3 for o in outcomes]

    def cleanup(self) -> None:
        for p in self.paths:
            p.unlink(missing_ok=True)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[Outcome], list[str]]:
    loads = run.setup(SETUP_REPEATS)
    outcomes, wall = run.loop(seconds, MIN_REQUESTS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # a second window of loads, after the loop: the machine's speed drifts
    # by up to a quarter from one second to the next, so one burst of
    # loads is not enough for a steady median
    loads += run.setup(SETUP_REPEATS)
    setup_s = statistics.median(run.scaled(start, t) for start, t in loads)
    done = [o for o in outcomes if o.error is None]
    lat = run.latency_ms(outcomes)
    # the loop's wall time with each request's share at reference speed;
    # the rest is the client's own bookkeeping between requests
    busy = sum(o.seconds for o in outcomes)
    scaled_wall = sum(lat) / 1e3 + (wall - busy)
    metrics = {
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_p90": p90(lat),
        "throughput_rps": len(done) / scaled_wall,
        "reason_size_mean": statistics.mean(len(o.term) for o in done) if done else 0.0,
        "optimal_rate": sum(o.optimal for o in done) / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"{len(outcomes)} requests in {wall:.2f} s, setup is the median of "
             f"{len(loads)} loads before and after them"]
    return metrics, outcomes, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[Outcome], list[str]]:
    """Each request runs twice, plain and traced, in alternating order, so
    that drift in machine speed and heap warm-up fall on both sides."""
    run.setup(1)
    tracer = Tracer()

    def traced_request(k: int) -> Outcome:
        tracer.install()
        try:
            return tracer.request(k, lambda: run.request(k))
        finally:
            tracer.uninstall()

    tracer.install()
    try:
        for path in run.paths:
            run.models.load_forest(str(path))
    finally:
        tracer.uninstall()
    def both(k: int) -> tuple[Outcome, Outcome]:
        if k % 2:
            t = traced_request(k)
            return run.request(k), t
        p = run.request(k)
        return p, traced_request(k)

    pairs, _ = run.loop(seconds, TRACE_MIN_REQUESTS, both)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    # per-layer times are sums over many calls; they take the run's
    # median speed factor
    factor = statistics.median(run.calibration.scale_at(o.start + o.seconds / 2) for o in traced)
    metrics = {
        k: v * factor if LAYER_UNITS.get(k) == "ms" else v
        for k, v in layer_metrics(tracer, len(traced)).items()
    }
    metrics["trace.overhead"] = statistics.median(run.latency_ms(traced)) - statistics.median(
        run.latency_ms(plain)
    )
    spans = run.work / f"spans-{run.w.name}-s{run.seed}.jsonl"
    tracer.dump(spans)
    selfs = sorted(
        (c["self_ms"] / len(traced), name)
        for name, c in tracer.counters.items()
        if c["calls"] and name != "models.load_forest"
    )[::-1]
    notes = [
        f"{len(plain)} requests, each run plain and traced",
        f"{len(tracer.spans)} spans written to {os.path.relpath(spans)}",
        "self time, ms per request: " + ", ".join(f"{name} {ms * factor:.2f}" for ms, name in selfs),
    ]
    # the wrappers must not change any output
    for a, b in zip(plain, traced):
        if a.term != b.term:
            b.error = "traced reason differs from the plain one"
    return metrics, plain + traced, notes


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    c = tracer.counters

    def per_request(name, key="ms"):
        return c[name][key] / requests

    def per_call(name, key):
        return c[name][key] / c[name]["calls"] if c[name]["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    solve = c["solver.solve"]
    maxsat = c["maxsat.maxsat_anytime"]
    first_model, final_proof = maxsat_phases(tracer.spans)
    m = {
        "models.load_forest.ms": per_call("models.load_forest", "ms"),
        "cli.compute_reason.ms": per_request("cli.compute_reason"),
        "cli.validate_reason.ms": per_request("cli.validate_reason"),
        "cli.validate_reason.share": ratio(c["cli.validate_reason"]["ms"], c["request"]["ms"]),
        "explain.accepts.calls": per_request("explain.accepts", "calls"),
        "explain.accepts.accept_ratio": ratio(c["explain.accepts"]["kept"], c["explain.accepts"]["removals"]),
        "core.implied_by.calls": per_request("core.implied_by", "calls"),
        "core.implied_by.ms": per_request("core.implied_by"),
        "core.negated.ms": per_request("core.negated"),
        "encodings.implicant_test_cnf.calls": per_request("encodings.implicant_test_cnf", "calls"),
        "encodings.implicant_test_cnf.ms": per_request("encodings.implicant_test_cnf"),
        "encodings.implicant_test_cnf.vars": per_call("encodings.implicant_test_cnf", "vars"),
        "encodings.implicant_test_cnf.clauses": per_call("encodings.implicant_test_cnf", "clauses"),
        "encodings.weighted_at_most.calls": per_request("encodings.weighted_at_most", "calls"),
        "encodings.weighted_at_most.ms": per_request("encodings.weighted_at_most"),
        "encodings.weighted_at_most.clauses": per_request("encodings.weighted_at_most", "clauses"),
        "optimize.majority_wcnf.ms": per_request("optimize.majority_wcnf"),
        "optimize.majority_wcnf.vars": per_call("optimize.majority_wcnf", "vars"),
        "optimize.majority_wcnf.clauses": per_call("optimize.majority_wcnf", "clauses"),
        "solver.init.ms": per_request("solver.init"),
        "solver.solve.calls": per_request("solver.solve", "calls"),
        "solver.solve.ms": per_request("solver.solve"),
        "solver.solve.ms_per_call": per_call("solver.solve", "ms"),
        "solver.solve.unsat_ratio": ratio(solve["unsat"], solve["calls"]),
        "solver.solve.timeouts": per_request("solver.solve", "timeout"),
        "maxsat.maxsat_anytime.ms": per_request("maxsat.maxsat_anytime"),
        "maxsat.iterations": per_call("maxsat.maxsat_anytime", "iterations"),
        "maxsat.first_model_ms": ratio(first_model, maxsat["calls"]),
        "maxsat.final_proof_ms": ratio(final_proof, maxsat["calls"]),
        "maxsat.final_proof_share": ratio(final_proof, maxsat["ms"]),
    }
    for key in LAYER_UNITS:
        if key.endswith(".self_ms"):
            m[key] = per_request(key[: -len(".self_ms")], "self_ms")
    return m


def maxsat_phases(spans: list[dict]) -> tuple[float, float]:
    """Summed ms from each MaxSAT start to its first model, and summed ms
    of the final solve call when it proved optimality (UNSAT)."""
    solves: dict[int, list[dict]] = {}
    for s in spans:
        if s["name"] == "solver.solve" and s["parent"] is not None:
            solves.setdefault(s["parent"], []).append(s)
    first_model = final_proof = 0.0
    for s in spans:
        if s["name"] != "maxsat.maxsat_anytime" or "end" not in s:
            continue
        calls = solves.get(s["id"], [])
        sat = [c for c in calls if c.get("sat")]
        if sat:
            first_model += (sat[0]["end"] - s["start"]) * 1e3
        if calls and calls[-1].get("unsat"):
            final_proof += (calls[-1]["end"] - calls[-1]["start"]) * 1e3
    return first_model, final_proof


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """Run one workload; returns the result object plus report lines."""
    run = Run(w, seed, work)
    try:
        metrics, outcomes, notes = (per_layer if trace else end_to_end)(run, seconds)
        failures = run.check(outcomes)
        props = run.properties(outcomes)
    finally:
        run.cleanup()
    if trace:
        metrics.update(props)
    units = LAYER_UNITS if trace else E2E_UNITS
    lat = [o.seconds * 1e3 for o in outcomes]
    jobs = [t * 1e3 for t in run.calibration.samples]
    first = outcomes[:MIN_REQUESTS]
    counted = {"latency_ms_p50", "latency_ms_p90"}
    report = [
        f"workload {w.name} (kind {w.kind}) seed {seed}, closed loop, 1 client",
        *notes,
        f"unscaled latency over n={len(lat)}: p50 {statistics.median(lat):.2f} ms, p90 {p90(lat):.2f} ms",
        f"speed job: {len(jobs)} samples, median {statistics.median(jobs):.3f} ms, range "
        f"{min(jobs):.3f}-{max(jobs):.3f} ms; times below are scaled to {REFERENCE_MS} ms",
        "properties: " + ", ".join(f"{k[len('workload.'):]}={v:.4g}" for k, v in props.items()),
        *(
            f"{k} = {metrics[k]:.6g} {u}" + (f" (n={len(outcomes)})" if k in counted else "")
            for k, u in units.items()
        ),
        f"failed_rate = {len(failures) / len(outcomes):.4f} fraction ({len(failures)} of {len(outcomes)} failed)",
        *failures[:20],
        f"digest {digest([o.term or () for o in first])} over the first {len(first)} reasons",
    ]
    return {
        "report": report,
        "result": {
            "correct": not failures,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them, each in a process of its own")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            one = ["--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *one]).returncode
            if code:
                return code
        return 0
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
