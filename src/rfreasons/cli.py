"""Command-line front end.

Subcommands: classify, explain, convert, negate, stats, fixture-gen.
Exit codes: 0 success, 2 no comprehensible reason exists, 3 a timeout
left only a partial (but still valid) result, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Sequence

from . import dimacs, models
from .core import (
    DecisionTree,
    Instance,
    ModelFormatError,
    RandomForest,
    cnf_to_forest,
    dnf_to_forest,
    normalize,
)
from .encodings import implicant_test_cnf
from .explain import (
    DEFAULT_SEED,
    MAJORITARY_ORDERS,
    DeltaProbableOracle,
    LinearModel,
    Prioritization,
    Reason,
    comprehensible_reason,
    delta_probable_reason_dt,
    direct_reason,
    inclusion_preferred_reason,
    lime_linear_reason,
    majoritary_reason,
    majoritary_reason_multi,
    sufficient_reason_rf,
)
from .models import InstanceFormatError
from .optimize import (
    WeightMap,
    approx_minimal_reason_dt,
    majority_wcnf,
    minimal_majoritary_reason,
    minimal_sufficient_reason_dt,
    minimal_weight_majoritary_reason,
)
from .solver import Deadline, SatSolver, SolveStatus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_COMPREHENSIBLE = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    pass


def _feature_index(token: str, forest: RandomForest) -> int:
    token = token.strip()
    if forest.feature_names and token in forest.feature_names:
        return forest.feature_names.index(token) + 1
    name = token[1:] if token.lower().startswith("x") else token
    try:
        var = int(name)
    except ValueError:
        raise CliError(f"unknown feature {token!r}") from None
    if not 1 <= var <= forest.var_count:
        raise CliError(f"feature index {var} out of range 1..{forest.var_count}")
    return var


def _parse_instance(text: str, var_count: int) -> tuple[int, ...]:
    cells = text.replace(",", " ").split()
    if len(cells) == 1 and len(cells[0]) > 1:
        cells = list(cells[0])
    bits = []
    for c, cell in enumerate(cells, 1):
        if cell not in ("0", "1"):
            raise CliError(f"instance column {c}: expected 0 or 1, got {cell!r}")
        bits.append(int(cell))
    if len(bits) != var_count:
        raise CliError(f"instance has {len(bits)} values, model expects {var_count}")
    return tuple(bits)


def _parse_strata(text: str, forest: RandomForest) -> Prioritization:
    strata = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            raise CliError("empty stratum in --strata")
        strata.append([_feature_index(t, forest) for t in group.split(",")])
    return Prioritization(strata)


def _parse_weights(text: str, forest: RandomForest) -> WeightMap:
    weights = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise CliError(f"--weights entries look like x1:5, got {item!r}")
        name, _, value = item.partition(":")
        try:
            weights[_feature_index(name, forest)] = int(value)
        except ValueError:
            raise CliError(f"bad weight value in {item!r}") from None
    return WeightMap(weights)


def _parse_order(text: str, forest: RandomForest) -> tuple[int, ...]:
    order = tuple(_feature_index(t, forest) for t in text.split(","))
    if len(set(order)) != len(order):
        raise CliError("--order repeats a feature")
    return order


def _parse_intelligible(text: str, forest: RandomForest) -> list[int]:
    return [_feature_index(t, forest) for t in text.split(",")]


def _number(text: str, setting: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise CliError(f"not a number in {_flag(setting)}: {text!r}") from None


def _parse_delta(text: str, forest: RandomForest) -> Fraction:
    # the oracle's own range check, on the single tree check_request demands
    return DeltaProbableOracle(forest.single(), _number(text, "delta")).delta


def _parse_linear_weights(text: str, forest: RandomForest) -> LinearModel:
    weights = text.split(",")
    if len(weights) != forest.var_count:
        raise CliError("--linear-weights length must match the feature count")
    return LinearModel(_number(w, "linear_weights") for w in weights)


# ExplainSettings fields given as text, and their parsers
_PARSERS: dict[str, Callable[[str, RandomForest], object]] = {
    "order": _parse_order,
    "weights": _parse_weights,
    "strata": _parse_strata,
    "intelligible": _parse_intelligible,
    "delta": _parse_delta,
    "linear_weights": _parse_linear_weights,
}


def _load_model(path: str) -> RandomForest:
    try:
        return models.load_forest(path)
    except FileNotFoundError:
        raise CliError(f"model file not found: {path}") from None
    except ModelFormatError as e:
        raise CliError(f"bad model file {path}: {e}") from None


# ---------------------------------------------------------------------------
# explain


@dataclass
class ExplainSettings:
    kind: str
    delta: str | None = None
    strata: str | None = None
    intelligible: str | None = None
    weights: str | None = None
    notion: str = "majority"
    permutations: int | None = None
    seed: int = DEFAULT_SEED
    timeout: float | None = None
    order: str | None = None
    linear_weights: str | None = None


@dataclass(frozen=True)
class Request:
    """One explanation request, as the kind table's compute functions see
    it: values holds the text settings the kind reads, parsed."""

    forest: RandomForest
    x: Instance
    settings: ExplainSettings
    values: dict
    deadline: Deadline | None


def _majoritary(r: Request) -> Reason:
    s = r.settings
    if s.permutations is None or s.permutations == 1:
        return majoritary_reason(r.forest, r.x, r.values.get("order"))
    return majoritary_reason_multi(r.forest, r.x, s.permutations, s.seed, r.deadline)


def _lime(r: Request) -> Reason:
    model = r.values["linear_weights"]
    if model.evaluate(r.x) != r.forest.evaluate(r.x):
        raise CliError("the linear model disagrees with the forest on this instance")
    return lime_linear_reason(model, r.x)


def _notion(name: str | None) -> Callable[[RandomForest, Reason], bool]:
    """Validation by the named implicant notion, checked on the
    normalized model itself rather than through a search oracle; None
    takes the notion the reason records, and its intelligible features
    when it has any.  A majoritary reason must imply a majority of the
    trees; a sufficient one must leave its restricted encoding
    (implicant_test_cnf) unsatisfiable, at any tree count."""

    def accepts(forest: RandomForest, reason: Reason) -> bool:
        term = reason.term
        intelligible = reason.extras.get("intelligible")
        if intelligible is not None and not term.variables() <= set(intelligible):
            return False
        model = normalize(forest, reason.instance)
        if (name or reason.extras["notion"]) == "majority":
            return sum(t.implied_by(term) for t in model.trees) >= model.majority
        outcome = SatSolver(implicant_test_cnf(model, term).cnf).solve()
        return outcome.status is SolveStatus.UNSAT

    return accepts


_EXACT = _notion("sufficient")
_MAJORITY = _notion("majority")
_RECORDED = _notion(None)


@dataclass(frozen=True)
class KindSpec:
    """One reason kind: how to compute it, the oracle check that
    re-validates it against the model, whether it needs a
    single-tree model, the setting it cannot run without, and the
    optional settings it reads besides the timeout.  Its output label
    is the ReasonKind of its name with "_" for "-"."""

    compute: Callable[[Request], Reason | None]
    oracle: Callable[[RandomForest, Reason], bool]
    single_tree: bool = False
    requires: str | None = None
    reads: tuple[str, ...] = ()


KIND_TABLE: dict[str, KindSpec] = {
    "direct": KindSpec(lambda r: direct_reason(r.forest, r.x), _EXACT),
    "sufficient": KindSpec(
        lambda r: sufficient_reason_rf(
            r.forest, r.x, r.values.get("order"), deadline=r.deadline
        ),
        _EXACT,
        reads=("order",),
    ),
    "majoritary": KindSpec(
        _majoritary,
        _MAJORITY,
        reads=("order", "permutations", "seed"),
    ),
    "minimal-majoritary": KindSpec(
        lambda r: minimal_majoritary_reason(r.forest, r.x, r.deadline),
        _MAJORITY,
    ),
    "minimal-weight": KindSpec(
        lambda r: minimal_weight_majoritary_reason(
            r.forest, r.x, r.values["weights"], r.deadline
        ),
        _MAJORITY,
        requires="weights",
    ),
    "minimal-sufficient": KindSpec(
        lambda r: minimal_sufficient_reason_dt(r.forest.single(), r.x, r.deadline),
        _EXACT,
        single_tree=True,
    ),
    "delta-probable": KindSpec(
        lambda r: delta_probable_reason_dt(
            r.forest.single(), r.x, r.values["delta"], r.values.get("order")
        ),
        lambda forest, reason: DeltaProbableOracle(
            normalize(forest.single(), reason.instance), reason.extras["delta"]
        ).accepts(reason.term),
        single_tree=True,
        requires="delta",
        reads=("order",),
    ),
    "comprehensible": KindSpec(
        lambda r: comprehensible_reason(
            r.forest, r.x, r.values["intelligible"], r.settings.notion
        ),
        _RECORDED,
        requires="intelligible",
        reads=("notion",),
    ),
    "inclusion-preferred": KindSpec(
        lambda r: inclusion_preferred_reason(
            r.forest, r.x, r.values["strata"], r.settings.notion, r.deadline
        ),
        _RECORDED,
        requires="strata",
        reads=("notion",),
    ),
    # lime explains its own linear model, not the forest
    "lime": KindSpec(
        _lime,
        lambda forest, reason: reason.term.covers(reason.instance),
        requires="linear_weights",
    ),
    "approx-minimal": KindSpec(
        lambda r: approx_minimal_reason_dt(r.forest.single(), r.x),
        _EXACT,
        single_tree=True,
    ),
}
KINDS = tuple(KIND_TABLE)


def compute_reason(
    forest: RandomForest, x: tuple[int, ...], s: ExplainSettings
) -> Reason | None:
    """Run one explanation request under one deadline, fixed here.

    None means no comprehensible reason exists.  When the deadline
    passes first, the result is the valid partial reason the search fell
    back to (see is_partial).  elapsed and extras["prediction"] are set
    here, for every kind.
    """
    start = time.monotonic()
    deadline = None if s.timeout is None else Deadline(start + s.timeout)
    spec, values = check_request(forest, s)
    reason = spec.compute(Request(forest, x, s, values, deadline))
    if reason is None:
        return None
    return replace(
        reason,
        elapsed=time.monotonic() - start,
        extras={**reason.extras, "prediction": forest.evaluate(x)},
    )


def check_request(forest: RandomForest, s: ExplainSettings) -> tuple[KindSpec, dict]:
    """The kind's table entry and the text settings it reads, parsed, once
    the request passes the checks that hold for every instance alike: a
    known kind, its required setting, a single-tree model where the kind
    needs one, the permutation count and every value the kind reads."""
    spec = KIND_TABLE.get(s.kind)
    if spec is None:
        raise CliError(f"unknown kind {s.kind!r}")
    if spec.requires and not getattr(s, spec.requires):
        raise CliError(f"--kind {s.kind} needs {_flag(spec.requires)}")
    if spec.single_tree and forest.tree_count != 1:
        raise CliError(f"--kind {s.kind} needs a single-tree model")
    if s.permutations is not None and s.permutations < 1:
        raise CliError(f"--permutations must be at least 1, got {s.permutations}")
    if s.order and s.permutations is not None and s.permutations > 1:
        raise CliError("--order and --permutations above 1 exclude each other")
    values = {}
    for name in (spec.requires, *spec.reads):
        text = getattr(s, name) if name in _PARSERS else None
        if text:
            try:
                values[name] = _PARSERS[name](text, forest)
            except ZeroDivisionError:  # a fraction such as 1/0
                raise CliError(f"{_flag(name)} has a zero denominator in {text!r}") from None
    return spec, values


def is_partial(reason: Reason) -> bool:
    """Did the deadline cut the search short?  Greedy kinds then fall back
    to their last verified term; the minimal kinds, the only ones with a
    cost, stop before proving it minimal."""
    return reason.extras.get("fallback") == "timeout" or (
        reason.cost is not None and not reason.optimal
    )


def validate_reason(forest: RandomForest, reason: Reason) -> None:
    """Re-check the output against the notion that defines it, sharing
    nothing with the search (see _notion); a failure here means an
    encoding bug and is a hard error.  Validation takes no deadline: it
    is a completion check and always runs to the end (README says why)."""
    if not KIND_TABLE[reason.kind.value.replace("_", "-")].oracle(forest, reason):
        raise AssertionError(
            f"validation failed: {reason.kind.value} reason {reason.term} "
            "rejected by its oracle"
        )


def reason_record(reason: Reason, forest: RandomForest) -> dict:
    prob = reason.extras.get("probability")
    return {
        "kind": reason.kind.value,
        "prediction": reason.extras.get("prediction"),
        "literals": list(reason.term),
        "rendered": reason.render(forest.feature_names),
        "size": reason.size,
        "cost": reason.cost,
        "optimal": reason.optimal,
        "elapsed": round(reason.elapsed, 6),
        "probability": str(prob) if prob is not None else None,
        "fallback": reason.extras.get("fallback"),
    }


def _settings(args, kind: str) -> ExplainSettings:
    """The request settings named by the parsed command-line flags."""
    if args.timeout is not None and not args.timeout >= 0:  # NaN fails >=
        raise CliError(f"--timeout must be a non-negative number, got {args.timeout}")
    given = {
        f.name: getattr(args, f.name)
        for f in fields(ExplainSettings)
        if hasattr(args, f.name)
    }
    return ExplainSettings(**{**given, "kind": kind})


def _flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def _check_flags(s: ExplainSettings, kinds: Sequence[str], export_wcnf: bool) -> None:
    """Refuse a flag set away from its default that none of the kinds
    reads; --export-wcnf reads --weights for any kind."""
    read = {"kind", "timeout"}
    for kind in kinds:
        spec = KIND_TABLE[kind]
        read.update((spec.requires, *spec.reads))
    if export_wcnf:
        read.add("weights")
    default = ExplainSettings(s.kind)
    for f in fields(ExplainSettings):
        if f.name not in read and getattr(s, f.name) != getattr(default, f.name):
            if len(kinds) == 1:
                raise CliError(f"--kind {kinds[0]} does not read {_flag(f.name)}")
            raise CliError(f"none of --kinds {','.join(kinds)} reads {_flag(f.name)}")


def cmd_explain(args) -> int:
    settings = _settings(args, args.kind)
    _check_flags(settings, [args.kind], bool(args.export_wcnf))
    forest = _load_model(args.model)
    x = _parse_instance(args.instance, forest.var_count)
    if args.export_wcnf:
        check_request(forest, settings)  # a refused request writes no file
        wm = _parse_weights(args.weights, forest) if args.weights else None
        text = dimacs.write_wcnf(majority_wcnf(normalize(forest, x), x, wm))
        with open(args.export_wcnf, "w") as fh:
            fh.write(text)
    reason = compute_reason(forest, x, settings)
    if reason is None:
        print("no comprehensible reason")
        return EXIT_NO_COMPREHENSIBLE
    validate_reason(forest, reason)
    record = reason_record(reason, forest)
    if args.json:
        print(json.dumps(record))
    else:
        print(f"prediction: {record['prediction']}")
        print(f"reason ({record['kind']}): {record['rendered']}")
        print(f"size: {record['size']}")
        if record["cost"] is not None:
            print(f"cost: {record['cost']}")
        print(f"optimal: {'yes' if record['optimal'] else 'no'}")
        if record["probability"] is not None:
            print(f"probability: {record['probability']}")
        print(f"elapsed: {record['elapsed']}s")
        if record["fallback"]:
            print(f"fallback: {record['fallback']}")
    return EXIT_PARTIAL if is_partial(reason) else EXIT_OK


# ---------------------------------------------------------------------------
# classify / convert / negate / fixture-gen


def cmd_classify(args) -> int:
    forest = _load_model(args.model)
    instances, _ = models.parse_instances(args.instances, forest.var_count)
    for x in instances:
        print(forest.evaluate(x))
    return EXIT_OK


def cmd_convert(args) -> int:
    with open(args.input) as fh:
        text = fh.read()
    if args.source_format == "cnf":
        cnf = dimacs.read_dimacs(text)
        if not cnf.clauses:
            raise CliError("refusing to convert an empty clause set")
        forest = cnf_to_forest(cnf.clauses, cnf.var_count)
    else:
        terms, var_count = dimacs.read_dnf(text)
        forest = dnf_to_forest(terms, var_count)
    models.dump_forest(forest, args.out)
    print(f"wrote {forest.tree_count} trees over {forest.var_count} variables to {args.out}")
    return EXIT_OK


def cmd_negate(args) -> int:
    forest = _load_model(args.model)
    models.dump_forest(forest.negated(), args.out)
    print(f"wrote negated model to {args.out}")
    return EXIT_OK


def parity_tree(var_count: int) -> DecisionTree:
    """Complete tree computing the parity of all variables."""

    def build(var: int, ones: int) -> dict:
        if var > var_count:
            return {"leaf": ones & 1}
        return {
            "var": var,
            "low": build(var + 1, ones),
            "high": build(var + 1, ones ^ 1),
        }

    return DecisionTree.from_nested(build(1, 0), var_count)


def parity_fixture(var_count: int, copies: int) -> RandomForest:
    """Adversarial constant-1 forest: equal numbers of parity and negated
    parity trees plus one 1-leaf.  Greedy majoritary explanations cannot
    drop a single literal on it, while the empty term is the unique
    sufficient reason."""
    if var_count < 1 or copies < 1:
        raise ValueError("parity width and copy count must be >= 1")
    tree = parity_tree(var_count)
    trees = [tree] * copies + [tree.negated()] * copies
    trees.append(DecisionTree.leaf(1, var_count))
    return RandomForest(trees)


# the model file about doubles with each unit of width: 33 MB at 16,
# and grows with the copies, so width and copies share one budget
_MAX_PARITY = 16


def cmd_fixture_gen(args) -> int:
    if not 1 <= args.parity <= _MAX_PARITY:
        raise CliError(f"--parity must be from 1 to {_MAX_PARITY}, got {args.parity}")
    max_copies = 1 << (_MAX_PARITY - args.parity)
    if args.copies > max_copies:
        raise CliError(
            f"--copies must be at most {max_copies} at --parity {args.parity}, got {args.copies}"
        )
    forest = parity_fixture(args.parity, args.copies)
    models.dump_forest(forest, args.out)
    print(
        f"wrote parity fixture ({forest.tree_count} trees, "
        f"{forest.var_count} variables) to {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats harness


def _stats_one(
    forest: RandomForest, index: int, x: tuple[int, ...], s: ExplainSettings
) -> dict:
    """One stats row: the explain record under the requested kind name
    and the row number, with the rendered term as "reason" and the
    anytime log, if any, as "log"; or the request's error."""
    try:
        reason = compute_reason(forest, x, s)
    except Exception as e:  # per-instance failures stay in-row
        return {"instance": index, "kind": s.kind, "error": f"{type(e).__name__}: {e}"}
    if reason is None:
        return {"instance": index, "kind": s.kind, "error": "no comprehensible reason"}
    validate_reason(forest, reason)
    record = reason_record(reason, forest)
    log = reason.extras.get("log", ())
    return {**record, "instance": index, "kind": s.kind, "reason": record["rendered"], "log": log}


def _stats_instance_task(payload):
    forest, index, x, requests = payload
    return [_stats_one(forest, index, x, s) for s in requests]


def cmd_stats(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    forest = _load_model(args.model)
    instances, _ = models.parse_instances(args.instances, forest.var_count)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise CliError("--kinds must name at least one reason kind")
    for k in kinds:
        if k not in KINDS:
            raise CliError(f"unknown kind {k!r} (choose from {', '.join(KINDS)})")
    settings = _settings(args, "direct")
    _check_flags(settings, kinds, False)
    requests = []
    for k in kinds:
        s = replace(settings, kind=k)
        if k == "majoritary" and s.permutations is None:
            s.permutations = MAJORITARY_ORDERS
        check_request(forest, s)  # a mistake that holds for every instance ends the run here
        requests.append(s)
    payloads = [(forest, i, x, requests) for i, x in enumerate(instances, 1)]
    workers = min(args.jobs, len(payloads))  # the pool forks them all at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(_stats_instance_task, payloads))
    else:
        per_instance = [_stats_instance_task(p) for p in payloads]
    rows = [row for results in per_instance for row in results]
    models.write_stats(rows, args.out if args.out else sys.stdout)
    if args.trajectories:
        with open(args.trajectories, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(models.TRAJECTORY_COLUMNS)
            for row in rows:
                writer.writerows(
                    (row["instance"], row["kind"], round(elapsed, 6), cost)
                    for elapsed, cost in row.get("log", ())
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_request_flags(p: argparse.ArgumentParser, order: bool = False) -> None:
    """Flags that fill ExplainSettings fields; --order is explain's only."""
    p.add_argument("--delta", help="confidence for delta-probable (e.g. 0.75 or 3/4)")
    p.add_argument("--strata", help="salience strata, least salient first: x4;x2,x3;x1")
    p.add_argument("--intelligible", help="comma-separated intelligible features")
    p.add_argument("--weights", help="feature weights: x1:5,x2:1")
    p.add_argument("--notion", choices=("majority", "sufficient"), default="majority",
                   help="implicant notion for comprehensible/inclusion-preferred")
    p.add_argument("--permutations", type=int, default=None,
                   help="try this many random elimination orders (majoritary)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--timeout", type=float, default=None,
                   help="one deadline in seconds over the whole computation")
    if order:
        p.add_argument("--order", help="elimination order, e.g. x2,x3,x4,x1")
    p.add_argument("--linear-weights", help="weights of a linear model (lime)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfreasons",
        description="Reasons explaining Boolean decision-tree and random-forest classifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="predict a 0/1 class per instance row")
    p.add_argument("model")
    p.add_argument("instances")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("explain", help="compute one reason for one instance")
    p.add_argument("model")
    p.add_argument("instance", help="bit row, e.g. 1,1,0,1 or 1101")
    p.add_argument("--kind", choices=KINDS, default="sufficient")
    _add_request_flags(p, order=True)
    p.add_argument("--export-wcnf", metavar="FILE",
                   help="also dump the optimization instance in WCNF form")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("convert", help="build a model file from a CNF or DNF")
    p.add_argument("input")
    p.add_argument("--from", dest="source_format", choices=("cnf", "dnf"), required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("negate", help="write the negated model")
    p.add_argument("model")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_negate)

    p = sub.add_parser("stats", help="batch explanation size/time statistics")
    p.add_argument("model")
    p.add_argument("instances")
    p.add_argument("--kinds", required=True, help="comma-separated reason kinds")
    _add_request_flags(p)
    p.add_argument("--out", default=None, help="stats CSV file (default stdout)")
    p.add_argument("--trajectories", default=None,
                   help="side CSV of anytime improvement logs")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fixture-gen", help="adversarial parity-forest generator")
    p.add_argument("--parity", type=int, required=True, metavar="N")
    p.add_argument("--copies", type=int, required=True, metavar="K")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_fixture_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InstanceFormatError, dimacs.DimacsError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
