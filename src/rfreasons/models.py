"""File formats: forest model files (JSON), instance rows, stats CSV.

A model file is a versioned JSON document::

    {
      "format": "rfreasons-forest",
      "format_version": 1,
      "var_count": 4,
      "feature_names": ["fragrant", ...] | null,
      "trees": [{"var": 4, "low": {"leaf": 0}, "high": {...}}, ...]
    }

Instances are one comma-separated 0/1 row per line, with an optional
leading header row of feature names.  Structural validation (read-once,
index ranges) happens at load time, not per operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import IO, Sequence

from .core import DecisionTree, ModelFormatError, RandomForest

MODEL_FORMAT = "rfreasons-forest"
MODEL_FORMAT_VERSION = 1

STATS_COLUMNS = (
    "instance",
    "kind",
    "size",
    "elapsed",
    "optimal",
    "cost",
    "probability",
    "reason",
    "error",
)
TRAJECTORY_COLUMNS = ("instance", "kind", "elapsed", "cost")


def forest_to_document(forest: RandomForest) -> dict:
    return {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "var_count": forest.var_count,
        "feature_names": (
            None if forest.feature_names is None else list(forest.feature_names)
        ),
        "trees": [t.to_nested() for t in forest.trees],
    }


def document_to_forest(doc: dict) -> RandomForest:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    fmt = doc.get("format", MODEL_FORMAT)
    if fmt != MODEL_FORMAT:
        raise ModelFormatError(f"unknown model format {fmt!r}")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}")
    try:
        var_count = doc["var_count"]
        trees_doc = doc["trees"]
    except KeyError as e:
        raise ModelFormatError(f"model document missing {e.args[0]!r}") from None
    if type(var_count) is not int:
        raise ModelFormatError(f"'var_count' must be an integer, got {var_count!r}")
    if not isinstance(trees_doc, list) or not trees_doc:
        raise ModelFormatError("model document needs a non-empty 'trees' list")
    names = doc.get("feature_names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        raise ModelFormatError("'feature_names' must be a list of strings or null")
    trees = [DecisionTree.from_nested(t, var_count) for t in trees_doc]
    return RandomForest(trees, names)


def dump_forest(forest: RandomForest, path: str) -> None:
    """Write a model file; trees too deep to serialize (and so to load
    back) raise ModelFormatError before anything is written."""
    try:
        text = json.dumps(forest_to_document(forest), indent=2) + "\n"
    except RecursionError:
        raise ModelFormatError("trees nest too deeply to write") from None
    with open(path, "w") as fh:
        fh.write(text)


def load_forest(path: str) -> RandomForest:
    """Load and structurally validate a model file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return document_to_forest(json.loads(text))
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ModelFormatError("trees nest too deeply to load") from None


class InstanceFormatError(ValueError):
    """Bad instance row; names the row and column."""


def parse_instances(
    path: str, var_count: int
) -> tuple[list[tuple[int, ...]], list[str] | None]:
    """Read instance rows of var_count values, returning (instances,
    header or None).

    A first row whose cells are not all 0/1 is treated as a header of
    feature names, which must name var_count features.
    """
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if any(cell.strip() for cell in r)]
    header = None

    def numeric(cell: str) -> bool:
        try:
            int(cell.strip())
            return True
        except ValueError:
            return False

    # a leading row with any non-numeric cell is a header of feature names;
    # numeric-but-not-binary cells are data errors, not names
    if rows and not all(numeric(cell) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if len(header) != var_count:
            raise InstanceFormatError(
                f"header: expected {var_count} feature names, got {len(header)}"
            )
    instances = []
    for r, row in enumerate(rows, 1):
        bits = []
        for c, cell in enumerate(row, 1):
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise InstanceFormatError(
                    f"row {r}, column {c}: expected 0 or 1, got {cell!r}"
                )
            bits.append(int(cell))
        if len(bits) != var_count:
            raise InstanceFormatError(
                f"row {r}: expected {var_count} values, got {len(bits)}"
            )
        instances.append(tuple(bits))
    return instances, header


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_stats(rows: Sequence[dict], target: str | IO[str]) -> None:
    """Emit the STATS_COLUMNS cells of each row (a missing one is empty)
    plus a '#'-prefixed per-kind summary block: the mean and standard
    deviation of the reason sizes of the rows without an error.  Every
    line ends in a bare line feed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STATS_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row.get(column)) for column in STATS_COLUMNS])
    by_kind: dict[str, list[int]] = {}
    for row in rows:
        if row.get("error") is None:
            by_kind.setdefault(row["kind"], []).append(row["size"])
    for kind in sorted(by_kind):
        sizes = by_kind[kind]
        mean = sum(sizes) / len(sizes)
        var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
        buf.write(
            f"# summary kind={kind} count={len(sizes)} "
            f"mean_size={mean:.4f} stddev_size={math.sqrt(var):.4f}\n"
        )
    text = buf.getvalue()
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", newline="") as fh:
            fh.write(text)
