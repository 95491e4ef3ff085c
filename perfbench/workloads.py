"""Seeded workload definitions and input generators.

Every input of a run comes from the workload seed: a pool of random
read-once forests, written out as model documents in the program's JSON
format, and one stream of random instances.  Request k explains
instance k on forest k mod pool, so any prefix of the request sequence
spreads evenly over the pool.  A pool, rather than one forest, keeps the
forest-to-forest spread (model size, share of negative instances) from
dominating the numbers of a single run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MODEL_FORMAT = "rfreasons-forest"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the program's reason kind, as `rfreasons explain --kind`
    var_count: int
    tree_count: int
    max_depth: int
    leaf_chance: float
    pool: int  # forests drawn per run
    permutations: int | None = None
    budget: float | None = None  # per-request budget (seconds)

    def settings(self, cli):
        return cli.ExplainSettings(
            kind=self.kind, permutations=self.permutations, timeout=self.budget
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("majoritary-deep", "majoritary", 40, 25, 8, 0.1, pool=32, permutations=50),
        Workload("sufficient-deep", "sufficient", 40, 25, 8, 0.1, pool=32),
        # 20 features keep a request near 0.1 s, so a run holds a few
        # hundred; the budget sits far above the slowest request seen, so
        # that every request runs to its optimality proof
        Workload("minimal-small", "minimal-majoritary", 20, 15, 6, 0.1, pool=64, budget=60.0),
    )
}


def random_tree_doc(rng: random.Random, var_count: int, max_depth: int, leaf_chance: float) -> dict:
    """A random read-once tree as a nested model-document record."""

    def grow(available: tuple[int, ...], depth: int) -> dict:
        if depth == 0 or not available or rng.random() < leaf_chance:
            return {"leaf": rng.randint(0, 1)}
        var = rng.choice(available)
        rest = tuple(v for v in available if v != var)
        return {"var": var, "low": grow(rest, depth - 1), "high": grow(rest, depth - 1)}

    return grow(tuple(range(1, var_count + 1)), max_depth)


def forest_doc(rng: random.Random, w: Workload) -> dict:
    return {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "var_count": w.var_count,
        "feature_names": None,
        "trees": [
            random_tree_doc(rng, w.var_count, w.max_depth, w.leaf_chance)
            for _ in range(w.tree_count)
        ],
    }


def instances(rng: random.Random, var_count: int, count: int) -> list[tuple[int, ...]]:
    out = []
    for _ in range(count):
        bits = rng.getrandbits(var_count)
        out.append(tuple((bits >> i) & 1 for i in range(var_count)))
    return out


def write_models(w: Workload, seed: int, directory: Path) -> list[Path]:
    """Draw the run's forest pool and write one model file per forest."""
    rng = random.Random(f"{w.name}/forests/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(w.pool):
        path = directory / f"{w.name}-s{seed}-f{j}.json"
        path.write_text(json.dumps(forest_doc(rng, w)))
        paths.append(path)
    return paths


def instance_stream(w: Workload, seed: int, count: int) -> list[tuple[int, ...]]:
    return instances(random.Random(f"{w.name}/instances/{seed}"), w.var_count, count)
