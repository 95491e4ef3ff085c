"""Machine-speed reference for the times a run reports.

The speed of a shared machine drifts by more than the bounds allow, and
within one run as well as between runs: on a 2-core Xeon VM the same
30 s run of the same inputs measured 423 and 521 requests a few minutes
apart. A fixed job of the benchmark's own code, tree traversals like
much of the program's work, is timed before set-up windows and between
requests. Each measured time is scaled by REFERENCE_MS over the median
of the job times nearest to it, so it reads as time at the reference
speed. The job never changes with the program, so a slower program
still reads slower.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

from check import Forest
from workloads import Workload, forest_doc, instances

# the job's median on the machine the bounds were set on
REFERENCE_MS = 10.0
SHAPE = Workload("calibration", "majoritary", 40, 25, 8, 0.1, pool=1)
ROUNDS = 6
NEAREST = 5  # job times that set the speed at one moment


class Calibration:
    def __init__(self):
        rng = random.Random("calibration")
        self.forest = Forest(forest_doc(rng, SHAPE))
        self.terms = [
            [v if x[v - 1] else -v for v in range(1, SHAPE.var_count + 1) if rng.random() < 0.5]
            for x in instances(rng, SHAPE.var_count, 40)
        ]
        self.times: list[float] = []  # midpoints, in order
        self.samples: list[float] = []  # seconds

    def sample(self) -> float:
        """Time the job once; returns its seconds."""
        start = perf_counter()
        for _ in range(ROUNDS):
            for term in self.terms:
                self.forest.implied_trees(term, 1)
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.samples.append(end - start)
        return end - start

    def scale_at(self, t: float) -> float:
        """Factor from measured to reference-speed time at moment t."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_MS / (statistics.median(self.samples[lo : lo + NEAREST]) * 1e3)
