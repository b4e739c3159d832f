"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

#: Percentiles the tail may be reported at, highest first.  A fixed ladder
#: keeps the reported percentile the same from run to run while the
#: sample count moves within a range.  It stops at p95: above it the wire
#: workloads' tails are made of a handful of rare clusters (the bank's
#: periodic sum rebuild, checkpoint compactions, host stalls) whose count
#: per run swings the figure by 40% or more between identical runs.
TAIL_LADDER = (95.0, 90.0, 80.0, 50.0)
#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(ordered: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile of an already sorted array."""
    rank = max(math.ceil(pct / 100.0 * ordered.size), 1)
    return float(ordered[rank - 1])


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """The highest ladder percentile with ``min_beyond`` samples past it.

    Returns ``(percentile, value, count)``.  With the nearest-rank
    definition the ``p``-th percentile is the sample at rank
    ``ceil(p/100 * n)``, so ``n - rank`` samples lie beyond it.  When even
    the median leaves fewer than ``min_beyond`` beyond it, the maximum is
    reported as percentile 100.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        if n - max(math.ceil(pct / 100.0 * n), 1) >= min_beyond:
            return pct, nearest_rank(ordered, pct), n
    return 100.0, float(ordered[-1]), n


def median(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise ValueError("no samples")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def grid_median(values: Sequence[int]) -> float:
    """Median of integers that fall on a grid, interpolated within a step.

    A detector locks only when it evaluates, every evaluation interval, so
    first-lock sample counts lie on a grid of that step.  The plain median
    jumps a whole step when the distribution shifts a little (49 or 57
    samples between seeds of one workload); the grouped median moves with
    it.  The step is the greatest common divisor of the distances between
    the values (1 if they are all equal).
    """
    if len(values) == 0:
        raise ValueError("no samples")
    low = min(values)
    step = 0
    for value in values:
        step = math.gcd(step, int(value) - int(low))
    return float(statistics.median_grouped(values, step or 1))
