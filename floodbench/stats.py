"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# Percentiles considered for a timing's tail, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, count: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(p / 100.0 * count, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile: no values")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples above it.

    ``None`` when even the median has fewer than that many beyond it.
    """
    best = None
    for p in LADDER:
        if count - _rank(p, count) >= MIN_BEYOND:
            best = p
    return best

