"""Order statistics for the benchmark's per-run figures."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by nearest rank (a sample, not a blend)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile that still has
    at least :data:`TAIL_MIN_BEYOND` samples beyond it, or ``None``."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(values, pct)
    return None
