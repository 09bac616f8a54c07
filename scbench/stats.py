"""Summary statistics of one pass: verdict percentiles and timeout accounting."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

# Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail_percentile(values: Iterable[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """(pct, value) of the highest ladder percentile with >= `beyond` samples above it.

    Percentiles are nearest-rank.  With too few samples for any ladder step,
    the maximum is returned as pct 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - 1 - rank >= beyond:
            return pct, ordered[rank]
    return 100.0, ordered[-1]


def charged_time(elapsed: Optional[float], limit: float) -> float:
    """Verdict time that an instance is charged: a timeout (None) counts at the limit."""
    if elapsed is None:
        return limit
    return min(elapsed, limit) if limit else elapsed


def row_time(elapsed: Iterable[Optional[float]], limit: float) -> float:
    """Verdict time of an instance from its times in the passes (None: a timeout).

    It is the median of their charged times: the machine alternates between
    fast and slow stretches, and the median follows the state it mostly ran
    in, where the least time would follow whichever stretch a run caught.
    """
    return statistics.median(charged_time(e, limit) for e in elapsed)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single value repeats."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(times: List[float]) -> dict:
    """End-to-end timing metrics of a pass from the charged verdict times (seconds)."""
    pct, tail = tail_percentile(times)
    return {
        "total_s": sum(times),
        "verdict_p50_ms": statistics.median(times) * 1000.0,
        "verdict_tail_ms": tail * 1000.0,
        "tail_pct": pct,
    }
