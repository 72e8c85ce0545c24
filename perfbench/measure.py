"""Percentile rules shared by the benchmark, its traced mode and its
steadiness command."""

from __future__ import annotations

import statistics

from repro.util.stats import nearest_rank

#: percentiles the tail is picked from, highest first. It stops at p95:
#: over ten 60-s runs of unchanged code, hot_singles' p98 (its rung with
#: 10 samples beyond) spread by 35 % between quartiles, its p95 by 14-19 %
#: pooled over the rounds and by 7 % as a median of the rounds' p95.
TAIL_LADDER = (95.0, 90.0, 75.0)
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile of ``n``."""
    return n - 1 - min(n - 1, int(pct / 100.0 * n))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least :data:`TAIL_BEYOND`
    samples beyond it; the median (50.0) when no ladder rung qualifies
    — with that few samples no percentile is a tail."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= TAIL_BEYOND:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    return nearest_rank(values, pct / 100.0)


def spread(values) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)`` as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3
