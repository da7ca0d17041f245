"""Order statistics shared by the harness, the comparer and their tests."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    data = list(values)
    if not data:
        raise ValueError("median of an empty sample")
    return float(statistics.median(data))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it.

    Nearest rank never interpolates, so a reported p95 is a latency that
    was actually observed.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    rank = max(1, math.ceil(len(data) * p / 100))
    return float(data[rank - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them.

    The acceptance rule for a benchmark applies exactly this number to ten
    runs; fewer than two samples have no spread.
    """
    data: List[float] = list(values)
    if len(data) < 2:
        return 0.0
    quartiles = statistics.quantiles(data, n=4)
    centre = statistics.median(data)
    if centre == 0:
        return 0.0
    return float((quartiles[2] - quartiles[0]) / abs(centre))


def range_ratio(values: Sequence[float]) -> float:
    """(max - min) / median — the spread of the passes inside one run."""
    data = list(values)
    if len(data) < 2:
        return 0.0
    centre = statistics.median(data)
    if centre == 0:
        return 0.0
    return float((max(data) - min(data)) / abs(centre))
