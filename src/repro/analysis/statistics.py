"""Tiny statistics helpers used by the experiment tables.

Kept dependency-free (no scipy) on purpose: experiments report means,
medians and binomial confidence intervals, nothing fancier, and the
benchmark harness must not drag heavyweight imports into its hot path.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["mean", "median", "stddev", "wilson_interval"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for empty input (prints as '-')."""
    return math.fsum(values) / len(values) if values else math.nan


def median(values: Sequence[float]) -> float:
    """Median; NaN for empty input."""
    if not values:
        return math.nan
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation; NaN when fewer than two values."""
    if len(values) < 2:
        return math.nan
    m = mean(values)
    var = math.fsum((v - m) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var)


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because experiment tables
    routinely contain 0/30 and 30/30 rows, where the naive interval
    degenerates.
    """
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))
