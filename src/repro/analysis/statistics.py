"""Tiny statistics helpers used by the experiment tables.

Kept dependency-free (no scipy) on purpose: experiments report means
and medians, nothing fancier, and the benchmark harness must not drag
heavyweight imports into its hot path.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["mean", "median"]


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
