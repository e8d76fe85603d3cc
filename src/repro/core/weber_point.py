"""Configuration-level Weber point computation.

The algorithm only ever *needs* the Weber point in the two cases where it
is exactly computable — quasi-regular configurations (Lemma 3.3) and
linear configurations with a unique median (Section III).  This module
provides those, plus the certified numerical Weber point used (a) to
locate unoccupied centers of regularity and (b) by the
``NumericalWeberGather`` baseline.

All results are memoized on the configuration (see
:meth:`repro.core.configuration.Configuration.memo`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..geometry import (
    Point,
    WeberResult,
    geometric_median,
    project_parameter,
)
from .configuration import Configuration

__all__ = [
    "numeric_weber_point",
    "linear_weber_points",
    "has_unique_linear_weber_point",
]


def numeric_weber_point(config: Configuration) -> Optional[Point]:
    """Certified Weber point of the multiset, or ``None`` if uncertified.

    For an *occupied* optimum the result is bitwise one of the support
    points (the solver checks input points first), which lets callers
    compare it against the support exactly.  Linear configurations with a
    median interval return the interval midpoint, which is a genuine
    Weber point though not the unique one; callers that must distinguish
    uniqueness use :func:`has_unique_linear_weber_point`.
    """

    def compute() -> Optional[Point]:
        result: WeberResult = geometric_median(config.points, config.tol)
        return result.point if result.certified else None

    return config.memo("weber_numeric", compute)


def linear_weber_points(config: Configuration) -> Tuple[Point, Point]:
    """Median interval ``[min(Med(C)), max(Med(C))]`` of a linear config.

    The configuration was judged linear by :meth:`Configuration.is_linear`
    (a tolerant predicate), so the robots may sag up to ``eps_dist`` off
    the common line.  We therefore *project* every robot onto the line
    spanned by the two most distant occupied positions and take the
    median interval of the projections — for an exactly-linear input
    this equals the textbook computation, and for an eps-sagged one it
    is the only self-consistent reading.
    """

    def compute() -> Tuple[Point, Point]:
        support = config.support
        anchor = support[0]
        far = max(support, key=anchor.distance_to)
        if far.close_to(anchor, config.tol):
            return anchor, anchor  # gathered: degenerate interval
        params = sorted(
            project_parameter(anchor, far, p) for p in config.points
        )
        n = len(params)
        direction = far - anchor
        low = anchor + direction * params[(n - 1) // 2]
        high = anchor + direction * params[n // 2]
        if high < low:
            low, high = high, low
        return low, high

    return config.memo("weber_linear", compute)


def has_unique_linear_weber_point(config: Configuration) -> bool:
    """True when a linear configuration has a single Weber point.

    This is the ``L1W`` vs ``L2W`` discriminator of Section IV.
    """
    lo, hi = linear_weber_points(config)
    return lo.close_to(hi, config.tol)
