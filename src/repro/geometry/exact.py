"""Exact rational arithmetic — ground truth for the tolerant predicates.

The paper lives on the real plane; the library quantizes it with
tolerances (see :mod:`repro.geometry.tolerance`).  This module provides
an *exact* reference implementation over :class:`fractions.Fraction`
coordinates for every predicate whose outcome is rational-decidable:
orientation, collinearity, point/segment/ray membership, multiplicity
structure, bivalence, and the uniqueness of the linear Weber point
(median order statistics).

It exists for validation, not production: the test suite draws
configurations on coarse rational grids, runs both the tolerant and the
exact pipelines, and requires them to agree (grid spacing is many orders
of magnitude above the tolerances, so any disagreement is a genuine bug
in the tolerant code).  Quasi-regularity and the asymmetric case are
excluded — their Weber points are algebraic, not rational — so the exact
classifier reports ``"nonlinear"`` for anything beyond ``B/M/L1W/L2W``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

__all__ = [
    "ExactPoint",
    "exact_point",
    "orientation_exact",
    "all_collinear_exact",
    "strictly_between_exact",
    "multiplicities_exact",
    "classify_exact",
]

Rational = Union[int, Fraction, str]
#: An exact point: a pair of Fractions.
ExactPoint = Tuple[Fraction, Fraction]


def exact_point(x: Rational, y: Rational) -> ExactPoint:
    """Build an exact point; accepts ints, Fractions or fraction strings."""
    return (Fraction(x), Fraction(y))


def orientation_exact(a: ExactPoint, b: ExactPoint, c: ExactPoint) -> int:
    """Sign of the CCW cross product: 1 = CCW turn, -1 = CW, 0 = collinear."""
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def all_collinear_exact(points: Sequence[ExactPoint]) -> bool:
    """True when all points lie on one line (exact)."""
    distinct: List[ExactPoint] = []
    for p in points:
        if p not in distinct:
            distinct.append(p)
    if len(distinct) <= 2:
        return True
    a, b = distinct[0], distinct[1]
    return all(orientation_exact(a, b, p) == 0 for p in distinct[2:])


def strictly_between_exact(
    a: ExactPoint, b: ExactPoint, p: ExactPoint
) -> bool:
    """True when ``p`` lies on the open segment ``(a, b)`` (exact)."""
    if p == a or p == b or a == b:
        return False
    if orientation_exact(a, b, p) != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    length_sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < length_sq


def multiplicities_exact(
    points: Sequence[ExactPoint],
) -> Dict[ExactPoint, int]:
    """Exact multiset structure: distinct location -> robot count."""
    mult: Dict[ExactPoint, int] = {}
    for p in points:
        mult[p] = mult.get(p, 0) + 1
    return mult


def _linear_median_unique(points: Sequence[ExactPoint]) -> bool:
    """Exact L1W/L2W discriminator: is the median order statistic unique?

    Precondition: the points are collinear with at least two distinct
    locations.  Projects onto the dominant axis of the common line (a
    monotone, hence order-preserving, map for collinear points).
    """
    distinct = sorted(set(points))
    a, b = distinct[0], distinct[-1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) >= abs(dy):
        keys = sorted(p[0] if dx != 0 else p[1] for p in points)
    else:
        keys = sorted(p[1] for p in points)
    n = len(keys)
    return keys[(n - 1) // 2] == keys[n // 2]


def classify_exact(points: Sequence[ExactPoint]) -> str:
    """Exact Section IV classification for rational-decidable classes.

    Returns one of ``"B"``, ``"M"``, ``"L1W"``, ``"L2W"`` or
    ``"nonlinear"`` (the latter lumping ``QR`` and ``A``, whose
    discrimination requires the — generally irrational — Weber point).
    """
    if not points:
        raise ValueError("empty configuration")
    mult = multiplicities_exact(points)
    if len(mult) == 2:
        counts = sorted(mult.values())
        if counts[0] == counts[1]:
            return "B"
    top = max(mult.values())
    if sum(1 for m in mult.values() if m == top) == 1:
        return "M"
    if all_collinear_exact(points):
        return "L1W" if _linear_median_unique(points) else "L2W"
    return "nonlinear"
