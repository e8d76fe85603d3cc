"""Tolerant combinatorial predicates on points.

These are the questions the paper's case analysis asks of a configuration:
orientation of a triple, collinearity of a set, membership of a point in a
segment or ray.  Each predicate takes an explicit :class:`Tolerance` so a
test or experiment can tighten/loosen quantization globally.

Orientation is reported in the *chirality* convention of the paper: the
triple ``(a, b, c)`` is ``CLOCKWISE`` when walking ``a -> b -> c`` turns in
the robots' agreed clockwise sense.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, List, Optional

from .point import Point
from .tolerance import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "Orientation",
    "orientation",
    "are_collinear",
    "all_collinear",
    "point_on_segment",
    "point_strictly_between",
    "on_ray",
    "project_parameter",
]


class Orientation(enum.Enum):
    """Orientation of an ordered point triple under chirality."""

    COLLINEAR = 0
    CLOCKWISE = 1
    COUNTERCLOCKWISE = 2


def _cross3(a: Point, b: Point, c: Point) -> float:
    """Cross product of ``(b - a)`` and ``(c - a)`` (CCW-positive)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def orientation(
    a: Point, b: Point, c: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> Orientation:
    """Orientation of the triple ``(a, b, c)``.

    The collinearity band scales with the lengths involved so the
    predicate is meaningful both for unit-scale and kilo-scale workloads:
    the raw cross product has units of area, so we compare it against
    ``eps_dist * max(|ab|, |ac|)`` — i.e. "c is within ``eps_dist`` of the
    line through a and b".
    """
    cross = _cross3(a, b, c)
    scale = max(a.distance_to(b), a.distance_to(c), 1.0)
    if abs(cross) <= tol.eps_dist * scale:
        return Orientation.COLLINEAR
    # CCW-positive cross means the turn is counter-clockwise in math
    # convention, which is the *opposite* of the chirality convention.
    return Orientation.COUNTERCLOCKWISE if cross > 0 else Orientation.CLOCKWISE


def are_collinear(
    a: Point, b: Point, c: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """True when the three points lie on one line (within tolerance)."""
    return orientation(a, b, c, tol) is Orientation.COLLINEAR


def all_collinear(
    points: Iterable[Point], tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """True when *all* points lie on a single line.

    This is the paper's "linear configuration" predicate.  Fewer than
    three distinct points are always collinear.  The reference line is
    spanned by the two most distant of the first three distinct points to
    keep the band stable; the remaining points are tested against it.
    """
    pts: List[Point] = list(points)
    # Find two distinct anchor points.
    anchor_a = pts[0] if pts else None
    anchor_b = None
    for p in pts[1:]:
        if anchor_a is not None and not p.close_to(anchor_a, tol):
            anchor_b = p
            break
    if anchor_a is None or anchor_b is None:
        return True
    # Prefer the farthest point from anchor_a as the second anchor: a
    # longer baseline makes the collinearity band tighter and symmetric.
    far = max(pts, key=anchor_a.distance_to)
    if not far.close_to(anchor_a, tol):
        anchor_b = far
    return all(are_collinear(anchor_a, anchor_b, p, tol) for p in pts)


def project_parameter(a: Point, b: Point, p: Point) -> float:
    """Scalar ``t`` with ``a + t*(b - a)`` the projection of ``p`` on line ab.

    Precondition: ``a != b`` bitwise.  ``t`` parameterizes the line so that
    ``t = 0`` at ``a`` and ``t = 1`` at ``b``; used to order collinear
    points along their common line.
    """
    d = b - a
    denom = d.norm_sq()
    if denom == 0.0:
        raise ValueError("degenerate segment: a == b")
    return (p - a).dot(d) / denom


def _off_endpoints_on_segment(
    a: Point, b: Point, p: Point, eps: float
) -> Optional[bool]:
    """The float body of :func:`point_on_segment` and
    :func:`point_strictly_between`.

    ``None`` when ``p`` is within ``eps`` of ``a`` or ``b``.  Otherwise
    whether ``p`` lies on the segment: ``a`` and ``b`` are farther apart
    than ``eps``, ``p`` is inside :func:`orientation`'s collinearity band
    ``eps * max(|ab|, |ap|, 1)``, and its :func:`project_parameter` lies
    in ``[0, 1]`` widened by ``eps / |ab|``.  Each quantity is the one
    those functions compute, to the bit.
    """
    ax = a.x
    ay = a.y
    px = p.x
    py = p.y
    apx = px - ax
    apy = py - ay
    ap = math.hypot(apx, apy)
    if ap <= eps:
        return None
    bx = b.x
    by = b.y
    if math.hypot(px - bx, py - by) <= eps:
        return None
    dx = bx - ax
    dy = by - ay
    ab = math.hypot(dx, dy)
    if ab <= eps:
        return False
    if not abs(dx * apy - dy * apx) <= eps * max(ab, ap, 1.0):
        return False
    denom = dx * dx + dy * dy
    if denom == 0.0:
        raise ValueError("degenerate segment: a == b")
    t = (apx * dx + apy * dy) / denom
    slack = eps / ab
    return -slack <= t <= 1.0 + slack


def point_on_segment(
    a: Point, b: Point, p: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """True when ``p`` lies on the closed segment ``[a, b]``."""
    on = _off_endpoints_on_segment(a, b, p, tol.eps_dist)
    return True if on is None else on


def point_strictly_between(
    a: Point, b: Point, p: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """True when ``p`` lies on the *open* segment ``(a, b)``.

    This is the paper's "a robot is located in ``(r, c)``" test that
    decides whether a robot in an ``M`` configuration is free or blocked.
    """
    return _off_endpoints_on_segment(a, b, p, tol.eps_dist) is True


def on_ray(
    origin: Point, through: Point, p: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """True when ``p`` lies on the half-line ``HF(origin, through)``.

    Following the paper's definition, the half-line *excludes* its origin
    but includes every point beyond, in the direction of ``through``.
    """
    if through.close_to(origin, tol):
        raise ValueError("ray undefined: origin == through")
    if p.close_to(origin, tol):
        return False
    if not are_collinear(origin, through, p, tol):
        return False
    t = project_parameter(origin, through, p)
    return t > 0.0
