"""Circles and the smallest enclosing circle (SEC).

The paper uses ``sec(C)``, the smallest circle enclosing the *distinct*
positions ``U(C)``, to anchor the view construction (Definition 2): every
robot measures its reference direction towards ``center(sec(U(C)))``.
Because the SEC is invariant under the robots' local frames (it is defined
by the point set alone), all robots agree on this center up to their own
coordinates — exactly the property the views need.

We implement Welzl's move-to-front algorithm over ``(x, y)`` float pairs,
with each intermediate circle a ``(cx, cy, r)`` triple.  The
expected-linear-time randomized version shuffles the input; our shuffle
is a *fixed* permutation per input length (``random.Random(0x5EC)``
applied to ``range(n)``, computed once per length), so the computation
stays deterministic run-to-run while still defeating adversarially
sorted inputs.  For the configuration sizes of this library (tens of
robots) the asymptotics are irrelevant; determinism is not.

Determinism is per input *sequence*: floating-point rounding makes the
last bits of the center and radius depend on the order of the points.
:meth:`repro.core.configuration.Configuration.sec` passes its sorted
support, so equal configurations get bit-identical circles.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .point import Point
from .tolerance import DEFAULT_TOLERANCE, Tolerance

__all__ = ["Circle", "smallest_enclosing_circle", "circumcircle"]

#: A circle as ``(center x, center y, radius)``.
_Disk = Tuple[float, float, float]


@dataclass(frozen=True)
class Circle:
    """A circle given by center and radius; radius 0 is a point."""

    center: Point
    radius: float

    def contains(self, p: Point, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Closed-disk membership, with a tolerance band on the boundary."""
        return self.center.distance_to(p) <= self.radius + tol.eps_dist


def circumcircle(a: Point, b: Point, c: Point) -> Optional[Circle]:
    """Circle through three points, or ``None`` when they are collinear.

    Uses the standard determinant formulas; collinearity is detected by a
    vanishing denominator rather than a tolerance because the caller
    (Welzl) only needs protection against exact degeneracy — a nearly
    collinear triple still defines a valid (huge) circumcircle.
    """
    disk = _circumcircle(a.x, a.y, b.x, b.y, c.x, c.y)
    if disk is None:
        return None
    return Circle(Point(disk[0], disk[1]), disk[2])


def _circumcircle(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> Optional[_Disk]:
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    hypot = math.hypot
    radius = max(
        hypot(ux - ax, uy - ay), hypot(ux - bx, uy - by), hypot(ux - cx, uy - cy)
    )
    return ux, uy, radius


def _circle_two(ax: float, ay: float, bx: float, by: float) -> _Disk:
    cx = (ax + bx) / 2.0
    cy = (ay + by) / 2.0
    return cx, cy, max(math.hypot(cx - ax, cy - ay), math.hypot(cx - bx, cy - by))


def _reach(r: float) -> float:
    """Largest center distance a circle of radius ``r`` counts as inside.

    The relative slack keeps the incremental algorithm stable when many
    points lie exactly on the final circle (regular polygons do).
    """
    return r + 1e-12 * max(1.0, r)


def _sec_one_boundary(
    pts: Sequence[Tuple[float, float]], count: int, px: float, py: float
) -> _Disk:
    """SEC of ``pts[:count]`` and ``(px, py)``, with the latter on it."""
    hypot = math.hypot
    cx, cy, r = px, py, 0.0
    reach = _reach(r)
    for i in range(count):
        qx, qy = pts[i]
        if hypot(cx - qx, cy - qy) <= reach:
            continue
        if r == 0.0 and cx == px and cy == py:
            cx, cy, r = _circle_two(px, py, qx, qy)
        else:
            cx, cy, r = _sec_two_boundary(pts, i, px, py, qx, qy)
        reach = _reach(r)
    return cx, cy, r


def _sec_two_boundary(
    pts: Sequence[Tuple[float, float]],
    count: int,
    px: float,
    py: float,
    qx: float,
    qy: float,
) -> _Disk:
    """SEC of ``pts[:count]``, ``(px, py)`` and ``(qx, qy)``, with both
    of the latter on it."""
    hypot = math.hypot
    circ = _circle_two(px, py, qx, qy)
    cx, cy, r = circ
    reach = _reach(r)
    left: Optional[_Disk] = None
    right: Optional[_Disk] = None
    # How far each candidate's center lies to the left of p -> q.
    left_key = right_key = 0.0
    pqx = qx - px
    pqy = qy - py
    for i in range(count):
        rx, ry = pts[i]
        if hypot(cx - rx, cy - ry) <= reach:
            continue
        cross = pqx * (ry - py) - pqy * (rx - px)
        c = _circumcircle(px, py, qx, qy, rx, ry)
        if c is None:
            continue
        key = pqx * (c[1] - py) - pqy * (c[0] - px)
        if cross > 0.0 and (left is None or key > left_key):
            left, left_key = c, key
        elif cross < 0.0 and (right is None or key < right_key):
            right, right_key = c, key
    if left is None:
        return circ if right is None else right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


@functools.lru_cache(maxsize=128)
def _shuffle_order(n: int) -> Tuple[int, ...]:
    """The fixed Welzl shuffle of ``n`` points, as input indices."""
    order = list(range(n))
    random.Random(0x5EC).shuffle(order)
    return tuple(order)


def smallest_enclosing_circle(points: Iterable[Point]) -> Circle:
    """Smallest circle enclosing all points (Welzl, fixed shuffle).

    Raises :class:`ValueError` on empty input.  A single point yields a
    radius-0 circle centered at it, matching the paper's degenerate case
    of a gathered configuration.  The result is deterministic for a given
    input sequence but not input-order free: a permutation of the points
    can change the last bits of the center and radius (see the module
    docstring).
    """
    xy: List[Tuple[float, float]] = [(p.x, p.y) for p in points]
    if not xy:
        raise ValueError("smallest enclosing circle of an empty set")
    hypot = math.hypot
    shuffled = [xy[i] for i in _shuffle_order(len(xy))]
    cx, cy = shuffled[0]
    r = 0.0
    reach = _reach(r)
    for i in range(1, len(shuffled)):
        px, py = shuffled[i]
        if not hypot(cx - px, cy - py) <= reach:
            cx, cy, r = _sec_one_boundary(shuffled, i, px, py)
            reach = _reach(r)
    # Tighten the radius to exactly cover every input point: the
    # incremental slacks can leave the radius a few ulps short.
    radius = max([hypot(cx - x, cy - y) for x, y in xy])
    return Circle(Point(cx, cy), radius)
