"""Circles and the smallest enclosing circle (SEC).

The paper uses ``sec(C)``, the smallest circle enclosing the *distinct*
positions ``U(C)``, to anchor the view construction (Definition 2): every
robot measures its reference direction towards ``center(sec(U(C)))``.
Because the SEC is invariant under the robots' local frames (it is defined
by the point set alone), all robots agree on this center up to their own
coordinates — exactly the property the views need.

We implement Welzl's move-to-front algorithm.  The expected-linear-time
randomized version shuffles the input; we shuffle with a *fixed* seed
derived from nothing at all (a constant), so the computation stays
deterministic run-to-run while still defeating adversarially sorted
inputs.  For the configuration sizes of this library (tens of robots) the
asymptotics are irrelevant; determinism is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .point import Point
from .tolerance import DEFAULT_TOLERANCE, Tolerance

__all__ = ["Circle", "smallest_enclosing_circle", "circumcircle"]


@dataclass(frozen=True)
class Circle:
    """A circle given by center and radius; radius 0 is a point."""

    center: Point
    radius: float

    def contains(self, p: Point, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Closed-disk membership, with a tolerance band on the boundary."""
        return self.center.distance_to(p) <= self.radius + tol.eps_dist

    def on_boundary(self, p: Point, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """True when ``p`` is on the circle itself (within tolerance)."""
        return abs(self.center.distance_to(p) - self.radius) <= tol.eps_dist


def circumcircle(a: Point, b: Point, c: Point) -> Optional[Circle]:
    """Circle through three points, or ``None`` when they are collinear.

    Uses the standard determinant formulas; collinearity is detected by a
    vanishing denominator rather than a tolerance because the caller
    (Welzl) only needs protection against exact degeneracy — a nearly
    collinear triple still defines a valid (huge) circumcircle.
    """
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if d == 0.0:
        return None
    a2, b2, c2 = a.norm_sq(), b.norm_sq(), c.norm_sq()
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    center = Point(ux, uy)
    radius = max(center.distance_to(p) for p in (a, b, c))
    return Circle(center, radius)


def _circle_two(a: Point, b: Point) -> Circle:
    center = (a + b) / 2.0
    return Circle(center, max(center.distance_to(a), center.distance_to(b)))


def _in_circle(circle: Optional[Circle], p: Point) -> bool:
    if circle is None:
        return False
    # The relative slack keeps the incremental algorithm stable when many
    # points lie exactly on the final circle (regular polygons do).
    slack = 1e-12 * max(1.0, circle.radius)
    return circle.center.distance_to(p) <= circle.radius + slack


def _sec_one_boundary(points: Sequence[Point], p: Point) -> Circle:
    circle = Circle(p, 0.0)
    for i, q in enumerate(points):
        if not _in_circle(circle, q):
            if circle.radius == 0.0 and circle.center == p:
                circle = _circle_two(p, q)
            else:
                circle = _sec_two_boundary(points[:i], p, q)
    return circle


def _sec_two_boundary(points: Sequence[Point], p: Point, q: Point) -> Circle:
    circ = _circle_two(p, q)
    left: Optional[Circle] = None
    right: Optional[Circle] = None
    pq = q - p
    for r in points:
        if _in_circle(circ, r):
            continue
        cross = pq.cross(r - p)
        c = circumcircle(p, q, r)
        if c is None:
            continue
        if cross > 0.0 and (
            left is None or pq.cross(c.center - p) > pq.cross(left.center - p)
        ):
            left = c
        elif cross < 0.0 and (
            right is None or pq.cross(c.center - p) < pq.cross(right.center - p)
        ):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        assert right is not None
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def smallest_enclosing_circle(points: Iterable[Point]) -> Circle:
    """Smallest circle enclosing all points (Welzl, deterministic seed).

    Raises :class:`ValueError` on empty input.  A single point yields a
    radius-0 circle centered at it, matching the paper's degenerate case
    of a gathered configuration.
    """
    pts: List[Point] = list(points)
    if not pts:
        raise ValueError("smallest enclosing circle of an empty set")
    # Deterministic shuffle: reproducible across runs, input-order free.
    rng = random.Random(0x5EC)
    shuffled = pts[:]
    rng.shuffle(shuffled)

    circle: Optional[Circle] = None
    for i, p in enumerate(shuffled):
        if circle is None or not _in_circle(circle, p):
            circle = _sec_one_boundary(shuffled[:i], p)
    assert circle is not None
    # Tighten the radius to exactly cover every input point: the
    # incremental slacks can leave the radius a few ulps short.
    radius = max((circle.center.distance_to(p) for p in pts), default=0.0)
    return Circle(circle.center, radius)
