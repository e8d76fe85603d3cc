"""Ray structure and the string of angles around a center (Definition 4).

The paper orders the robots that are not located at a candidate center
``c`` along a clockwise walk: rays from ``c`` are visited in clockwise
order, robots on one ray are visited by increasing distance, and
co-located robots consecutively.  The *string of angles* ``SA(c)`` is the
sequence of clockwise angles between consecutive robots in this walk —
``k`` robots sharing a ray contribute ``k - 1`` zero angles followed by
the angular gap to the next occupied ray.  The string has length
``m = n - mult(c)`` and sums to ``2*pi``.

Regularity (Definition 5) is a property of this string alone — distances
play no role — which is what lets robots *top up* deficient rays with
robots taken from the center during quasi-regularity completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..geometry import TWO_PI, Point, Tolerance, direction_angle, normalize_angle
from .configuration import Configuration

__all__ = [
    "Ray",
    "angular_resolution",
    "ray_structure",
    "string_of_angles",
    "periodicity",
]

#: Upper bound on the distance-aware angular tolerance; beyond this the
#: configuration is simply too degenerate for angular structure to mean
#: anything and detectors should give up rather than hallucinate.
MAX_ANGULAR_RESOLUTION = 0.05


def angular_resolution(config: Configuration, center: Point) -> float:
    """Effective angular tolerance for ray comparisons around ``center``.

    A point whose position is only known to ``eps_dist`` has a direction
    (seen from ``center``) only known to ``eps_dist / distance``.  The
    paper works in exact reals and never faces this; in the simulation,
    robots that stop just short of the center would otherwise poison the
    string of angles with arbitrarily large angular noise.  We therefore
    scale the angular tolerance by the closest off-center robot, capped
    at :data:`MAX_ANGULAR_RESOLUTION`.
    """
    tol = config.tol
    d_min = None
    for p in config.support:
        if p.close_to(center, tol):
            continue
        d = center.distance_to(p)
        if d_min is None or d < d_min:
            d_min = d
    if d_min is None or d_min <= 0.0:
        return tol.eps_angle
    return min(MAX_ANGULAR_RESOLUTION, tol.eps_angle + tol.eps_dist / d_min)


@dataclass(frozen=True)
class Ray:
    """One occupied ray from a center point.

    ``angle`` is the mathematical (CCW) direction angle in ``[0, 2*pi)``
    used purely as a sorting key; clockwise semantics appear only in the
    gap computation.  ``count`` is the number of robots on the ray
    (multiplicities included) and ``points`` the support points on it,
    sorted by increasing distance from the center.
    """

    angle: float
    count: int
    points: Tuple[Point, ...]


def ray_structure(config: Configuration, center: Point) -> List[Ray]:
    """Occupied rays from ``center``, sorted by CCW direction angle.

    Support points within tolerance of ``center`` are excluded (robots at
    the center are not part of the string of angles).  Angles are
    clustered with the angular tolerance, including the wrap-around at
    ``0 / 2*pi``, so nearly-identical directions form one ray.

    Memoized per ``(configuration, center)``: quasi-regularity probes the
    same center once per candidate multiplicity and every active robot's
    side-step walks the same rays, so the structure is derived once.
    Callers must not mutate the returned list.
    """
    cache = config.memo("rays", dict)
    cached = cache.get(center)
    if cached is not None:
        return cached
    rays = _ray_structure(config, center)
    cache[center] = rays
    return rays


def _ray_structure(config: Configuration, center: Point) -> List[Ray]:
    tol = config.tol
    eps_ang = angular_resolution(config, center)
    entries: List[Tuple[float, Point, int]] = []
    for p in config.support:
        if p.close_to(center, tol):
            continue
        phi = normalize_angle(direction_angle(center, p))
        entries.append((phi, p, config.mult(p)))
    if not entries:
        return []

    entries.sort(key=lambda e: e[0])
    # Cluster consecutive angles within tolerance; merge across the
    # 0/2*pi seam afterwards.
    clusters: List[List[Tuple[float, Point, int]]] = [[entries[0]]]
    for e in entries[1:]:
        if e[0] - clusters[-1][-1][0] <= eps_ang:
            clusters[-1].append(e)
        else:
            clusters.append([e])
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if (first[0][0] + TWO_PI) - last[-1][0] <= eps_ang:
            clusters[0] = last + first
            clusters.pop()

    rays: List[Ray] = []
    for cluster in clusters:
        pts = sorted((p for _, p, _ in cluster), key=center.distance_to)
        count = sum(m for _, _, m in cluster)
        # Representative angle: the direction of the closest point keeps
        # the key stable under robots moving along the ray.
        angle = normalize_angle(direction_angle(center, pts[0]))
        rays.append(Ray(angle=angle, count=count, points=tuple(pts)))
    rays.sort(key=lambda r: r.angle)
    return rays


def string_of_angles(config: Configuration, center: Point) -> List[float]:
    """The string of angles ``SA(center)`` (Definition 4).

    Starting robot is canonical (the first ray in clockwise order from
    the positive x-axis); periodicity is rotation invariant so the
    choice does not affect :func:`periodicity`.

    Returns the empty list when every robot sits at ``center``.
    """
    rays = ray_structure(config, center)
    if not rays:
        return []
    if len(rays) == 1:
        return [0.0] * (rays[0].count - 1) + [TWO_PI]

    # Clockwise traversal = decreasing CCW angle.  Gap from a ray to the
    # next ray clockwise is (angle - next_angle) mod 2*pi.
    ordered = sorted(rays, key=lambda r: -r.angle)
    sa: List[float] = []
    for i, ray in enumerate(ordered):
        nxt = ordered[(i + 1) % len(ordered)]
        gap = normalize_angle(ray.angle - nxt.angle)
        if gap == 0.0:
            gap = TWO_PI  # distinct rays a full turn apart: single-ray case
        sa.extend([0.0] * (ray.count - 1))
        sa.append(gap)
    return sa


def periodicity(
    sa: Sequence[float], tol: Tolerance, band: Optional[float] = None
) -> int:
    """``per(SA)``: the greatest ``k`` such that ``SA = x^k`` (Definition 4).

    ``band`` is the angular comparison tolerance; callers that derived
    the string from a configuration pass ``2 * angular_resolution(...)``
    (each ``SA`` entry is the difference of two direction angles).  The
    default falls back to twice the static angular quantum.
    """
    m = len(sa)
    if m == 0:
        return 1
    if band is None:
        band = 2.0 * tol.eps_angle
    for k in range(m, 1, -1):
        if m % k != 0:
            continue
        d = m // k
        if all(abs(sa[i] - sa[i % d]) <= band for i in range(m)):
            return k
    return 1
