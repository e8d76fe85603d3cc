"""Angle arithmetic under the paper's chirality convention.

The robots of the paper agree on the *clockwise* direction (chirality) but
not on a common North.  Consequently every angular quantity in the library
is a **clockwise** angle measured at some apex, normalized into
``[0, 2*pi)``.  This module is the single place where the screen-math
orientation mismatch is resolved: the standard mathematical convention is
counter-clockwise-positive, so a clockwise angle is the negation of
``atan2`` differences.

The choice of which rotational sense is called "clockwise" is itself a
global convention of the simulation; what matters for the algorithm is
that *all robots share it*, which the simulator guarantees by generating
only orientation-preserving local frames (see
:mod:`repro.geometry.transforms`).
"""

from __future__ import annotations

import math

from .point import Point

__all__ = [
    "TWO_PI",
    "normalize_angle",
    "direction_angle",
    "clockwise_angle",
    "rotate_clockwise",
]

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Normalize an angle into ``[0, 2*pi)``."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # fmod of a value infinitesimally below 0 can round to TWO_PI exactly.
    if theta >= TWO_PI:
        theta -= TWO_PI
    return theta


def direction_angle(origin: Point, target: Point) -> float:
    """Mathematical (CCW) direction angle of the ray ``origin -> target``.

    Used internally as a canonical key; everything chirality-sensitive
    should use :func:`clockwise_angle` instead.
    """
    return math.atan2(target.y - origin.y, target.x - origin.x)


def clockwise_angle(u: Point, apex: Point, v: Point) -> float:
    """The paper's ``angle(u, apex, v)``: clockwise sweep from ``u`` to ``v``.

    Returns the angle in ``[0, 2*pi)`` through which the ray ``apex -> u``
    must be rotated *clockwise* to coincide with the ray ``apex -> v``.

    Raises :class:`ValueError` when either ``u`` or ``v`` coincides with
    the apex (bitwise), because the ray is then undefined; callers dealing
    with multiplicities filter co-apex points first.
    """
    if u == apex or v == apex:
        raise ValueError("angle undefined: endpoint coincides with apex")
    a_u = direction_angle(apex, u)
    a_v = direction_angle(apex, v)
    # CCW convention: sweeping clockwise decreases the math angle.
    return normalize_angle(a_u - a_v)


def rotate_clockwise(p: Point, center: Point, theta: float) -> Point:
    """Rotate ``p`` about ``center`` by ``theta`` radians clockwise."""
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = p.x - center.x, p.y - center.y
    # Clockwise rotation = CCW rotation by -theta.
    return Point(center.x + c * dx + s * dy, center.y - s * dx + c * dy)
