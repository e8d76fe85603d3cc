"""``WAIT-FREE-GATHER`` — the paper's algorithm (Figure 2).

The function :func:`wait_free_gather` maps a snapshot (a
:class:`~repro.core.configuration.Configuration`) and the calling robot's
own position to a destination point.  It is **oblivious** (pure function
of the snapshot), **anonymous** (depends only on the position, never an
identity) and **wait-free** (every robot not located at the single
distinguished location is instructed to move — Lemma 5.1's necessary
condition, checked by the invariant suite).

The OCR-damaged pseudocode was reconstructed from the prose of Section
V.B and the proofs of Section V.C; DESIGN.md section 6 records each
reconstruction decision.  Per-case rules:

``M``
    Move straight to the unique max-multiplicity point ``c`` when the
    open segment to it is robot-free; otherwise *side-step*: rotate
    clockwise about ``c`` (keeping the distance to ``c``) by one third of
    the clockwise angle to the nearest other occupied ray.  The side-step
    never creates a new multiplicity point (Lemma 5.3, claim C1).

``QR`` / ``L1W``
    Move straight to the Weber point, which is exactly computable for
    these classes and invariant under the movement (Lemmas 3.2–3.3).

``A``
    Move straight to the elected safe point (max ``(mult, -sum of
    distances, view)`` over the safe points of ``U(C)``).

``L2W``
    Interior robots move to the midpoint of the two extreme occupied
    positions; each extreme robot moves off the line — to the point at
    its same distance from the midpoint, rotated clockwise by ``pi/4``.

``B``
    Impossible (Lemma 5.2): :class:`BivalentConfigurationError`.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..geometry import (
    Point,
    normalize_angle,
    point_strictly_between,
    rotate_clockwise,
)
from .classification import ConfigClass, classify
from .configuration import Configuration
from .election import elect
from .errors import BivalentConfigurationError, NotAPositionError
from .quasi_regularity import quasi_regularity
from .safe_points import safe_points
from .successor import ray_structure
from .weber_point import linear_weber_points

__all__ = [
    "wait_free_gather",
    "destination_map",
    "SIDE_STEP_CAP",
    "L2W_ESCAPE_ANGLE",
]

#: Upper bound on the side-step rotation in the ``M`` case.  The paper's
#: proof manipulates an isosceles triangle with apex angle below pi/3;
#: capping at pi/4 keeps every rotation inside that regime, including the
#: degenerate all-robots-on-one-ray case where no other ray bounds the
#: rotation (see DESIGN.md section 6).
SIDE_STEP_CAP = math.pi / 4.0

#: Rotation applied to the extreme robots of an ``L2W`` configuration to
#: leave the line (algorithm lines 23-26).
L2W_ESCAPE_ANGLE = math.pi / 4.0


def wait_free_gather(config: Configuration, me: Point) -> Point:
    """Destination of the robot located at ``me`` under ``WAIT-FREE-GATHER``.

    Raises
    ------
    BivalentConfigurationError
        If the configuration is bivalent (gathering impossible).
    NotAPositionError
        If ``me`` is not an occupied position of ``config``.
    """
    r = config.locate(me)
    if r is None:
        raise NotAPositionError(f"{me!r} is not occupied in {config!r}")

    cls = classify(config)
    if cls is ConfigClass.BIVALENT:
        raise BivalentConfigurationError(
            "deterministic gathering from a bivalent configuration is "
            "impossible (Lemma 5.2)"
        )
    if cls is ConfigClass.MULTIPLE:
        return _move_multiple(config, r)
    if cls in (ConfigClass.QUASI_REGULAR, ConfigClass.LINEAR_UNIQUE_WEBER):
        return _weber_target(config, cls)
    if cls is ConfigClass.ASYMMETRIC:
        # The election depends only on the configuration, not on ``r``:
        # memoized so the n per-round callers (engine stall checks, one
        # compute per robot) elect once.
        return config.memo(
            "elected_safe", lambda: elect(config, safe_points(config))
        )
    assert cls is ConfigClass.LINEAR_MANY_WEBER
    return _move_linear_interval(config, r)


# -- case M ------------------------------------------------------------------


def _move_multiple(config: Configuration, r: Point) -> Point:
    c = config.max_multiplicity_points()[0]
    if r == c:
        return r  # lines 2-3: the elected location stays put
    # r and c themselves are never strictly between r and c, so the
    # whole support can be tested.
    tol = config.tol
    blocked = any(point_strictly_between(r, c, q, tol) for q in config.support)
    if not blocked:
        return c  # line 5: free robot heads straight for c
    return _side_step(config, r, c)


def _side_step(config: Configuration, r: Point, c: Point) -> Point:
    """Lines 7-12: rotate clockwise about ``c`` by a collision-free angle."""
    rays = ray_structure(config, c)
    from ..geometry import direction_angle

    my_angle = None
    others: List[float] = []
    for ray in rays:
        if any(p == r for p in ray.points):
            my_angle = ray.angle
        else:
            others.append(ray.angle)
    if my_angle is None:
        # r merged into a ray cluster whose representative angle was
        # computed from a different point; recompute directly.
        my_angle = normalize_angle(direction_angle(c, r))

    if others:
        # Clockwise gap = decrease of the CCW angle, wrapping.
        theta_v = min(normalize_angle(my_angle - a) for a in others)
    else:
        theta_v = 2.0 * math.pi  # all robots share my ray; any turn is free
    theta = min(theta_v / 3.0, SIDE_STEP_CAP)
    return rotate_clockwise(r, c, theta)


# -- cases QR and L1W ----------------------------------------------------------


def _weber_target(config: Configuration, cls: ConfigClass) -> Point:
    if cls is ConfigClass.QUASI_REGULAR:
        center = quasi_regularity(config).center
        assert center is not None  # classification guarantees it
        return center
    lo, hi = linear_weber_points(config)
    # L1W: the interval is degenerate; either endpoint is the unique WP.
    return lo


# -- case L2W ------------------------------------------------------------------


def _line_extremes(config: Configuration) -> "tuple[Point, Point]":
    """The two extreme occupied positions of a linear configuration."""
    from ..geometry import project_parameter

    anchor = config.support[0]
    far = max(config.support, key=anchor.distance_to)
    lo = min(config.support, key=lambda p: project_parameter(anchor, far, p))
    hi = max(config.support, key=lambda p: project_parameter(anchor, far, p))
    return lo, hi


def _move_linear_interval(config: Configuration, r: Point) -> Point:
    lo, hi = _line_extremes(config)
    center = (lo + hi) / 2.0
    if r == lo or r == hi:
        # Extreme robots escape the line (lines 23-26).  Both extremes
        # rotate clockwise, so simultaneous activation keeps them
        # antipodal about the center — never bivalent (Lemma 5.7).
        return rotate_clockwise(r, center, L2W_ESCAPE_ANGLE)
    return center  # line 20: interior robots contract to the center


# -- analysis helper -----------------------------------------------------------


def destination_map(config: Configuration) -> Dict[Point, Point]:
    """Destination of each occupied position (all robots at one position
    receive the same instruction — the algorithm is anonymous).

    Used by the invariant suite to check Lemma 5.1's wait-freedom
    condition ``|U(P setminus M(P, A))| <= 1``.
    """
    return {p: wait_free_gather(config, p) for p in config.support}
