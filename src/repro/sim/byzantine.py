"""Byzantine robots — the stronger fault model the paper rules out.

Section I of the paper recalls the Agmon–Peleg result that a **single
byzantine robot** can prevent gathering of the correct robots even for
``n = 3`` — which is exactly why the paper restricts itself to crash
faults.  Experiment E11 reproduces that separation empirically: the same
algorithm that shrugs off ``n - 1`` crashes is derailed by one byzantine
robot executing a targeted strategy.

A byzantine robot is *controlled by the adversary*: when activated it
moves wherever its policy says, with full knowledge of the global state
(the adversary is omniscient), and it remains visible to — and counted
by — the correct robots, who cannot tell it apart from a teammate.
"""

from __future__ import annotations

import random
from typing import Dict, Protocol, Sequence

from ..geometry import Point, centroid

__all__ = [
    "ByzantinePolicy",
    "StationaryByzantine",
    "OscillatingByzantine",
    "ElectionThiefByzantine",
    "AntiGatherByzantine",
]


class ByzantinePolicy(Protocol):
    """Adversary strategy steering one byzantine robot."""

    name: str

    def destination(
        self,
        robot_id: int,
        positions: Dict[int, Point],
        correct_ids: Sequence[int],
        round_index: int,
        rng: random.Random,
    ) -> Point:
        """Where the byzantine robot moves this activation (global)."""
        ...


class StationaryByzantine:
    """Never moves — behaviourally identical to a crashed robot.

    The sanity policy: against it, gathering must still succeed
    (byzantine subsumes crash; a byzantine robot *choosing* to act
    crashed gives exactly the crash model the paper tolerates).
    """

    name = "stationary"

    def destination(self, robot_id, positions, correct_ids, round_index, rng):
        return positions[robot_id]


class OscillatingByzantine:
    """Bounces between two fixed locations forever.

    The classic anti-gathering strategy: any rule that incorporates the
    byzantine robot's position into its target computation chases a
    target that never settles.
    """

    name = "oscillating"

    def __init__(self, a: Point, b: Point) -> None:
        if a == b:
            raise ValueError("oscillation needs two distinct anchors")
        self.a = a
        self.b = b

    def destination(self, robot_id, positions, correct_ids, round_index, rng):
        current = positions[robot_id]
        # Head for whichever anchor is farther away: guarantees motion.
        if current.distance_to(self.a) >= current.distance_to(self.b):
            return self.a
        return self.b


class ElectionThiefByzantine:
    """Win the election, let the correct robots approach, then flee.

    The strategy behind the Agmon–Peleg byzantine impossibility: the
    byzantine robot makes *itself* the most attractive gathering target
    (multiplicities tie at 1, so the smallest sum of distances wins —
    i.e. a spot amid the correct robots), waits until a correct robot
    gets close, and relocates far away, stealing the election again from
    its new position.  Correct robots keep marching towards a target
    that never lets them arrive.

    The theft only works while no multiplicity point exists and the
    scheduler never lets two correct robots complete the same march in
    one round — which is why experiment E11 pairs this policy with the
    round-robin scheduler and short movement cut-offs.
    """

    name = "election-thief"

    def __init__(self, flee_radius: float = 1.0) -> None:
        if flee_radius <= 0:
            raise ValueError("flee radius must be positive")
        self.flee_radius = flee_radius
        self._phase = 0

    def destination(self, robot_id, positions, correct_ids, round_index, rng):
        me = positions[robot_id]
        others = [positions[rid] for rid in correct_ids]
        if not others:
            return me
        closest = min(me.distance_to(p) for p in others)
        center = centroid(others)
        spread = max(
            (center.distance_to(p) for p in others), default=1.0
        )
        if closest > self.flee_radius:
            # Camp near (not exactly on) the centroid: smallest distance
            # sum among all positions, hence election winner — the tiny
            # offset avoids accidentally stacking onto a robot and
            # creating the very multiplicity point that would end the
            # game.
            offset = Point(0.17 * self.flee_radius, 0.11 * self.flee_radius)
            return center + offset
        # Too close for comfort: relocate far out, rotating the escape
        # direction so the correct robots are dragged around forever.
        self._phase += 1
        angle = 2.39996 * self._phase  # golden-angle spin
        import math

        radius = max(2.0 * spread, 4.0 * self.flee_radius)
        return Point(
            center.x + radius * math.cos(angle),
            center.y + radius * math.sin(angle),
        )


class AntiGatherByzantine:
    """Reflects itself across the correct robots' centroid each step.

    Keeps the configuration's symmetry axis (and thus elections, Weber
    points and maximum-multiplicity tie-breaks) churning: the byzantine
    robot always appears on the *other* side of the team from where it
    last stood, at a standoff distance proportional to the team spread.
    """

    name = "anti-gather"

    def destination(self, robot_id, positions, correct_ids, round_index, rng):
        me = positions[robot_id]
        others = [positions[rid] for rid in correct_ids]
        if not others:
            return me
        center = centroid(others)
        spread = max((center.distance_to(p) for p in others), default=1.0)
        standoff = max(spread, 1.0) * 2.0
        away = me - center
        norm = away.norm()
        if norm < 1e-9:
            away = Point(1.0, 0.0)
            norm = 1.0
        # Mirror through the centroid, renormalized to the standoff.
        return center - away * (standoff / norm)
