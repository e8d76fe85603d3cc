"""Crash adversaries — when and whom to crash (fault model of Section II).

A crashed robot stops taking actions forever but remains visible; up to
``f < n`` robots may crash at arbitrary times.  The adversary decides
*which* robots and *when*, and the interesting adversaries are the ones
aimed at the proofs' progress arguments:

* :class:`CrashAfterMove` realizes the adversary of Lemma 5.3's claim C2
  — it crashes a robot immediately after that robot moves, trying to
  forever re-block the path of some correct robot.  The lemma argues the
  adversary "runs out of live robots"; experiment E1 confirms it.
* :class:`CrashElected` kills robots located at the current gathering
  target, forcing the election/maximum to keep shifting.
"""

from __future__ import annotations

import random
from typing import Dict, Protocol, Sequence, Set

from ..core import Configuration
from ..geometry import Point

__all__ = [
    "CrashAdversary",
    "NoCrashes",
    "CrashAtRounds",
    "RandomCrashes",
    "CrashAfterMove",
    "CrashElected",
]


class CrashAdversary(Protocol):
    """Strategy deciding the robots that crash at the start of a round."""

    name: str
    budget: int

    def crashes(
        self,
        round_index: int,
        live_ids: Sequence[int],
        positions: Dict[int, Point],
        last_moved: Set[int],
        rng: random.Random,
    ) -> Set[int]:
        """Ids (subset of ``live_ids``) crashing now.

        ``last_moved`` contains the robots that changed position during
        the previous round — ammunition for move-reactive adversaries.
        The engine truncates the result to the remaining fault budget.
        """
        ...


class NoCrashes:
    """The fault-free baseline adversary."""

    name = "no-crash"
    budget = 0

    def crashes(self, round_index, live_ids, positions, last_moved, rng):
        return set()


class CrashAtRounds:
    """Deterministic schedule: ``{robot_id: round_index}``.

    Used by regression tests to replay exact fault patterns.
    """

    name = "scheduled"

    def __init__(self, schedule: Dict[int, int]) -> None:
        self.schedule = dict(schedule)
        self.budget = len(self.schedule)

    def crashes(self, round_index, live_ids, positions, last_moved, rng):
        return {
            rid
            for rid, when in self.schedule.items()
            if when == round_index and rid in set(live_ids)
        }


class RandomCrashes:
    """Crash up to ``f`` uniformly random robots, one with probability
    ``rate`` per round.

    With the default rate the faults spread over the execution rather
    than front-loading, which exercises mid-flight re-classification.
    """

    name = "random-crash"

    def __init__(self, f: int, rate: float = 0.2) -> None:
        if f < 0:
            raise ValueError("fault budget must be non-negative")
        if not 0.0 < rate <= 1.0:
            raise ValueError("crash rate must be in (0, 1]")
        self.budget = f
        self.rate = rate
        self._crashed = 0

    def crashes(self, round_index, live_ids, positions, last_moved, rng):
        if self._crashed >= self.budget or not live_ids:
            return set()
        if rng.random() < self.rate:
            self._crashed += 1
            return {rng.choice(sorted(live_ids))}
        return set()


class CrashAfterMove:
    """Lemma 5.3's adversary: crash a robot right after it moves.

    Each time some robot moves, the adversary spends one unit of its
    budget to crash one of the movers (the first in id order, for
    determinism).  The proof's point: each crash can re-block a correct
    robot at most once, so the adversary exhausts its ``f < n`` budget
    and gathering still completes.
    """

    name = "crash-after-move"

    def __init__(self, f: int) -> None:
        if f < 0:
            raise ValueError("fault budget must be non-negative")
        self.budget = f
        self._crashed = 0

    def crashes(self, round_index, live_ids, positions, last_moved, rng):
        if self._crashed >= self.budget:
            return set()
        movers = sorted(set(live_ids) & last_moved)
        if not movers:
            return set()
        self._crashed += 1
        return {movers[0]}


class CrashElected:
    """Crash robots sitting on the point of maximum multiplicity.

    Aimed at the election invariants: by killing the robots that reached
    the target, the adversary hopes the "unique maximum" tie-breaks keep
    changing.  (They do not — multiplicity never decreases — which is
    exactly what the experiment verifies.)
    """

    name = "crash-elected"

    def __init__(self, f: int) -> None:
        if f < 0:
            raise ValueError("fault budget must be non-negative")
        self.budget = f
        self._crashed = 0

    def crashes(self, round_index, live_ids, positions, last_moved, rng):
        if self._crashed >= self.budget or not live_ids:
            return set()
        config = Configuration([positions[rid] for rid in sorted(positions)])
        target = config.max_multiplicity_points()[0]
        at_target = [
            rid
            for rid in sorted(live_ids)
            if positions[rid].close_to(target, config.tol)
        ]
        if not at_target:
            return set()
        self._crashed += 1
        return {at_target[0]}
