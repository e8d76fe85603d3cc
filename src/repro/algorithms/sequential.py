"""Classic wait-*ful* gathering baseline — the algorithm crashes break.

This reconstructs the pre-fault-tolerance style of gathering algorithm
that the paper (and Agmon–Peleg [1]) use as a foil: establish a unique
point of maximum multiplicity, then let robots join it **one at a time**
in a fixed order, every other robot *waiting* for its turn.  Ordered
joining guarantees no second multiplicity point ever forms, which makes
the algorithm correct for fault-free executions — and deadlock-prone the
moment one robot crashes:

* if the *designated mover* crashes, every other robot waits forever
  (the execution stalls in a non-gathered fixpoint);
* Lemma 5.1's wait-freedom condition ``|U(P \\ M(P, A))| <= 1`` is
  violated at every configuration with more than two occupied points.

Experiment E5 measures both effects.  The mover is chosen anonymously:
the occupied position closest to the target, ties broken by the view
order, so all robots agree on who moves without identities.
"""

from __future__ import annotations

from typing import List

from ..core import Configuration, election_key
from ..geometry import Point

__all__ = ["SequentialGather"]


class SequentialGather:
    """Single-mover gathering: correct without faults, deadlocks with one."""

    name = "sequential"

    def _target(self, config: Configuration) -> Point:
        tops = config.max_multiplicity_points()
        if len(tops) == 1:
            return tops[0]
        # No unique multiplicity point yet (e.g. the initial all-distinct
        # configuration): bootstrap deterministically towards the
        # election-maximal position.
        return max(tops, key=lambda p: election_key(config, p))

    def compute(self, config: Configuration, me: Point) -> Point:
        target = self._target(config)
        r = config.locate(me)
        if r is None or r == target:
            return me
        candidates: List[Point] = [
            p for p in config.support if p != target
        ]
        # Designated mover: nearest to the target; break distance ties
        # with the election key so the choice is common to all robots.
        mover = min(
            candidates,
            key=lambda p: (
                config.tol.quantize_length(p.distance_to(target)),
                election_key(config, p),
            ),
        )
        if r == mover:
            return target
        return me  # everyone else waits for the mover — NOT wait-free
