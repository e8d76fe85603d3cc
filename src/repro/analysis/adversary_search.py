"""Greedy adversarial search for the bivalent trap.

The fixed adversaries of :mod:`repro.sim` each encode one attack.  This
module is the *search* version: a joint adversary that controls the
scheduler and every movement cut-off simultaneously and, each round,
greedily picks the combination that moves the configuration closest to
the bivalent configuration ``B`` (measured by :func:`bivalence_score`).

It exists to strengthen experiment E12 beyond fixed attacks:

* against the **ablated** ``naive-leader`` algorithm the hunt routinely
  reaches ``B`` (it rediscovers the collusive-stacking attack on its
  own);
* against ``WAIT-FREE-GATHER`` the paper proves ``B`` unreachable
  (Lemmas 4.3, 5.6 C1, 5.7); the hunt must come back empty-handed, and
  the minimum score it ever achieves is reported as the measured safety
  margin.

The search is deliberately simple — one-step lookahead over a bounded
family of activation subsets with per-robot greedy stop choices —
because the attack it needs to find (stack co-ray movers at a common
point) is a one-step pattern.  It is an *adversary*, not a verifier:
failure to find ``B`` is evidence, the invariant monitor plus the
paper's proof are the guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.base import GatheringAlgorithm
from ..core import (
    ConfigClass,
    Configuration,
    GatheringError,
    classify,
)
from ..geometry import DEFAULT_TOLERANCE, Point, Tolerance

__all__ = ["bivalence_score", "BivalentHunt", "HuntResult"]


def bivalence_score(config: Configuration) -> int:
    """Distance-to-``B`` heuristic: 0 iff the configuration is bivalent.

    With support multiplicities sorted descending ``m1 >= m2 >= ...``:

        score = 2 * (robots outside the two biggest stacks)
              + |m1 - m2|
              + (number of occupied locations - 2)

    Every summand is a count of robots/locations that must change for
    the configuration to become two balanced points, so the greedy
    adversary has a meaningful gradient to descend.
    """
    mults = sorted(config.multiplicities().values(), reverse=True)
    m1 = mults[0]
    m2 = mults[1] if len(mults) > 1 else 0
    rest = config.n - m1 - m2
    return 2 * rest + abs(m1 - m2) + max(0, len(mults) - 2)


@dataclass
class HuntResult:
    """Outcome of a bivalent hunt."""

    reached_bivalent: bool
    rounds: int
    best_score: int
    score_trace: List[int]
    final_class: ConfigClass


class BivalentHunt:
    """One-step-greedy joint adversary (scheduler + movement cut-offs).

    Parameters
    ----------
    algorithm:
        The algorithm under attack (run in global coordinates — the
        adversary's power does not depend on the robots' frames).
    positions:
        Initial configuration.
    delta:
        Minimum guaranteed progress per interrupted move.
    subset_budget:
        How many random activation subsets to try per round, on top of
        the structured family (every singleton, the full set, and each
        per-location cluster).
    """

    def __init__(
        self,
        algorithm: GatheringAlgorithm,
        positions: Sequence[Point],
        *,
        delta: float = 0.2,
        tol: Tolerance = DEFAULT_TOLERANCE,
        subset_budget: int = 8,
        seed: int = 0,
    ) -> None:
        if not positions:
            raise ValueError("the hunt needs at least one robot")
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.algorithm = algorithm
        self.points: List[Point] = list(positions)
        self.delta = delta
        self.tol = tol
        self.subset_budget = subset_budget
        self.rng = random.Random(seed)

    # -- candidate generation --------------------------------------------------

    def _candidate_subsets(self, config: Configuration) -> List[Set[int]]:
        n = len(self.points)
        everyone = set(range(n))
        subsets: List[Set[int]] = [everyone]
        subsets.extend({i} for i in range(n))
        # Per-location clusters: activating exactly the robots of one
        # occupied location is the move family behind the half-split
        # impossibility adversary.
        for support_point in config.support:
            cluster = {
                i
                for i, p in enumerate(self.points)
                if p.close_to(support_point, self.tol)
            }
            if 0 < len(cluster) < n:
                subsets.append(cluster)
        for _ in range(self.subset_budget):
            size = self.rng.randint(1, n)
            subsets.append(set(self.rng.sample(range(n), size)))
        # Deduplicate while keeping order.
        seen: List[Set[int]] = []
        for s in subsets:
            if s and s not in seen:
                seen.append(s)
        return seen

    def _stop_options(
        self, origin: Point, dest: Point, world: Sequence[Point]
    ) -> List[Point]:
        """Legal end points of one move the adversary may choose from.

        ``world`` is the *current* candidate configuration (robots the
        adversary already repositioned this round included), so stacking
        options can target mid-round stop points.  Every option respects
        the model's progress rule: travel at least ``min(delta, dist)``.
        """
        dist = origin.distance_to(dest)
        if dist <= self.delta:
            return [dest]
        options = [dest]
        for fraction in (self.delta / dist, 0.5, 0.75):
            t = max(self.delta / dist, min(1.0, fraction))
            options.append(origin + (dest - origin) * t)
        # Stop exactly on a robot position lying on the remaining
        # segment — the stacking move that manufactures multiplicities —
        # provided the stop is legal (>= delta of travel).
        from ..geometry import point_strictly_between

        for p in world:
            if p == origin:
                continue
            if not point_strictly_between(origin, dest, p, self.tol):
                continue
            if origin.distance_to(p) + 1e-12 >= self.delta:
                options.append(p)
        return options

    # -- one round ----------------------------------------------------------------

    def _destinations(self, config: Configuration) -> Optional[Dict[int, Point]]:
        try:
            return {
                i: self.algorithm.compute(config, p)
                for i, p in enumerate(self.points)
            }
        except GatheringError:
            return None

    def _apply_greedy(
        self, subset: Set[int], destinations: Dict[int, Point]
    ) -> List[Point]:
        """Per-robot greedy stop choices, in id order."""
        candidate = list(self.points)
        for rid in sorted(subset):
            dest = destinations[rid]
            if dest.close_to(candidate[rid], self.tol):
                continue
            options = self._stop_options(candidate[rid], dest, candidate)
            scored = []
            for option in options:
                trial = list(candidate)
                trial[rid] = option
                scored.append(
                    (bivalence_score(Configuration(trial, self.tol)), option)
                )
            scored.sort(key=lambda pair: pair[0])
            candidate[rid] = scored[0][1]
        return candidate

    def _apply_full(
        self, subset: Set[int], destinations: Dict[int, Point]
    ) -> List[Point]:
        """Everyone in the subset completes their move."""
        candidate = list(self.points)
        for rid in subset:
            candidate[rid] = destinations[rid]
        return candidate

    def _apply_collusive(
        self, subset: Set[int], destinations: Dict[int, Point]
    ) -> List[Point]:
        """Stack co-ray movers at a shared legal stop; others move fully.

        This is the attack primitive of :class:`repro.sim.CollusiveStop`
        made available to the search: groups of robots marching down one
        ray towards one destination are cut at the least-advanced
        mover's delta-stop, creating a multiplicity point in one round.
        """
        candidate = list(self.points)
        groups: Dict[Tuple[float, float, float, float], List[int]] = {}
        for rid in subset:
            origin, dest = candidate[rid], destinations[rid]
            dist = origin.distance_to(dest)
            if dist <= self.delta:
                candidate[rid] = dest
                continue
            direction = (origin - dest).normalized()
            key = (
                round(dest.x, 9),
                round(dest.y, 9),
                round(direction.x, 6),
                round(direction.y, 6),
            )
            groups.setdefault(key, []).append(rid)
        for members in groups.values():
            if len(members) < 2:
                for rid in members:
                    candidate[rid] = destinations[rid]
                continue
            rid0 = min(
                members,
                key=lambda r: candidate[r].distance_to(destinations[r]),
            )
            origin0, dest0 = candidate[rid0], destinations[rid0]
            dist0 = origin0.distance_to(dest0)
            stop = origin0 + (dest0 - origin0) * (self.delta / dist0)
            for rid in members:
                candidate[rid] = stop
        return candidate

    def step(self) -> bool:
        """Execute the adversary's best round; True while progress is legal."""
        config = Configuration(self.points, self.tol)
        destinations = self._destinations(config)
        if destinations is None:
            return False  # the algorithm refused (e.g. bivalent reached)

        strategies: List[Callable[[Set[int], Dict[int, Point]], List[Point]]] = [
            self._apply_greedy,
            self._apply_full,
            self._apply_collusive,
        ]
        best_points: Optional[List[Point]] = None
        best_key = None
        for subset in self._candidate_subsets(config):
            for strategy in strategies:
                candidate = strategy(subset, destinations)
                trial = Configuration(candidate, self.tol)
                mults = sorted(trial.multiplicities().values(), reverse=True)
                second = mults[1] if len(mults) > 1 else 0
                # Primary: the bivalence score; tie-break: prefer a big
                # second cluster (the structure B is actually made of).
                key = (bivalence_score(trial), -second)
                if best_key is None or key < best_key:
                    best_key, best_points = key, candidate
        if best_points is None:
            return False
        self.points = best_points
        return True

    # -- full hunt -------------------------------------------------------------------

    def run(self, max_rounds: int = 60) -> HuntResult:
        """Hunt for ``B`` for up to ``max_rounds`` adversary rounds."""
        scores: List[int] = []
        for _ in range(max_rounds):
            config = Configuration(self.points, self.tol)
            score = bivalence_score(config)
            scores.append(score)
            if classify(config) is ConfigClass.BIVALENT:
                return HuntResult(
                    reached_bivalent=True,
                    rounds=len(scores) - 1,
                    best_score=0,
                    score_trace=scores,
                    final_class=ConfigClass.BIVALENT,
                )
            if not self.step():
                break
        final = Configuration(self.points, self.tol)
        scores.append(bivalence_score(final))
        return HuntResult(
            reached_bivalent=classify(final) is ConfigClass.BIVALENT,
            rounds=len(scores) - 1,
            best_score=min(scores),
            score_trace=scores,
            final_class=classify(final),
        )
