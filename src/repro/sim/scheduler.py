"""Activation schedulers for the LCM-cycle engine.

Each round the adversarial scheduler picks an arbitrary subset of the
live robots to advance (one atomic cycle under ATOM, one phase under
the phased/CORDA activation model).  The only obligation is *fairness*:
every correct robot is activated infinitely often.  The engine enforces
fairness mechanically (see :class:`FairnessWrapper`), so individual
schedulers are free to be as hostile as they like.

The suite of schedulers mirrors the extremes the correctness proofs
quantify over:

* :class:`FullySynchronous` — everybody, every round (FSYNC).
* :class:`RoundRobin` — exactly one robot per round (maximal asynchrony
  among fair ATOM schedules).
* :class:`RandomSubset` — independent coin per robot (the "generic"
  adversary used for statistical experiments).
* :class:`LaggardAdversary` — starves a chosen victim for as long as
  fairness permits, modelling the slowest-robot worst case.
* :class:`HalfSplitAdversary` — the impossibility proof's scheduler:
  activates one co-located cluster at a time, re-creating bivalent
  stand-offs forever against naive algorithms.
* :class:`PoissonScheduler` — per-robot exponential activation clocks
  (the LCMmodel-style continuous-time schedule, discretized).
"""

from __future__ import annotations

import random
from typing import Optional, Protocol, Sequence, Set

__all__ = [
    "Scheduler",
    "FullySynchronous",
    "RoundRobin",
    "RandomSubset",
    "LaggardAdversary",
    "HalfSplitAdversary",
    "PoissonScheduler",
    "FairnessWrapper",
]


class Scheduler(Protocol):
    """Strategy choosing the robots to activate in a round."""

    name: str

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        """Subset of ``live_ids`` to activate (may be empty; the engine
        guarantees overall progress via the fairness wrapper)."""
        ...


class FullySynchronous:
    """FSYNC: all live robots act every round."""

    name = "fsync"

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        return set(live_ids)


class RoundRobin:
    """Exactly one live robot per round, cycling in id order.

    The strictest fair schedule: between two activations of a robot,
    every other robot acts exactly once.
    """

    name = "round-robin"

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        if not live_ids:
            return set()
        ordered = sorted(live_ids)
        return {ordered[round_index % len(ordered)]}


class RandomSubset:
    """Each live robot is activated independently with probability ``p``."""

    name = "random"

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError("activation probability must be in (0, 1]")
        self.p = p
        self.name = f"random(p={p:g})"

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        return {rid for rid in live_ids if rng.random() < self.p}


class LaggardAdversary:
    """Starve one victim robot as long as fairness allows.

    The victim is re-chosen whenever it crashes: the adversary always
    wants a *correct* robot to lag, since starving a crashed robot is a
    no-op.  All other robots are activated every round, producing maximal
    divergence between the laggard's stale world-view and reality.
    """

    name = "laggard"

    def __init__(self, victim: int = 0) -> None:
        self.initial_victim = victim

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        ids = set(live_ids)
        victim = self.initial_victim
        if victim not in ids and ids:
            victim = min(ids)
        return ids - {victim}


class HalfSplitAdversary:
    """The impossibility proof's scheduler: activate one cluster at a time.

    The argument behind Lemma 5.2 (and the classic ``n = 2``
    impossibility) lets the adversary activate the robots of one of the
    two bivalent locations per round, so that any "move to a common
    point" rule re-creates a two-location configuration forever.  This
    scheduler generalizes that: each round it activates either the
    robots on the lexicographically smallest occupied location or all
    the others, alternating.

    It needs to see positions; the engine feeds them through
    :meth:`observe` before each selection.
    """

    name = "half-split"

    def __init__(self) -> None:
        self._positions = {}

    def observe(self, positions) -> None:
        """Engine hook: latest global positions (id -> Point)."""
        self._positions = dict(positions)

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        ids = [rid for rid in live_ids if rid in self._positions]
        if not ids:
            return set(live_ids)
        anchor = min(self._positions[rid] for rid in ids)
        cluster = {
            rid
            for rid in ids
            if self._positions[rid].distance_to(anchor) <= 1e-9
        }
        rest = set(ids) - cluster
        if round_index % 2 == 0 or not rest:
            return cluster
        return rest


class PoissonScheduler:
    """Per-robot exponential activation clocks, discretized to rounds.

    Each robot owns an independent Poisson process of rate ``rate``: the
    gaps between its activations are exponential draws, so activations
    cluster and starve stochastically the way continuous-time schedules
    (the LCMmodel design) do — unlike :class:`RandomSubset`, whose
    per-round coins make every gap geometric with a hard floor of one
    round.  A robot is activated in every round its next event time has
    reached; its clock then advances by fresh exponential gaps past the
    current round.

    Robots are iterated in sorted id order and all draws come from the
    engine's dedicated scheduler substream, so a (seed, rate) pair fixes
    the whole schedule.  Fairness is not guaranteed by the process alone
    (a tail of long gaps can starve a robot arbitrarily long);
    :class:`FairnessWrapper` supplies the bound as usual.
    """

    name = "poisson"

    def __init__(self, rate: float = 0.5) -> None:
        if not rate > 0.0:
            raise ValueError("activation rate must be strictly positive")
        self.rate = rate
        self.name = f"poisson(rate={rate:g})"
        self._next: dict = {}

    def select(
        self, round_index: int, live_ids: Sequence[int], rng: random.Random
    ) -> Set[int]:
        chosen: Set[int] = set()
        for rid in sorted(live_ids):
            t = self._next.get(rid)
            if t is None:
                # Clock starts at the robot's first scheduled round: the
                # first gap is drawn from the same exponential as later
                # ones (time 0 is the start of the execution).
                t = rng.expovariate(self.rate)
            if t <= round_index:
                chosen.add(rid)
                while t <= round_index:
                    t += rng.expovariate(self.rate)
            self._next[rid] = t
        return chosen


class FairnessWrapper:
    """Engine-side fairness enforcement around any scheduler.

    Any live robot not activated for ``bound`` consecutive rounds is
    force-activated, and an empty selection falls back to activating the
    longest-idle live robot.  With ``bound`` finite every correct robot
    acts infinitely often in an infinite execution — the ATOM fairness
    obligation — regardless of the wrapped scheduler's malice.
    """

    def __init__(self, inner: Scheduler, bound: int = 32) -> None:
        if bound < 1:
            raise ValueError("fairness bound must be at least 1")
        self.inner = inner
        self.bound = bound
        self.name = inner.name

    def select(
        self,
        round_index: int,
        live_ids: Sequence[int],
        rng: random.Random,
        last_active: dict,
        positions: Optional[dict] = None,
    ) -> Set[int]:
        if positions is not None and hasattr(self.inner, "observe"):
            self.inner.observe(positions)
        chosen = set(self.inner.select(round_index, live_ids, rng)) & set(live_ids)
        for rid in live_ids:
            if round_index - last_active.get(rid, -1) >= self.bound:
                chosen.add(rid)
        if not chosen and live_ids:
            chosen.add(min(live_ids, key=lambda r: last_active.get(r, -1)))
        return chosen
