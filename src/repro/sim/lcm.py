"""Activation models — the pluggable half of the unified LCM engine.

Every robot model in the literature runs the same LOOK–COMPUTE–MOVE
cycle; what distinguishes ATOM (FSYNC/SSYNC) from ASYNC (CORDA) is
*how the cycle is scheduled*:

:class:`AtomicActivation`
    one activation executes the whole cycle atomically, and all moves of
    a round are applied against one shared snapshot — a round-global
    barrier.  This is the semi-synchronous model the paper proves
    WAIT-FREE-GATHER correct in (FSYNC is the special case where the
    scheduler activates everybody).

:class:`PhasedActivation`
    LOOK+COMPUTE and MOVE are *separate* activations, scheduled
    independently per robot with no barrier in between: a robot's
    destination is computed against the configuration at its LOOK and
    executed whenever the scheduler next activates it, by which time the
    world may have moved on.  The pending (stale) destination is the
    hazard the CORDA model adds, and the :class:`PendingMove` table here
    is exactly that staleness made explicit.

The engine (:class:`repro.sim.Simulation`) owns everything the two
models share — crashes, fair scheduling, snapshots with visibility /
noise / byzantine ablations, movement-model identity hooks, destination
snapping, trace records — and asks its activation model which phase an
activation runs and where half-finished cycles live.  An ASYNC run is
``Simulation(..., activation=PhasedActivation())``; the committed corpus
pins both models bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Protocol, runtime_checkable

from ..geometry import Point

__all__ = [
    "ActivationModel",
    "AtomicActivation",
    "PendingMove",
    "PhasedActivation",
]


@dataclass
class PendingMove:
    """A computed but not yet executed move (the stale destination)."""

    destination: Point
    looked_at_tick: int


@runtime_checkable
class ActivationModel(Protocol):
    """Strategy deciding how LCM cycles map onto scheduler activations."""

    #: Engine label — flows into trace meta, obs events and span attrs.
    name: str
    #: ``False``: one activation = one atomic cycle with a round-global
    #: move barrier.  ``True``: LOOK and MOVE are separate activations
    #: resolved sequentially in robot order, no barrier.
    phased: bool
    #: Half-finished cycles: robot id -> its computed destination.
    #: Always empty for an atomic model.
    pending: Dict[int, PendingMove]

    def on_crash(self, robot_id: int) -> None:
        """A robot crashed: drop whatever cycle state it held."""
        ...


class AtomicActivation:
    """ATOM semantics: every activation is a full atomic LCM cycle.

    All active robots observe the *same* snapshot and their moves are
    applied simultaneously — no robot ever holds a pending destination,
    so :attr:`pending` stays empty by construction.
    """

    name = "atom"
    phased = False

    def __init__(self) -> None:
        self.pending: Dict[int, PendingMove] = {}

    def on_crash(self, robot_id: int) -> None:
        # Nothing to drop: cycles never outlive their activation.
        return None


class PhasedActivation:
    """CORDA semantics: LOOK+COMPUTE and MOVE are separate activations.

    An idle robot's next activation snapshots the *current* world and
    parks the computed destination in :attr:`pending`; its following
    activation executes that (possibly stale) move.  Activations resolve
    sequentially in robot order within a tick — a later robot's LOOK
    already sees an earlier robot's move of the same tick, which is
    precisely the absence of the ATOM barrier.
    """

    name = "async"
    phased = True

    def __init__(self) -> None:
        self.pending: Dict[int, PendingMove] = {}

    def on_crash(self, robot_id: int) -> None:
        # A crashed robot never executes its computed move.
        self.pending.pop(robot_id, None)

    def divergent_pending(
        self, spot: Point, live_ids: Iterable[int], tol
    ) -> bool:
        """Does any live robot hold a pending move away from ``spot``?

        The gathered predicate must refuse a configuration where
        everyone stands together but a stale destination is about to
        pull someone back out.
        """
        live = set(live_ids)
        return any(
            rid in live and not entry.destination.close_to(spot, tol)
            for rid, entry in self.pending.items()
        )
