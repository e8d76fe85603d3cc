"""Robot state tracked by the simulation engine.

A robot of the ATOM model is a position, a private coordinate frame
(disorientation with chirality) and a liveness flag.  Identities exist
only inside the engine — the algorithm never sees them — so ``robot_id``
is purely a bookkeeping handle for schedulers, crash adversaries and
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..geometry import IDENTITY_FRAME, Frame, Point

__all__ = ["Robot"]


@dataclass
class Robot:
    """Mutable per-robot record owned by the engine.

    The frame's rotation and scale are fixed for the robot's lifetime
    (its compass error and unit of distance); the frame is re-anchored at
    the robot's current position before every LOOK so the robot observes
    itself at the local origin, as the model prescribes.
    """

    robot_id: int
    position: Point
    frame: Frame = IDENTITY_FRAME
    crashed: bool = False
    crash_round: Optional[int] = None
    last_active_round: int = -1
    distance_travelled: float = 0.0

    @property
    def live(self) -> bool:
        """A robot is live (the paper's *correct*) until it crashes."""
        return not self.crashed

    def crash(self, round_index: int) -> None:
        """Permanently stop the robot (crash fault model)."""
        if not self.crashed:
            self.crashed = True
            self.crash_round = round_index

    def anchored_frame(self) -> Frame:
        """The private frame anchored at the current position."""
        return self.frame.with_origin(self.position)
