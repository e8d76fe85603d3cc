"""Run metrics and small statistics helpers for experiment tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..geometry import Point
from .engine import SimulationResult

__all__ = ["spread", "summarize_runs", "RunSummary"]


def spread(positions: Iterable[Point]) -> float:
    """Diameter of a point set — the simplest convergence measure."""
    pts = list(positions)
    best = 0.0
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            best = max(best, p.distance_to(q))
    return best


@dataclass(frozen=True)
class RunSummary:
    """Aggregate view over a batch of simulation results."""

    runs: int
    gathered: int
    impossible: int
    stalled: int
    timed_out: int
    mean_rounds_gathered: float
    #: ``None`` when no run gathered — never ``0``: tables render the
    #: absence as ``-``, and aggregation code cannot mistake a fully
    #: failed batch for instant gathering.
    max_rounds_gathered: Optional[int]
    mean_distance: float

    @property
    def success_rate(self) -> float:
        return self.gathered / self.runs if self.runs else 0.0


def summarize_runs(results: Sequence[SimulationResult]) -> RunSummary:
    """Fold a batch of results into the row an experiment table prints."""
    gathered = [r for r in results if r.gathered]
    rounds = [r.rounds for r in gathered]
    return RunSummary(
        runs=len(results),
        gathered=len(gathered),
        impossible=sum(1 for r in results if r.verdict == "impossible"),
        stalled=sum(1 for r in results if r.verdict == "stalled"),
        timed_out=sum(1 for r in results if r.verdict == "max-rounds"),
        mean_rounds_gathered=(sum(rounds) / len(rounds)) if rounds else math.nan,
        max_rounds_gathered=max(rounds) if rounds else None,
        mean_distance=(
            math.fsum(r.total_distance for r in gathered) / len(gathered)
            if gathered
            else math.nan
        ),
    )
