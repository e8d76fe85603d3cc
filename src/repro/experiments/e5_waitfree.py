"""Experiment E5 — Lemma 5.1: wait-freedom, necessary and satisfied.

*Claims*:

1. ``WAIT-FREE-GATHER`` satisfies the necessary condition at every
   reachable configuration: at most one occupied location is instructed
   to stay (``|U(P \\ M(P, A))| <= 1``).
2. The condition is *necessary*: the sequential baseline violates it
   (many waiting locations), and a single well-placed crash converts
   each violation into a permanent deadlock.  We crash exactly the
   designated mover at round 0 and count deadlocks.
"""

from __future__ import annotations

from typing import List

from ..algorithms import ALGORITHMS, SequentialGather
from ..core import Configuration
from ..sim import CrashAtRounds, Simulation, summarize_runs
from ..workloads import generate
from .report import Table
from .runner import make_movement, make_scheduler

__all__ = ["run", "count_staying_locations"]


def count_staying_locations(algorithm, config: Configuration) -> int:
    """``|U(P \\ M(P, A))|`` for an arbitrary algorithm."""
    stays = 0
    for p in config.support:
        if algorithm.compute(config, p).close_to(p, config.tol):
            stays += 1
    return stays


def _mover_of_sequential(config: Configuration) -> int:
    """Index of a robot the sequential algorithm designates to move."""
    algo = SequentialGather()
    for index, p in enumerate(config.points):
        if not algo.compute(config, p).close_to(p, config.tol):
            return index
    return 0


def run(quick: bool = True) -> List[Table]:
    seeds = range(10) if quick else range(50)
    sizes = [5, 8] if quick else [5, 8, 12, 16]

    condition = Table(
        "E5a",
        "Lemma 5.1: staying locations |U(P \\ M(P,A))| over random "
        "configurations (must be <= 1 for crash tolerance)",
        ["algorithm", "n", "configs", "max stays", "mean stays", "violations"],
    )
    for name in ("wait-free-gather", "sequential"):
        algo_cls = ALGORITHMS[name]
        for n in sizes:
            counts = []
            for seed in seeds:
                config = Configuration(generate("random", n, seed))
                counts.append(count_staying_locations(algo_cls(), config))
            condition.add_row(
                name,
                n,
                len(counts),
                max(counts),
                sum(counts) / len(counts),
                sum(1 for c in counts if c > 1),
            )

    deadlock = Table(
        "E5b",
        "The violation bites: crash the sequential mover at round 0 "
        "(f = 1) and watch for deadlock; wait-free-gather shrugs it off",
        ["algorithm", "n", "runs", "gathered", "stalled (deadlock)"],
    )
    for name in ("sequential", "wait-free-gather"):
        algo_cls = ALGORITHMS[name]
        for n in sizes:
            results = []
            for seed in seeds:
                points = generate("random", n, seed)
                mover = _mover_of_sequential(Configuration(points))
                sim = Simulation(
                    algo_cls(),
                    points,
                    scheduler=make_scheduler("random"),
                    crash_adversary=CrashAtRounds({mover: 0}),
                    movement=make_movement("rigid"),
                    seed=seed,
                    max_rounds=2_000,
                )
                results.append(sim.run())
            summary = summarize_runs(results)
            deadlock.add_row(
                name, n, summary.runs, summary.gathered, summary.stalled
            )
    deadlock.add_note(
        "the crashed robot is the one the *sequential* algorithm would "
        "move first; for wait-free-gather the same crash is harmless."
    )
    return [condition, deadlock]
