"""Experiment E10 — beyond the paper: full asynchrony (ASYNC/CORDA).

The paper proves Theorem 5.1 in the ATOM model only and leaves ASYNC
open.  Here we decouple Look and Move (robots act on stale snapshots;
see :class:`repro.sim.lcm.PhasedActivation`) and measure whether the
algorithm still gathers.

This is an *exploration*, not a reproduction: the paper makes no claim
either way.  Empirical expectation from the structure of the algorithm:
the gathering targets of three of the four cases are stable under
concurrent motion (the max-multiplicity point of ``M`` never loses its
status — Lemma 5.3 C1; the Weber point of ``QR``/``L1W`` is
motion-invariant — Lemma 3.2), and the ``A``-case election converges by
the phi argument, so stale targets mostly remain correct targets.  The
table records gathering rates and the volume of genuinely stale moves.
"""

from __future__ import annotations

from typing import List

from ..algorithms import WaitFreeGather
from ..sim import PhasedActivation, Simulation, summarize_runs
from ..workloads import generate
from .report import Table
from .runner import make_crashes, make_movement, make_scheduler

__all__ = ["run"]

WORKLOADS = [
    "asymmetric",
    "multiple",
    "linear-unique",
    "linear-interval",
    "regular-polygon",
    "biangular",
    "near-bivalent",
    "unsafe-ray",
]


def run(quick: bool = True) -> List[Table]:
    seeds = range(4) if quick else range(20)
    sizes = [6, 8] if quick else [6, 8, 12]
    schedulers = ["random", "round-robin"] if quick else [
        "random",
        "round-robin",
        "laggard",
        "half-split",
    ]

    table = Table(
        "E10",
        "ASYNC (stale-snapshot) executions of wait-free-gather with "
        "f = n - 1 crashes - beyond the paper's ATOM guarantee",
        [
            "scheduler",
            "n",
            "runs",
            "gathered",
            "success%",
            "mean ticks",
            "stale moves/run",
        ],
    )
    for scheduler in schedulers:
        for n in sizes:
            results = []
            stale_total = 0
            for workload in WORKLOADS:
                for seed in seeds:
                    sim = Simulation(
                        WaitFreeGather(),
                        generate(workload, n, seed),
                        scheduler=make_scheduler(scheduler),
                        crash_adversary=make_crashes("random", n - 1),
                        movement=make_movement("random-stop"),
                        activation=PhasedActivation(),
                        seed=seed * 17 + 3,
                        fairness_bound=64,
                        max_rounds=100_000,
                    )
                    results.append(sim.run())
                    stale_total += sim.stale_moves
            summary = summarize_runs(results)
            table.add_row(
                scheduler,
                n,
                summary.runs,
                summary.gathered,
                100.0 * summary.success_rate,
                summary.mean_rounds_gathered,
                stale_total / summary.runs,
            )
    table.add_note(
        "the paper claims nothing here; 100% rows are an empirical "
        "observation, explained by the motion-invariance of the "
        "algorithm's targets (Lemmas 3.2, 5.3 C1)."
    )
    return [table]
