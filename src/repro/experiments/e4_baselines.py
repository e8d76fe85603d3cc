"""Experiment E4 — baseline comparison (the paper's motivation, measured).

*Claims*:

* the classic sequential algorithm gathers fault-free but **deadlocks**
  with a single crash (why [1] was needed);
* the centroid rule converges but does not gather — and with crashes the
  survivors end up far from each other for longer (convergence is not
  gathering, Section I);
* the idealized Weber baseline and the paper's algorithm both gather
  under every fault budget, with comparable round counts — the paper's
  algorithm loses nothing for being finitely computable.

*Shape expectation*: success columns read 100/100/.../100 for
``wait-free-gather`` at every ``f``, and drop to ~0 for ``sequential``
as soon as ``f >= 1``.
"""

from __future__ import annotations

from typing import List

from ..sim import spread, summarize_runs
from .report import Table
from .runner import Scenario, run_batch

__all__ = ["run"]

ALGOS = ["wait-free-gather", "weber-numeric", "sequential", "naive-leader", "centroid"]


def run(quick: bool = True) -> List[Table]:
    seeds = range(5) if quick else range(30)
    n = 8
    budgets = [0, 1, 2] if quick else [0, 1, 2, 4, n - 1]

    table = Table(
        "E4",
        f"Baseline comparison on random workloads (n={n}, random "
        "scheduler, interruptible moves, random crashes)",
        [
            "algorithm",
            "f",
            "runs",
            "gathered%",
            "stalled%",
            "timeout%",
            "mean rounds",
            "final spread",
        ],
    )
    for algorithm in ALGOS:
        for f in budgets:
            scenario = Scenario(
                workload="random",
                n=n,
                algorithm=algorithm,
                scheduler="random",
                crashes="random",
                f=f,
                movement="random-stop",
                max_rounds=1_500,
            )
            results = run_batch(scenario, seeds)
            summary = summarize_runs(results)
            live_spreads = [
                spread(
                    [res.final_positions[rid] for rid in res.live_ids]
                )
                for res in results
            ]
            table.add_row(
                algorithm,
                f,
                summary.runs,
                100.0 * summary.success_rate,
                100.0 * summary.stalled / summary.runs,
                100.0 * summary.timed_out / summary.runs,
                summary.mean_rounds_gathered,
                sum(live_spreads) / len(live_spreads),
            )
    table.add_note(
        "'final spread' is the diameter of the correct robots at the end "
        "- zero means they met even if the verdict timed out."
    )
    table.add_note(
        "sequential deadlocks (stalls) whenever its designated mover "
        "crashes; centroid converges (spread ~ merge tolerance) but only "
        "counts as gathered once within the 1e-9 quantization."
    )
    return [table]
