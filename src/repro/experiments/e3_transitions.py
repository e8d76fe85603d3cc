"""Experiment E3 — the class-transition lemmas (5.3–5.9), executed.

*Claims*: under one round of ``WAIT-FREE-GATHER``

* ``M -> M`` and the unique maximum point never changes (Lemma 5.3 C1);
* ``L1W -> {M, L1W}`` with the Weber point invariant (Lemma 5.4 C1);
* ``QR -> {M, L1W, QR}`` with the Weber point invariant (Lemma 5.5 C1);
* ``A  -> {M, L1W, QR, A}`` with the ``phi`` measure non-regressing
  (Lemma 5.6 C1-C2);
* ``L2W`` never transitions to ``B`` (Lemma 5.7).

*Design*: run every workload class under every scheduler with heavy
fault injection, attach the :class:`InvariantMonitor` (which raises on
any violated obligation), and additionally histogram the observed
transitions so the table shows the reachability diagram as measured.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from ..algorithms import WaitFreeGather
from ..analysis import ALLOWED_TRANSITIONS, InvariantMonitor
from ..core import classify
from ..sim import Simulation
from ..workloads import generate
from .report import Table
from .runner import make_crashes, make_movement, make_scheduler

__all__ = ["run"]

WORKLOADS = {
    "multiple": "M",
    "linear-unique": "L1W",
    "linear-interval": "L2W",
    "regular-polygon": "QR",
    "biangular": "QR",
    "qr-occupied-center": "QR",
    "asymmetric": "A",
    "near-bivalent": "M/A",
}


def run(quick: bool = True) -> List[Table]:
    seeds = range(4) if quick else range(20)
    sizes = [6, 8] if quick else [6, 8, 12]
    schedulers = ["fsync", "random"] if quick else [
        "fsync",
        "round-robin",
        "random",
        "laggard",
    ]

    transitions: Counter = Counter()
    checked_rounds = 0
    violations = 0

    def observer_factory(monitor: InvariantMonitor):
        def observe(record) -> None:
            monitor(record)
            before = record.config_class
            after = classify(record.config_after)
            transitions[(before, after)] += 1

        return observe

    for workload in WORKLOADS:
        for n in sizes:
            for seed in seeds:
                points = generate(workload, n, seed)
                for scheduler in schedulers:
                    monitor = InvariantMonitor()
                    sim = Simulation(
                        WaitFreeGather(),
                        points,
                        scheduler=make_scheduler(scheduler),
                        crash_adversary=make_crashes("random", n - 1),
                        movement=make_movement("random-stop"),
                        seed=seed * 101 + 17,
                        max_rounds=10_000,
                    )
                    sim.add_observer(observer_factory(monitor))
                    sim.run()
                    checked_rounds += monitor.rounds_checked

    table = Table(
        "E3",
        "Lemmas 5.3-5.9: observed class transitions under "
        "wait-free-gather (every row must be paper-allowed)",
        ["from", "to", "occurrences", "allowed by paper"],
    )
    for (before, after), count in sorted(
        transitions.items(), key=lambda kv: (-kv[1], kv[0][0].value)
    ):
        allowed = after in ALLOWED_TRANSITIONS[before]
        if not allowed:
            violations += 1
        table.add_row(str(before), str(after), count, "yes" if allowed else "NO")
    table.add_note(
        f"{checked_rounds} rounds passed the full invariant monitor "
        "(wait-freedom, Weber invariance, max-multiplicity stability, "
        "phi progress); the monitor raises on any violation."
    )
    table.add_note(f"forbidden transitions observed: {violations}")
    return [table]
