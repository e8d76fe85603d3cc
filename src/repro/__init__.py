"""Reproduction of *Gathering of Mobile Robots Tolerating Multiple Crash
Faults* (Bouzid, Das, Tixeuil; ICDCS 2013).

A complete implementation of the paper's wait-free gathering algorithm
for anonymous, oblivious, disoriented robots in the semi-synchronous
ATOM model with strong multiplicity detection and chirality — plus the
full substrate it needs (planar geometry, Weber points, configuration
classification) and an ATOM simulator with adversarial schedulers, crash
adversaries and interruptible movement.

Quickstart::

    from repro import WaitFreeGather, Simulation, RandomCrashes
    from repro.workloads import random_points

    sim = Simulation(
        WaitFreeGather(),
        random_points(n=8, seed=1),
        crash_adversary=RandomCrashes(f=7),
        seed=1,
    )
    result = sim.run()
    assert result.gathered  # all correct robots meet, despite 7 crashes

See DESIGN.md for the architecture and EXPERIMENTS.md for the
experiment-by-experiment validation of the paper's claims.
"""

from .algorithms import (
    ALGORITHMS,
    CentroidConvergence,
    GatheringAlgorithm,
    NaiveLeaderGather,
    NumericalWeberGather,
    SequentialGather,
    WaitFreeGather,
)
from .core import (
    BivalentConfigurationError,
    ConfigClass,
    Configuration,
    classify,
    is_gathering_possible,
    wait_free_gather,
)
from .geometry import Point, Tolerance
from .sim import (
    AdversarialStop,
    AntiGatherByzantine,
    CollusiveStop,
    ElectionThiefByzantine,
    CrashAfterMove,
    CrashAtRounds,
    CrashElected,
    FullySynchronous,
    HalfSplitAdversary,
    LaggardAdversary,
    NoCrashes,
    PerRobotSpeed,
    PoissonScheduler,
    RandomCrashes,
    RandomStop,
    RandomSubset,
    RigidMovement,
    RoundRobin,
    Simulation,
    SimulationResult,
    StationaryByzantine,
    OscillatingByzantine,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "CentroidConvergence",
    "GatheringAlgorithm",
    "NaiveLeaderGather",
    "NumericalWeberGather",
    "SequentialGather",
    "WaitFreeGather",
    "BivalentConfigurationError",
    "ConfigClass",
    "Configuration",
    "classify",
    "is_gathering_possible",
    "wait_free_gather",
    "Point",
    "Tolerance",
    "AdversarialStop",
    "AntiGatherByzantine",
    "CollusiveStop",
    "ElectionThiefByzantine",
    "OscillatingByzantine",
    "StationaryByzantine",
    "CrashAfterMove",
    "CrashAtRounds",
    "CrashElected",
    "FullySynchronous",
    "HalfSplitAdversary",
    "LaggardAdversary",
    "NoCrashes",
    "PerRobotSpeed",
    "PoissonScheduler",
    "RandomCrashes",
    "RandomStop",
    "RandomSubset",
    "RigidMovement",
    "RoundRobin",
    "Simulation",
    "SimulationResult",
    "__version__",
]
