"""LCM-cycle simulator: robots, schedulers, faults, movement, engine.

One engine (:class:`Simulation`) runs both the paper's ATOM model and
the ASYNC/CORDA model; the pluggable activation models in
:mod:`repro.sim.lcm` select between them.
"""

from .batch import BatchedSimulation
from .byzantine import (
    AntiGatherByzantine,
    ByzantinePolicy,
    ElectionThiefByzantine,
    OscillatingByzantine,
    StationaryByzantine,
)
from .engine import Simulation, SimulationResult, Verdict, component_rng
from .lcm import ActivationModel, AtomicActivation, PendingMove, PhasedActivation
from .faults import (
    CrashAdversary,
    CrashAfterMove,
    CrashAtRounds,
    CrashElected,
    NoCrashes,
    RandomCrashes,
)
from .gathering import gathered_point, is_gathered
from .metrics import RunSummary, spread, summarize_runs
from .movement import (
    AdversarialStop,
    CollusiveStop,
    MovementModel,
    PerRobotSpeed,
    RandomStop,
    RigidMovement,
)
from .robot import Robot
from .scheduler import (
    FairnessWrapper,
    HalfSplitAdversary,
    FullySynchronous,
    LaggardAdversary,
    PoissonScheduler,
    RandomSubset,
    RoundRobin,
    Scheduler,
)
from .trace import RoundRecord, Trace, TraceMeta
from .replay import (
    Divergence,
    ReplayReport,
    compare_traces,
    load_trace,
    replay_trace,
    save_trace,
)

__all__ = [
    "BatchedSimulation",
    "AntiGatherByzantine",
    "ByzantinePolicy",
    "ElectionThiefByzantine",
    "OscillatingByzantine",
    "StationaryByzantine",
    "Simulation",
    "SimulationResult",
    "Verdict",
    "component_rng",
    "ActivationModel",
    "AtomicActivation",
    "PendingMove",
    "PhasedActivation",
    "CrashAdversary",
    "CrashAfterMove",
    "CrashAtRounds",
    "CrashElected",
    "NoCrashes",
    "RandomCrashes",
    "gathered_point",
    "is_gathered",
    "RunSummary",
    "spread",
    "summarize_runs",
    "AdversarialStop",
    "CollusiveStop",
    "MovementModel",
    "PerRobotSpeed",
    "RandomStop",
    "RigidMovement",
    "Robot",
    "FairnessWrapper",
    "HalfSplitAdversary",
    "FullySynchronous",
    "LaggardAdversary",
    "PoissonScheduler",
    "RandomSubset",
    "RoundRobin",
    "Scheduler",
    "RoundRecord",
    "Trace",
    "TraceMeta",
    "Divergence",
    "ReplayReport",
    "compare_traces",
    "load_trace",
    "replay_trace",
    "save_trace",
]
