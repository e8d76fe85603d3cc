"""The unified LCM-cycle engine — the heart of the simulator.

Each round (Section II):

1. the **crash adversary** may crash robots (a crashed robot never acts
   again but stays visible);
2. the **scheduler** activates a subset of the live robots, with
   fairness enforced mechanically;
3. every active robot advances its LOOK–COMPUTE–MOVE cycle, where the
   pluggable **activation model** (:mod:`repro.sim.lcm`) decides how the
   cycle maps onto activations:

   * :class:`~repro.sim.lcm.AtomicActivation` (the default — the
     paper's ATOM model): one activation runs the whole cycle, every
     active robot receives the *same* global snapshot expressed in its
     private frame, and all moves of the round apply simultaneously;
   * :class:`~repro.sim.lcm.PhasedActivation` (ASYNC / CORDA): LOOK and
     MOVE are separately scheduled activations with a pending (stale)
     destination in between, resolved sequentially with no barrier.

   Either way the **movement model** resolves how far each move
   actually gets (the ``delta`` guarantee), with collusive adversaries
   seeing the step's whole move set first (``begin_round`` /
   ``endpoint_for`` identity hooks).

Before each round, :meth:`Simulation.ladder` checks the verdicts
(gathered, bivalent, stalled, out of rounds).  :meth:`Simulation.run`
drives one ladder; :class:`~repro.sim.BatchedSimulation` drives many in
lockstep.

Exactness plumbing
------------------
The algorithm runs in each robot's local frame, so destinations suffer a
round-trip through an affine similarity (~1e-12 relative error).  The
engine *snaps* a computed global destination onto an existing robot
position when within ``snap_tolerance``; physically this says a robot
that decides "go to where that robot stands" reaches exactly that spot.
Likewise a move ending within tolerance of its destination ends exactly
there.  Multiplicities therefore form bitwise, which keeps the strong
multiplicity detection of the core layer exact.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..algorithms.base import GatheringAlgorithm
from ..core import (
    BivalentConfigurationError,
    ConfigClass,
    Configuration,
    GatheringError,
    classify,
)
from ..geometry import (
    DEFAULT_TOLERANCE,
    IDENTITY_FRAME,
    Point,
    Tolerance,
    random_frame,
)
from .. import obs as _obs
from ..obs.events import RoundEvent
from .faults import CrashAdversary, NoCrashes
from .gathering import gathered_point
from .lcm import ActivationModel, AtomicActivation, PendingMove, PhasedActivation
from .movement import MovementModel, RigidMovement
from .robot import Robot
from .scheduler import FairnessWrapper, FullySynchronous, Scheduler
from .trace import RoundRecord, Trace, TraceMeta

__all__ = [
    "Simulation",
    "SimulationResult",
    "Verdict",
    "component_rng",
]


#: Per-robot local-configuration cache bound.  On idle rounds (no robot
#: moved) every robot's local snapshot is identical to last round's, so
#: re-deriving the analysis tower is pure waste — but an A-class tower
#: retains an O(n^2) view table, so the cache is FIFO-bounded rather
#: than unbounded at large n.
_LOCAL_CONFIG_CACHE_MAX = 64


def component_rng(seed: int, component: str) -> random.Random:
    """Deterministic per-component RNG substream for a simulation seed.

    Every stochastic model component (crash adversary, scheduler,
    movement, byzantine policies) gets its *own* generator derived from
    the simulation seed.  Sharing one stream couples the components: a
    movement model that draws once per long move shifts every later
    crash and scheduling draw, so two runs differing by a sub-quantum
    geometric detail desynchronize completely after the first extra
    draw.  Independent substreams keep e.g. the crash schedule a
    function of the crash adversary alone, which is what makes
    scalar-vs-batched engine diffs localize to the round that actually
    diverged.

    String seeding is used because :class:`random.Random` hashes str
    seeds with SHA-512 — stable across processes, platforms and
    ``PYTHONHASHSEED``.
    """
    return random.Random(f"repro:{seed}:{component}")


class Verdict:
    """Terminal states of a simulation run (string constants)."""

    GATHERED = "gathered"
    MAX_ROUNDS = "max-rounds"
    IMPOSSIBLE = "impossible"  # bivalent configuration encountered
    STALLED = "stalled"  # algorithm fixpoint that is not gathered


@dataclass
class SimulationResult:
    """Outcome and metrics of one simulation run."""

    verdict: str
    rounds: int
    final_positions: Dict[int, Point]
    live_ids: Tuple[int, ...]
    crashed_ids: Tuple[int, ...]
    gathering_point: Optional[Point]
    total_distance: float
    trace: Optional[Trace]
    initial_class: ConfigClass
    classes_seen: Tuple[ConfigClass, ...]
    #: Observability payload attached by the experiment runner when the
    #: obs layer is on: the worker pid, this seed's exact metrics delta
    #: and its span tail (see :mod:`repro.obs.aggregate`).  Never
    #: serialized into sweep journals — instrumentation must not change
    #: the persisted result bytes.
    obs: Optional[dict] = None

    @property
    def gathered(self) -> bool:
        return self.verdict == Verdict.GATHERED


#: Observer signature: called after every round with the fresh record.
Observer = Callable[[RoundRecord], None]


class Simulation:
    """One configured run of an algorithm in the ATOM model.

    Parameters
    ----------
    algorithm:
        The gathering algorithm under test.
    positions:
        Initial global positions, one per robot.
    scheduler / crash_adversary / movement:
        Model components; defaults are the benign ones (FSYNC, no
        crashes, rigid moves).
    activation:
        The activation model (:mod:`repro.sim.lcm`) mapping LCM cycles
        onto scheduler activations; defaults to
        :class:`~repro.sim.lcm.AtomicActivation` (the paper's ATOM
        rounds).  :class:`~repro.sim.lcm.PhasedActivation` gives the
        ASYNC/CORDA tick semantics; ``max_rounds`` then bounds ticks,
        and since every cycle takes two activations ASYNC runs usually
        double ``fairness_bound`` too.
    frames:
        ``"identity"`` runs all robots in the global frame (useful for
        debugging); ``"random"`` gives each robot a private random
        rotation + scale, exercising disorientation-with-chirality.
    fairness_bound:
        Max rounds a live robot may be starved before force-activation.
    snap_tolerance:
        Distance under which computed destinations are snapped onto
        existing robot positions (see module docstring).  The default
        equals the distance quantum: just enough to undo frame
        round-trip noise, small enough never to *relocate* a target
        (a larger snap would bend rays near the Weber point and poison
        the string of angles).
    record_trace:
        Keep full per-round records (memory-heavy for long runs).
    """

    def __init__(
        self,
        algorithm: GatheringAlgorithm,
        positions: Sequence[Point],
        *,
        scheduler: Optional[Scheduler] = None,
        crash_adversary: Optional[CrashAdversary] = None,
        movement: Optional[MovementModel] = None,
        activation: Optional[ActivationModel] = None,
        tol: Tolerance = DEFAULT_TOLERANCE,
        frames: str = "random",
        seed: int = 0,
        fairness_bound: int = 32,
        snap_tolerance: float = 1e-9,
        max_rounds: int = 50_000,
        record_trace: bool = False,
        halt_on_bivalent: bool = True,
        byzantine: Optional[Dict[int, "ByzantinePolicy"]] = None,
        visibility: Optional[float] = None,
        mirrored: Optional[Set[int]] = None,
        sensor_noise: float = 0.0,
    ) -> None:
        if not positions:
            raise ValueError("a simulation needs at least one robot")
        if frames not in ("identity", "random"):
            raise ValueError("frames must be 'identity' or 'random'")
        self.algorithm = algorithm
        self.seed = seed
        self.rng = random.Random(seed)
        # Decoupled substreams — see :func:`component_rng`.  ``self.rng``
        # keeps seeding the per-robot frames (drawn once, below) and the
        # sensor-noise perturbations; the model components each draw
        # from their own stream so none of them can desynchronize the
        # others.
        self._crash_rng = component_rng(seed, "crash")
        self._sched_rng = component_rng(seed, "sched")
        self._move_rng = component_rng(seed, "move")
        self.tol = tol
        self.snap_tolerance = snap_tolerance
        self.max_rounds = max_rounds
        self.scheduler = FairnessWrapper(
            scheduler or FullySynchronous(), bound=fairness_bound
        )
        self.crash_adversary = crash_adversary or NoCrashes()
        self.movement = movement or RigidMovement()
        self.activation: ActivationModel = activation or AtomicActivation()
        #: MOVE activations whose destination was computed more than one
        #: tick earlier — the volume of genuinely stale moves.  Always 0
        #: under atomic activation (cycles never outlive a round).
        self.stale_moves = 0
        # With halt_on_bivalent the engine stops as soon as the (provably
        # hopeless) bivalent configuration appears; switching it off lets
        # experiment E2 watch how baseline algorithms actually behave
        # from B (thrash, stall, or luckily escape under FSYNC).
        self.halt_on_bivalent = halt_on_bivalent
        # Byzantine robots: adversary-controlled, visible, activated and
        # crash-prone like everyone else — but their destinations come
        # from their policy, not the algorithm (experiment E11).
        self.byzantine: Dict[int, object] = dict(byzantine or {})
        for rid in self.byzantine:
            if not 0 <= rid < len(positions):
                raise ValueError(f"byzantine id {rid} out of range")
        self._byz_rng = component_rng(seed, "byz") if self.byzantine else None
        # Assumption-ablation knobs (experiments E14/E15): a finite
        # visibility radius truncates every snapshot to nearby robots
        # (the paper requires unlimited visibility); `mirrored` lists
        # robots whose private frames flip handedness (violating the
        # chirality assumption).
        if visibility is not None and visibility <= 0:
            raise ValueError("visibility radius must be positive")
        self.visibility = visibility
        self.mirrored: Set[int] = set(mirrored or ())
        for rid in self.mirrored:
            if not 0 <= rid < len(positions):
                raise ValueError(f"mirrored id {rid} out of range")
        # Sensor noise (experiment E16): every LOOK perturbs the
        # observed positions of *other* robots by an isotropic error of
        # at most this magnitude (the robot knows its own position
        # exactly — it is the origin of its frame).  The paper's model
        # is exact; this knob measures how much inaccuracy the
        # tolerance-quantized pipeline absorbs in practice.
        if sensor_noise < 0:
            raise ValueError("sensor noise must be non-negative")
        self.sensor_noise = sensor_noise
        # A sensor that mis-measures positions by up to `noise` cannot
        # resolve two robots closer than ~2*noise either — so the
        # *observed* configurations (and the gathered predicate, which
        # asks whether robots are physically together as far as anyone
        # can tell) use a matching effective tolerance.  All engine-side
        # bookkeeping stays at the exact tolerance.
        if sensor_noise > 0.0:
            self.effective_tol = replace(
                tol, eps_dist=max(tol.eps_dist, 2.1 * sensor_noise)
            )
        else:
            self.effective_tol = tol
        # Even engine-level traces (no scenario attached) get a partial
        # meta block so the recording tolerance, backend and seed always
        # survive serialization; the scenario runner overwrites it with
        # a complete, replayable block.
        self.trace: Optional[Trace] = (
            Trace(
                meta=TraceMeta.for_run(
                    scenario=None,
                    seed=None,
                    engine_seed=seed,
                    tol=tol,
                    engine=self.activation.name,
                )
            )
            if record_trace
            else None
        )
        self.observers: List[Observer] = []

        self.robots: List[Robot] = []
        for rid, pos in enumerate(positions):
            frame = (
                random_frame(self.rng)
                if frames == "random"
                else IDENTITY_FRAME
            )
            if rid in self.mirrored:
                frame = frame.mirrored()
            self.robots.append(Robot(robot_id=rid, position=pos, frame=frame))

        # The effective tolerance is a *physical* (global-units)
        # resolution; each robot's private frame rescales space, so its
        # sensing resolution rescales with it.  Frames are fixed for the
        # whole run, so the per-robot local tolerances are too.
        if self.sensor_noise > 0.0:
            self._local_tols: List[Tolerance] = [
                replace(
                    self.effective_tol,
                    eps_dist=self.effective_tol.eps_dist * r.frame.scale,
                )
                for r in self.robots
            ]
        else:
            self._local_tols = [self.effective_tol] * len(self.robots)

        self._last_moved: Set[int] = set()
        self._last_active: Dict[int, int] = {}
        self.round_index = 0
        # Configuration cache: classification and views memoize on the
        # Configuration object, and gathered/stalled checks plus step()
        # all consult the same round's configuration — rebuilding it
        # would discard those memos three times per round.
        self._config_cache: Optional[Configuration] = None
        # Local-frame twin of the cache above: each robot's private
        # snapshot (and therefore its memoized tower) only changes when
        # some robot moves.  Noisy sensors re-perturb every LOOK, so the
        # cache is disabled under sensor noise.
        self._local_config_cache: Dict[int, Configuration] = {}

    # -- state accessors -----------------------------------------------------

    def positions(self) -> Dict[int, Point]:
        return {r.robot_id: r.position for r in self.robots}

    def live_ids(self) -> List[int]:
        return [r.robot_id for r in self.robots if not r.crashed]

    def correct_ids(self) -> List[int]:
        """Live robots that follow the algorithm (the paper's *correct*).

        With no byzantine robots this equals :meth:`live_ids`.
        """
        return [rid for rid in self.live_ids() if rid not in self.byzantine]

    def crashed_ids(self) -> List[int]:
        return [r.robot_id for r in self.robots if r.crashed]

    def configuration(self) -> Configuration:
        if self._config_cache is None:
            self._config_cache = Configuration(
                [r.position for r in self.robots], self.tol
            )
        return self._config_cache

    def add_observer(self, observer: Observer) -> None:
        """Attach a per-round callback (invariant checkers use this)."""
        self.observers.append(observer)

    # -- core round ------------------------------------------------------------

    def _visible_points(self, origin: Point) -> List[Point]:
        """Positions a robot at ``origin`` can see (E14: limited range).

        The observer itself is always visible.  With unlimited
        visibility (the paper's model) this is every robot.
        """
        pts = [r.position for r in self.robots]
        if self.visibility is None:
            return pts
        return [
            p for p in pts if origin.distance_to(p) <= self.visibility
        ]

    def _perturb(self, p: Point) -> Point:
        """One sensor reading: ``p`` plus isotropic error <= sensor_noise."""
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        r = self.rng.uniform(0.0, self.sensor_noise)
        return Point(p.x + r * math.cos(angle), p.y + r * math.sin(angle))

    def _snap_destination(self, dest: Point, config: Configuration) -> Point:
        """Snap ``dest`` onto an occupied position it is trying to name.

        Among support points within ``snap_tolerance`` the last one
        achieving the running minimum distance wins.
        """
        best = None
        best_d = self.snap_tolerance
        for p in config.support:
            d = dest.distance_to(p)
            if d <= best_d:
                best, best_d = p, d
        return best if best is not None else dest

    def _local_configuration(self, robot: Robot) -> Configuration:
        """The robot's private-frame snapshot, cached across idle rounds."""
        cached = (
            self._local_config_cache.get(robot.robot_id)
            if self.sensor_noise == 0.0
            else None
        )
        if cached is not None:
            return cached
        frame = robot.anchored_frame()
        observed = self._visible_points(robot.position)
        if self.sensor_noise > 0.0:
            observed = [
                p if p == robot.position else self._perturb(p)
                for p in observed
            ]
        local_points = [frame.to_local(p) for p in observed]
        local_config = Configuration(
            local_points, self._local_tols[robot.robot_id]
        )
        if self.sensor_noise == 0.0:
            if len(self._local_config_cache) >= _LOCAL_CONFIG_CACHE_MAX:
                self._local_config_cache.pop(
                    next(iter(self._local_config_cache))
                )
            self._local_config_cache[robot.robot_id] = local_config
        return local_config

    def _destination_for(self, robot: Robot, config: Configuration) -> Optional[Point]:
        """LOOK + COMPUTE for one robot: the snapped global destination.

        This is the one place a snapshot is taken and an algorithm run,
        shared by both activation models: byzantine policies, private
        frames, visibility truncation, sensor noise and destination
        snapping all happen here.  Returns ``None`` when a noisy
        observer refuses its view — a *noisy observer* can transiently
        see a bivalent-looking blob that the true configuration is not;
        its refusal means "I stay this cycle", not global impossibility
        (which the engine judges on the exact positions).
        """
        policy = self.byzantine.get(robot.robot_id)
        if policy is not None:
            # Adversary-controlled robot: omniscient, frame-free.
            return policy.destination(
                robot.robot_id,
                self.positions(),
                self.correct_ids(),
                self.round_index,
                self._byz_rng,
            )
        frame = robot.anchored_frame()
        local_config = self._local_configuration(robot)
        local_me = frame.to_local(robot.position)
        if self.sensor_noise > 0.0:
            try:
                local_dest = self.algorithm.compute(local_config, local_me)
            except BivalentConfigurationError:
                return None
        else:
            local_dest = self.algorithm.compute(local_config, local_me)
        return self._snap_destination(frame.to_global(local_dest), config)

    def _begin_move_phase(self, destinations: Dict[int, Point]) -> None:
        """Collusive adversaries see the step's whole move set first."""
        begin_round = getattr(self.movement, "begin_round", None)
        if begin_round is not None:
            begin_round(
                {
                    rid: (self.robots[rid].position, dest)
                    for rid, dest in destinations.items()
                }
            )

    def _resolve_move(self, robot: Robot, dest: Point) -> bool:
        """Execute one move; returns whether the robot actually moved.

        Identity-aware models resolve through ``endpoint_for`` (so a
        coordinated adversary can serve per-robot stops); the rest
        through the classic ``endpoint``.  A move ending within
        tolerance of its destination ends exactly there, and any actual
        movement invalidates every cached snapshot immediately — under
        phased activation a later robot's LOOK in the *same* tick must
        already see this move.
        """
        if hasattr(self.movement, "endpoint_for"):
            end = self.movement.endpoint_for(robot.robot_id, robot.position, dest)
        else:
            end = self.movement.endpoint(robot.position, dest, self._move_rng)
        if end.distance_to(dest) <= self.tol.eps_dist:
            end = dest
        if end == robot.position:
            return False
        robot.distance_travelled += robot.position.distance_to(end)
        robot.position = end
        self._config_cache = None
        self._local_config_cache.clear()
        return True

    def _step_atomic(
        self,
        active: Set[int],
        config_before: Configuration,
        tracer,
    ) -> Tuple[Dict[int, Point], List[int]]:
        """ATOM semantics: compute all against one snapshot, then move all.

        The round-global barrier is the point: no robot's move is
        visible to any other robot's LOOK of the same round.
        """
        phase_span = tracer.begin("compute", "phase") if tracer is not None else None
        destinations: Dict[int, Point] = {}
        for robot in self.robots:
            if robot.robot_id not in active:
                continue
            dest = self._destination_for(robot, config_before)
            if dest is not None:
                destinations[robot.robot_id] = dest
        if tracer is not None:
            tracer.end(phase_span)
            phase_span = tracer.begin("move", "phase")

        self._begin_move_phase(destinations)
        moved: List[int] = []
        for robot in self.robots:
            dest = destinations.get(robot.robot_id)
            if dest is None:
                continue
            if self._resolve_move(robot, dest):
                moved.append(robot.robot_id)
            robot.last_active_round = self.round_index
            self._last_active[robot.robot_id] = self.round_index
        if tracer is not None:
            tracer.end(phase_span)
        return destinations, moved

    def _step_phased(
        self,
        active: Set[int],
        config_before: Configuration,
        tracer,
    ) -> Tuple[Dict[int, Point], List[int]]:
        """CORDA semantics: one phase per activation, no barrier.

        Activations resolve sequentially in robot order — a LOOK later
        in the tick observes the moves earlier activations already
        executed, which is exactly the interleaving hazard ASYNC adds.
        Destinations are snapped against the tick-start configuration
        (``config_before``): crashes never move anyone, so its support
        is the set of positions the LOOKing robot is trying to name.

        The tick's MOVE set is known up front (each robot moves at most
        once per tick, and only its own move changes its origin), so the
        movement model's collusion hook sees the whole set before any
        move resolves — this is what lets :class:`CollusiveStop` stack
        async robots instead of silently degrading to rigid moves.
        """
        pending = self.activation.pending
        self._begin_move_phase(
            {
                rid: pending[rid].destination
                for rid in sorted(active)
                if rid in pending
            }
        )
        destinations: Dict[int, Point] = {}
        moved: List[int] = []
        for robot in self.robots:
            rid = robot.robot_id
            if rid not in active:
                continue
            robot.last_active_round = self.round_index
            self._last_active[rid] = self.round_index
            entry = pending.get(rid)
            if entry is None:
                # LOOK + COMPUTE against the *current* configuration.
                phase_span = (
                    tracer.begin("look", "phase", attrs={"robot": rid})
                    if tracer is not None
                    else None
                )
                dest = self._destination_for(robot, config_before)
                if tracer is not None:
                    tracer.end(phase_span)
                if dest is None:
                    continue
                pending[rid] = PendingMove(dest, self.round_index)
                destinations[rid] = dest
            else:
                # MOVE towards the (possibly stale) destination.
                phase_span = (
                    tracer.begin("move", "phase", attrs={"robot": rid})
                    if tracer is not None
                    else None
                )
                if entry.looked_at_tick < self.round_index - 1:
                    self.stale_moves += 1
                del pending[rid]
                if self._resolve_move(robot, entry.destination):
                    moved.append(rid)
                if tracer is not None:
                    tracer.end(phase_span)
                destinations[rid] = entry.destination
        return destinations, moved

    def step(self) -> RoundRecord:
        """Execute one round (ATOM) or tick (ASYNC) and return its record.

        Raises :class:`BivalentConfigurationError` if the algorithm
        refuses the current configuration; :meth:`run` converts this
        into the ``impossible`` verdict.

        Observability: with the obs layer on, the step is timed (the
        ``round_seconds`` histogram) and, when tracing is active, it
        becomes a span.  Atomic phases are round-global barriers, so the
        round span gets three phase children: ``look`` covers fixing the
        snapshot everyone acts on (crashes + scheduling), ``compute``
        the fused per-robot LOOK+COMPUTE loop, and ``move`` the
        simultaneous move resolution.  Phased activation has no such
        barrier — LOOK and MOVE activations interleave per robot, which
        is the point of the CORDA model — so each activation gets its
        *own* phase span labelled with the robot id.  All of it sits
        behind the same one-attribute-read guard as event recording: a
        disabled process allocates no span objects and reads no clock.
        """
        phased = self.activation.phased
        obs_on = _obs.state.enabled
        started = time.perf_counter() if obs_on else 0.0
        tracer = _obs.tracer if obs_on and _obs.tracer.active else None
        round_span = (
            tracer.begin(
                "tick" if phased else "round",
                "round",
                attrs={"round": self.round_index},
            )
            if tracer is not None
            else None
        )
        config_before = self.configuration()
        cls = classify(config_before)

        # 1. Crashes.
        phase_span = (
            tracer.begin("look", "phase")
            if tracer is not None and not phased
            else None
        )
        positions = self.positions()
        crash_now = self.crash_adversary.crashes(
            self.round_index,
            self.live_ids(),
            positions,
            set(self._last_moved),
            self._crash_rng,
        )
        for robot in self.robots:
            if robot.robot_id in crash_now:
                robot.crash(self.round_index)
                self.activation.on_crash(robot.robot_id)

        # 2. Scheduling (fair).
        active = self.scheduler.select(
            self.round_index,
            self.live_ids(),
            self._sched_rng,
            self._last_active,
            positions=positions,
        )
        if phase_span is not None:
            tracer.end(phase_span)

        # 3./4. LCM phases, structured by the activation model.
        if phased:
            destinations, moved = self._step_phased(active, config_before, tracer)
        else:
            destinations, moved = self._step_atomic(active, config_before, tracer)

        self._last_moved = set(moved)
        config_after = self.configuration()
        record = RoundRecord(
            round_index=self.round_index,
            config_before=config_before,
            config_class=cls,
            active=tuple(sorted(active)),
            crashed_now=tuple(sorted(crash_now)),
            destinations=destinations,
            config_after=config_after,
            moved=tuple(moved),
        )
        if self.trace is not None:
            self.trace.append(record)
        for observer in self.observers:
            observer(record)
        if obs_on:
            if round_span is not None:
                round_span.attrs["class"] = cls.value
                round_span.attrs["moved"] = len(moved)
                tracer.end(round_span)
            _obs.record_round(
                RoundEvent.from_record(record, engine=self.activation.name),
                seconds=time.perf_counter() - started,
            )
        self.round_index += 1
        return record

    # -- run loop ---------------------------------------------------------------

    def _gathered_now(self) -> Optional[Point]:
        spot = gathered_point(
            self.positions(), self.correct_ids(), self.effective_tol
        )
        if spot is None:
            return None
        # Under phased activation a stale pending destination may be
        # about to pull a live robot back out of the spot — that refutes
        # stability no matter what a fresh LOOK would compute.  (Atomic
        # activation never holds pending moves, so this is free there.)
        divergent = getattr(self.activation, "divergent_pending", None)
        if divergent is not None and divergent(
            spot, self.live_ids(), self.effective_tol
        ):
            return None
        # Stability is judged through the robots' own (possibly
        # visibility-limited, resolution-limited) eyes: what would a
        # robot at the spot do?  With unlimited exact sensing that view
        # is the round's configuration itself — reuse its memoized tower
        # instead of rebuilding it from scratch.
        if self.visibility is None and self.sensor_noise == 0.0:
            view = self.configuration()
        else:
            view = Configuration(
                self._visible_points(spot), self.effective_tol
            )
        try:
            dest = self.algorithm.compute(view, spot)
        except GatheringError:
            return None
        return spot if dest.close_to(spot, self.effective_tol) else None

    def _stalled_now(self, config: Configuration) -> bool:
        """Fixpoint check: no live robot is instructed to move.

        Because the algorithm is oblivious, a non-gathered all-stay
        configuration can never change again — the run is dead.  This is
        how the classic wait-*ful* baseline manifests its deadlock.
        (With byzantine robots the configuration is never a fixpoint —
        the adversary may always move; with sensor noise the snapshots
        fluctuate round to round, so an all-stay *expected* view proves
        nothing.  The check is skipped in both cases.)
        """
        if self.byzantine or self.sensor_noise > 0.0:
            return False
        # A half-finished cycle is not a fixpoint: the pending MOVE may
        # still change the configuration even if every fresh LOOK says
        # stay.
        if self.activation.pending:
            return False
        live_positions = {r.position for r in self.robots if not r.crashed}
        try:
            for p in live_positions:
                view = (
                    config
                    if self.visibility is None
                    else Configuration(
                        self._visible_points(p), self.effective_tol
                    )
                )
                if not self.algorithm.compute(view, p).close_to(
                    p, self.effective_tol
                ):
                    return False
        except GatheringError:
            return False
        return True

    def ladder(self) -> Iterator[object]:
        """The round ladder as a generator; its return value is the result.

        Every round climbs the same rungs: out of rounds, gathered,
        classify (recording the class), bivalent, stalled, step.  The
        generator pauses twice inside a round — yielding the round's
        configuration before it is classified, then its class before
        the stall check — and once after the step, so a driver can run
        many sims in lockstep and warm their memos at those points
        (:class:`~repro.sim.BatchedSimulation`).  :meth:`run` drives it
        straight to the verdict.
        """
        classes_seen: List[ConfigClass] = []
        verdict = Verdict.MAX_ROUNDS
        while self.round_index < self.max_rounds:
            spot = self._gathered_now()
            if spot is not None:
                verdict = Verdict.GATHERED
                break
            config = self.configuration()
            yield config
            cls = classify(config)
            if not classes_seen or classes_seen[-1] is not cls:
                classes_seen.append(cls)
            if cls is ConfigClass.BIVALENT and self.halt_on_bivalent:
                verdict = Verdict.IMPOSSIBLE
                break
            yield cls
            if self._stalled_now(config):
                verdict = Verdict.STALLED
                break
            try:
                self.step()
            except BivalentConfigurationError:
                verdict = Verdict.IMPOSSIBLE
                break
            yield None

        if verdict != Verdict.GATHERED:
            # A run that stops for another reason may still end with the
            # survivors together (e.g. a crash before a bivalent halt).
            spot = self._gathered_now()
        if _obs.state.enabled:
            run_end = {
                "engine": self.activation.name,
                "verdict": verdict,
                "rounds": self.round_index,
                "seed": self.seed,
            }
            if self.activation.phased:
                run_end["stale_moves"] = self.stale_moves
            _obs.record_run_end(run_end)
        return SimulationResult(
            verdict=verdict,
            rounds=self.round_index,
            final_positions=self.positions(),
            live_ids=tuple(self.live_ids()),
            crashed_ids=tuple(self.crashed_ids()),
            gathering_point=spot,
            total_distance=math.fsum(r.distance_travelled for r in self.robots),
            trace=self.trace,
            initial_class=classes_seen[0] if classes_seen else classify(self.configuration()),
            classes_seen=tuple(classes_seen),
        )

    def run(self) -> SimulationResult:
        """Run until gathered / impossible / stalled / out of rounds."""
        run_span = (
            _obs.tracer.begin(
                "run",
                "run",
                attrs={"engine": self.activation.name, "seed": self.seed},
            )
            if _obs.state.enabled and _obs.tracer.active
            else None
        )
        ladder = self.ladder()
        try:
            while True:
                next(ladder)
        except StopIteration as done:
            result = done.value
        if run_span is not None:
            run_span.attrs["verdict"] = result.verdict
            run_span.attrs["rounds"] = result.rounds
            _obs.tracer.end(run_span)
        return result
