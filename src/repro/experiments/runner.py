"""Shared experiment plumbing: build-and-run simulation batches.

Experiments declare *scenarios* (workload kind, team size, fault budget,
scheduler, movement model, algorithm) and the runner executes them over a
seed range, returning raw results for the experiment module to fold into
its table.  Everything is deterministic in the seed.

Execution is *wait-free* (see :mod:`repro.resilience`): a crashed,
killed or hung worker never loses the batch — incomplete seeds are
retried with backoff, broken pools are rebuilt, and with a checkpoint
journal (``journal_path``) an interrupted ``run_batch`` resumes without
re-running completed seeds.  Because every seed is a pure function of
``(scenario, seed)``, retried and resumed results are bit-identical to
a clean sequential run.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .. import obs as _obs
from ..obs import aggregate
from ..resilience import (
    ChaosPolicy,
    ResilientExecutor,
    RunPolicy,
    SweepJournal,
    TraceFormatError,
    atomic_write,
)
from ..algorithms import ALGORITHMS, GatheringAlgorithm
from ..geometry import kernels
from ..sim import (
    AdversarialStop,
    CollusiveStop,
    HalfSplitAdversary,
    CrashAfterMove,
    CrashElected,
    FullySynchronous,
    LaggardAdversary,
    NoCrashes,
    PerRobotSpeed,
    PhasedActivation,
    PoissonScheduler,
    RandomCrashes,
    RandomStop,
    RandomSubset,
    BatchedSimulation,
    RigidMovement,
    RoundRobin,
    Simulation,
    SimulationResult,
)
from ..sim.engine import FRAMES
from ..sim.trace import TraceMeta
from ..workloads import CLASS_GENERATORS, check_size, generate

__all__ = [
    "Scenario",
    "AXES",
    "build_simulation",
    "run_scenario",
    "run_batch",
    "run_batched",
    "DEFAULT_BATCH_SIZE",
    "resolve_batch_size",
    "parallel_map",
    "executor",
    "make_scheduler",
    "make_crashes",
    "make_movement",
]

#: Most seeds stepped together per :class:`~repro.sim.BatchedSimulation`
#: in a batched sweep.  Large enough to amortize the per-round kernel
#: calls, small enough that a chunk retry after a worker crash stays
#: cheap.  :func:`run_batch` may make chunks smaller, never larger.
DEFAULT_BATCH_SIZE = 64


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """The batched chunk size: ``None`` means :data:`DEFAULT_BATCH_SIZE`,
    and zero or negative sizes are rejected."""
    if batch_size is None:
        return DEFAULT_BATCH_SIZE
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return batch_size


#: Scheduler factories by name; fresh instances per run (schedulers may
#: be stateful).
_SCHEDULERS: Dict[str, Callable[[], object]] = {
    "fsync": FullySynchronous,
    "round-robin": RoundRobin,
    "random": lambda: RandomSubset(0.5),
    "laggard": LaggardAdversary,
    "half-split": HalfSplitAdversary,
    "poisson": lambda: PoissonScheduler(0.5),
}

_MOVEMENTS: Dict[str, Callable[[], object]] = {
    "rigid": RigidMovement,
    "adversarial-stop": lambda: AdversarialStop(0.2),
    "random-stop": lambda: RandomStop(0.05),
    "collusive-stop": lambda: CollusiveStop(0.2),
    # Three speed tiers cycled over robot ids: the fastest robot covers
    # 20x the slowest per activation — wide enough to surface the
    # heterogeneity effects E17 measures, with delta = 0.05 preserved.
    "per-robot-speed": lambda: PerRobotSpeed((1.0, 0.25, 0.05)),
}

#: Crash adversary factories by name, each taking the fault budget f.
_CRASHES: Dict[str, Callable[[int], object]] = {
    "none": lambda f: NoCrashes(),
    "random": lambda f: RandomCrashes(f=f, rate=0.25),
    "after-move": lambda f: CrashAfterMove(f=f),
    "elected": lambda f: CrashElected(f=f),
}

#: Execution models (see :attr:`Scenario.engine`).
_ENGINES = ("atom", "async", "batched")

#: The names each named axis of a :class:`Scenario` accepts — the one
#: list the scenario check and the CLI's scenario flags both read.
AXES = {
    "workload": CLASS_GENERATORS,
    "algorithm": ALGORITHMS,
    "scheduler": _SCHEDULERS,
    "crashes": _CRASHES,
    "movement": _MOVEMENTS,
    "engine": _ENGINES,
    "frames": FRAMES,
}


def make_scheduler(name: str):
    """Fresh scheduler instance by registry name."""
    return _SCHEDULERS[name]()


def make_movement(name: str):
    """Fresh movement model instance by registry name."""
    return _MOVEMENTS[name]()


def make_crashes(kind: str, f: int):
    """Fresh crash adversary by registry name; a zero budget means no
    crashes whatever the kind."""
    if kind not in _CRASHES:
        raise ValueError(f"unknown crash adversary kind {kind!r}")
    return _CRASHES[kind](f) if f else NoCrashes()


@dataclass(frozen=True)
class Scenario:
    """One cell of an experiment matrix."""

    workload: str
    n: int
    algorithm: str = "wait-free-gather"
    scheduler: str = "random"
    crashes: str = "random"
    f: int = 0
    movement: str = "random-stop"
    max_rounds: int = 20_000
    frames: str = "random"
    halt_on_bivalent: bool = True
    #: Execution model: ``"atom"`` (the paper's semi-synchronous rounds),
    #: ``"async"`` (the CORDA tick engine; ``max_rounds`` then bounds
    #: ticks) or ``"batched"`` (many seeds stepped in lockstep through
    #: the same round ladder, seed-equivalent to ``"atom"``).
    #: Part of the scenario — and therefore of the trace schema — so
    #: archived ASYNC runs replay on the right engine.
    engine: str = "atom"
    #: Finite visibility radius threaded into every LOOK snapshot
    #: (``None`` = the paper's unlimited visibility).  A new field with a
    #: default, so traces archived before it existed keep loading.
    visibility: Optional[float] = None

    def __post_init__(self) -> None:
        """Refuse a scenario no engine can run, as a
        :class:`~repro.resilience.TraceFormatError` (exit 2 on the CLI,
        HTTP 400 from ``repro serve``); that includes a team size its
        workload's generator cannot build
        (:data:`~repro.workloads.SIZE_RULES`).

        An integral float such as ``8.0`` is stored as ``8``, the rule
        :func:`~repro.sim.trace.canonical_scenario_json` applies to
        cache keys, so two spellings of one scenario run and echo alike.
        """
        for axis, names in AXES.items():
            name = getattr(self, axis)
            if not isinstance(name, str) or name not in names:
                raise TraceFormatError(
                    f"unknown {axis} {name!r}; known: "
                    f"{', '.join(sorted(names))}"
                )
        for field in ("n", "f", "max_rounds", "visibility"):
            value = getattr(self, field)
            if isinstance(value, float) and value.is_integer():
                object.__setattr__(self, field, int(value))
        for field, low in (("n", 1), ("f", 0), ("max_rounds", 0)):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int) or (
                value < low
            ):
                raise TraceFormatError(
                    f"scenario field {field!r} must be an integer >= "
                    f"{low}, got {value!r}"
                )
        check_size(self.workload, self.n)
        radius = self.visibility
        if radius is None:
            return
        if isinstance(radius, bool) or not isinstance(
            radius, (int, float)
        ) or not radius > 0:
            raise TraceFormatError(
                "scenario field 'visibility' must be a positive radius, "
                f"got {radius!r}"
            )
        if self.engine == "batched":
            raise TraceFormatError(
                "the batched engine computes one global snapshot per sim "
                "and cannot truncate per-robot views; run visibility "
                "scenarios on engine 'atom' or 'async'"
            )

    def label(self) -> str:
        prefix = "" if self.engine == "atom" else f"{self.engine}/"
        suffix = (
            "" if self.visibility is None else f"/vis={self.visibility:g}"
        )
        return (
            f"{prefix}{self.workload}/n={self.n}/f={self.f}/{self.scheduler}/"
            f"{self.crashes}/{self.movement}{suffix}"
        )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form — the trace schema's scenario block.

        Every field is an immutable scalar, so a shallow dict is the
        one ``dataclasses.asdict`` builds, without its deep copy (the
        serve daemon builds one per request, for the cache key).
        """
        return {name: getattr(self, name) for name in _SCENARIO_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly so a
        trace written by a newer schema never half-loads."""
        unknown = set(data).difference(_SCENARIO_FIELDS)
        if unknown:
            raise TraceFormatError(
                f"unknown Scenario fields: {sorted(unknown)}"
            )
        return cls(**data)

    def engine_seed(self, seed: int) -> int:
        """The engine seed derived from a sweep seed (Knuth multiplicative
        hash, decorrelating neighbouring sweep seeds)."""
        return seed * 2654435761 % (2**31)


_SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario))


def build_simulation(
    scenario: Scenario,
    seed: int,
    *,
    engine_seed: Optional[int] = None,
    record_trace: bool = False,
) -> Simulation:
    """The one construction path from a scenario to an engine instance.

    ``repro check --replay`` rebuilds archived runs through this exact
    function, so anything that influences the execution must flow from
    the :class:`Scenario` (plus the two seeds) — never from ambient
    state.  ``engine_seed`` defaults to :meth:`Scenario.engine_seed`;
    the CLI ``simulate`` command passes the raw user seed instead.
    ``scenario.engine`` selects the execution model; for ``"async"``
    the scenario's ``max_rounds`` bounds scheduler ticks.
    """
    points = generate(scenario.workload, scenario.n, seed)
    algorithm: GatheringAlgorithm = ALGORITHMS[scenario.algorithm]()
    resolved_seed = (
        scenario.engine_seed(seed) if engine_seed is None else engine_seed
    )
    if scenario.engine == "batched":
        raise ValueError(
            "the batched engine steps many seeds per instance; build it "
            "through run_batched()/run_batch(), not build_simulation()"
        )
    phased = scenario.engine == "async"
    return Simulation(
        algorithm,
        points,
        scheduler=make_scheduler(scenario.scheduler),
        crash_adversary=make_crashes(scenario.crashes, scenario.f),
        movement=make_movement(scenario.movement),
        activation=PhasedActivation() if phased else None,
        seed=resolved_seed,
        frames=scenario.frames,
        # An ASYNC cycle takes two activations, hence the looser bound.
        fairness_bound=64 if phased else 32,
        max_rounds=scenario.max_rounds,
        halt_on_bivalent=scenario.halt_on_bivalent,
        record_trace=record_trace,
        visibility=scenario.visibility,
    )


def run_scenario(
    scenario: Scenario,
    seed: int,
    *,
    engine_seed: Optional[int] = None,
    record_trace: bool = False,
) -> SimulationResult:
    """Execute one scenario with one seed (fully deterministic).

    With ``record_trace`` the result's trace carries a full
    :class:`~repro.sim.trace.TraceMeta` block, which is what makes the
    archive self-describing: ``repro check`` can re-simulate it from the
    JSON alone.

    A ``"batched"`` scenario runs the seed through a one-sim
    :class:`~repro.sim.BatchedSimulation` (seed-equivalent to the scalar
    engine).  The batched engine keeps no per-round trace, so
    ``record_trace`` is rejected — replay with ``engine="atom"`` instead,
    which reproduces the same run.
    """
    if scenario.engine == "batched":
        if record_trace:
            raise ValueError(
                "the batched engine records no trace; replay with "
                "engine='atom' (seed-equivalent by the equivalence suite)"
            )
        before = aggregate.capture_before() if _obs.state.enabled else None
        engine_seeds = None if engine_seed is None else [engine_seed]
        result = run_batched(scenario, [seed], engine_seeds=engine_seeds)[0]
        if _obs.state.enabled:
            _obs.metrics.inc("runner.runs")
            _obs.metrics.inc("runner.rounds", result.rounds)
            result.obs = aggregate.seed_payload(before)
        return result
    # The capture point precedes the build: workload generation and
    # algorithm setup do real geometry, and that work belongs to the
    # seed's delta — otherwise it vanishes between payload windows.
    before = aggregate.capture_before() if _obs.state.enabled else None
    sim = build_simulation(
        scenario, seed, engine_seed=engine_seed, record_trace=record_trace
    )
    started = time.perf_counter() if _obs.state.enabled else 0.0
    result = sim.run()
    if _obs.state.enabled:
        # Per-worker throughput: keyed by pid so a pooled sweep shows one
        # row per worker process when snapshots are merged by the CLI.
        elapsed = time.perf_counter() - started
        _obs.metrics.inc("runner.runs")
        _obs.metrics.inc("runner.rounds", result.rounds)
        _obs.metrics.observe("runner.run_seconds", elapsed)
        _obs.metrics.observe(f"runner.worker.{os.getpid()}.run_seconds", elapsed)
        # The seed's exact registry delta + span tail rides home on the
        # result, so a pooled sweep's parent can aggregate what each
        # worker recorded (repro sweep --obs).  Computed from snapshots,
        # never by resetting the registry — the cumulative view that
        # `repro experiment --obs` prints must survive.
        result.obs = aggregate.seed_payload(before)
    if result.trace is not None:
        result.trace.meta = TraceMeta.for_run(
            scenario=scenario.to_dict(),
            seed=seed,
            engine_seed=sim.seed,
            tol=sim.tol,
            engine=scenario.engine,
        )
    return result


def _run_batched_chunk(
    scenario: Scenario,
    seeds: Sequence[int],
    engine_seeds: Optional[Sequence[int]] = None,
) -> List[SimulationResult]:
    """One :class:`~repro.sim.BatchedSimulation` over ``seeds``.

    Module-level so a pooled batched sweep can pickle
    ``partial(_run_batched_chunk, scenario)`` to its workers.  Per-sim
    results depend only on that sim's own seed (the batched kernels are
    padding-invariant), so chunk composition never affects results —
    which is what lets ``--resume`` re-chunk the remaining seeds freely.

    ``scenario.frames`` is deliberately ignored: the algorithm is frame
    equivariant (checked by the invariance suite), so the batched engine
    computes every snapshot in the global frame once per sim instead of
    once per robot, and a batched scenario has no visibility radius.
    """
    seeds = list(seeds)
    if engine_seeds is None:
        engine_seeds = [scenario.engine_seed(seed) for seed in seeds]
    sim = BatchedSimulation(
        [ALGORITHMS[scenario.algorithm]() for _ in seeds],
        [generate(scenario.workload, scenario.n, seed) for seed in seeds],
        schedulers=[make_scheduler(scenario.scheduler) for _ in seeds],
        crash_adversaries=[
            make_crashes(scenario.crashes, scenario.f) for _ in seeds
        ],
        movements=[make_movement(scenario.movement) for _ in seeds],
        seeds=list(engine_seeds),
        max_rounds=scenario.max_rounds,
        halt_on_bivalent=scenario.halt_on_bivalent,
    )
    return sim.run_all()


def run_batched(
    scenario: Scenario,
    seeds: Sequence[int],
    *,
    batch_size: Optional[int] = None,
    engine_seeds: Optional[Sequence[int]] = None,
) -> List[SimulationResult]:
    """Run a scenario over ``seeds`` on the batched engine, in seed order.

    Seeds are stepped ``batch_size`` (default
    :data:`DEFAULT_BATCH_SIZE`) at a time through
    :class:`~repro.sim.BatchedSimulation`; each result is
    seed-equivalent to :func:`run_scenario` on the ``"atom"`` engine and
    independent of the chunking (kernel padding is inert, and a sim's
    Weber solve does not depend on its batch), so any ``batch_size``
    returns the same results.
    """
    seeds = list(seeds)
    size = resolve_batch_size(batch_size)
    results: List[SimulationResult] = []
    for i in range(0, len(seeds), size):
        chunk_engine_seeds = (
            None if engine_seeds is None else list(engine_seeds[i : i + size])
        )
        results.extend(
            _run_batched_chunk(
                scenario, seeds[i : i + size], chunk_engine_seeds
            )
        )
    return results


@contextmanager
def executor(
    workers: Optional[int], policy: Optional[RunPolicy] = None
) -> Iterator[Optional[ResilientExecutor]]:
    """Shared worker pool for a series of batches (``None`` = sequential).

    Creating a process pool costs real time, so experiments that call
    :func:`run_batch` per matrix cell open one pool here and thread it
    through every call.  The yielded object is a
    :class:`~repro.resilience.ResilientExecutor`: it rebuilds its
    underlying pool transparently when a worker dies or hangs, and its
    teardown cancels queued futures so Ctrl-C never hangs behind a full
    queue.
    """
    if not workers or workers <= 1:
        yield None
        return
    pool = ResilientExecutor(workers, policy=policy)
    try:
        yield pool
    finally:
        pool.shutdown(cancel=True)


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: Optional[int] = None,
    pool: Optional[ResilientExecutor] = None,
    *,
    policy: Optional[RunPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    keys: Optional[Sequence[str]] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    on_failure: Optional[Callable[[str, BaseException, bool], None]] = None,
) -> List:
    """``[fn(x) for x in items]``, optionally across worker processes.

    Results come back in input order regardless of completion order, so
    parallel execution is a pure wall-clock optimization: every item is
    computed by a deterministic function of its own arguments, and the
    returned list is bit-identical to the sequential one — including
    under retries, timeouts and pool rebuilds (``policy``) and injected
    chaos faults (``chaos``, default: parsed from ``REPRO_CHAOS``).

    ``on_result(index, value)`` fires as items complete (completion
    order) — the checkpoint journal of :func:`run_batch` hangs off it.
    ``on_failure(key, exc, strike)`` fires per failed attempt — the
    sweep dashboard's retry/timeout counters hang off it.
    """
    items = list(items)
    if chaos is None:
        chaos = ChaosPolicy.from_env()
    if isinstance(pool, ResilientExecutor):
        return pool.map_resilient(
            fn, items, keys=keys, chaos=chaos, on_result=on_result,
            on_failure=on_failure, policy=policy,
        )
    if workers and workers > 1 and len(items) > 1:
        with executor(workers, policy=policy) as shared:
            return shared.map_resilient(
                fn, items, keys=keys, chaos=chaos, on_result=on_result,
                on_failure=on_failure, policy=policy,
            )
    if policy is not None or on_result is not None or (
        chaos is not None and chaos.enabled
    ):
        # Serial but resilient: same retry/chaos/checkpoint machinery,
        # no process pool (chaos kills become in-process exceptions).
        serial = ResilientExecutor(None, policy=policy)
        return serial.map_resilient(
            fn, items, keys=keys, chaos=chaos, on_result=on_result,
            on_failure=on_failure, policy=policy,
        )
    return [fn(x) for x in items]


def _pool_width(
    workers: Optional[int], pool: Optional[ResilientExecutor]
) -> int:
    """Processes a batched sweep's chunks spread over: a resilient
    pool's own worker count, else ``workers`` (:func:`parallel_map`
    opens a pool of that many), else 1."""
    if isinstance(pool, ResilientExecutor):
        return max(1, pool.workers)
    return max(1, workers or 1)


def _archive_slug(label: str) -> str:
    """Filesystem-safe corpus file stem for a scenario label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")


def run_batch(
    scenario: Scenario,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    pool: Optional[ResilientExecutor] = None,
    archive_dir: Optional[str] = None,
    archive_if: Optional[Callable[[SimulationResult], bool]] = None,
    *,
    policy: Optional[RunPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    batch_size: Optional[int] = None,
    on_seed_result: Optional[
        Callable[[int, SimulationResult], None]
    ] = None,
    on_failure: Optional[Callable[[str, BaseException, bool], None]] = None,
) -> List[SimulationResult]:
    """Run a scenario over a seed range (optionally in parallel).

    Each seed is an independent deterministic simulation, so sharding by
    seed across processes preserves the exact sequential results —
    including under the resilience machinery: ``policy`` configures
    per-seed timeouts, bounded retries with backoff, and pool-rebuild
    limits; ``chaos`` (default: ``REPRO_CHAOS``) injects deterministic
    faults for the chaos suite.

    ``journal_path`` turns on crash-safe checkpointing: every completed
    seed is appended (fsynced) to a ``repro-sweep-v1`` JSONL journal the
    moment it finishes, and with ``resume=True`` seeds already in the
    journal are *not* re-run — their recorded results (bit-identical by
    float64 round-trip) are returned in place.  A sweep killed at any
    point therefore resumes from its last checkpoint.

    ``archive_dir`` (or the ``REPRO_ARCHIVE_DIR`` environment variable)
    turns on failure archiving: every seed whose result satisfies
    ``archive_if`` (default: did not gather and was not a detected
    impossibility) is re-simulated with trace recording — bit-identical
    to the sweep run, by determinism — and written atomically to the
    directory as a self-describing trace JSON that ``repro check
    --replay`` accepts.

    ``on_seed_result(seed, result)`` fires per completed seed —
    journal-resumed seeds first (their recorded results), then fresh
    seeds in completion order; ``on_failure(key, exc, strike)`` fires
    per failed attempt.  The live sweep dashboard hangs off both.

    A ``"batched"`` scenario shards the seed range into contiguous
    chunks of at most ``batch_size`` (default :data:`DEFAULT_BATCH_SIZE`)
    seeds, and no larger than an even share of the seeds per pool worker
    (``pool.workers``, else ``workers``), so a call with fewer than
    ``workers * batch_size`` seeds still gives every worker a chunk
    while a larger one keeps full ``batch_size`` chunks.  Each chunk
    steps through one :class:`~repro.sim.BatchedSimulation` — the work
    unit distributed to the pool, retried, and journalled is the chunk,
    but the journal records and ``on_seed_result`` fires per seed, so
    dashboard/aggregator/resume behave exactly as on the scalar engines
    (a resume re-chunks the remaining seeds; results are
    chunk-invariant).  Failure archiving replays on ``engine="atom"``:
    the batched engine keeps no trace, and the equivalence suite makes
    the scalar replay reproduce the batched run.
    """
    seeds = list(seeds)
    size = resolve_batch_size(batch_size)
    completed: Dict[int, SimulationResult] = {}
    journal: Optional[SweepJournal] = None
    if journal_path:
        journal = SweepJournal.open(
            journal_path, scenario.to_dict(), resume=resume
        )
        completed = journal.completed() if resume else {}
    todo = [seed for seed in seeds if seed not in completed]
    label = scenario.label()

    if on_seed_result is not None:
        for seed in seeds:
            if seed in completed:
                on_seed_result(seed, completed[seed])

    def checkpoint(index: int, result: SimulationResult) -> None:
        if journal is not None:
            journal.append(todo[index], result)
        if on_seed_result is not None:
            on_seed_result(todo[index], result)

    try:
        if scenario.engine == "batched":
            # Load NumPy here, before a pool forks its workers, so they
            # share this copy: a forked worker importing its own peaks
            # about 4 MB higher (measured on Linux, Python 3.11).
            kernels.numpy_module()
            # An even share per worker when the seeds would not fill
            # every worker's chunk; never a chunk over ``batch_size``.
            width = _pool_width(workers, pool)
            size = max(1, min(size, -(-len(todo) // width)))
            chunks = [todo[i : i + size] for i in range(0, len(todo), size)]

            def checkpoint_chunk(index: int, results) -> None:
                for seed, result in zip(chunks[index], results):
                    if journal is not None:
                        journal.append(seed, result)
                    if on_seed_result is not None:
                        on_seed_result(seed, result)

            fresh_chunks = parallel_map(
                partial(_run_batched_chunk, scenario),
                chunks,
                workers=workers,
                pool=pool,
                policy=policy,
                chaos=chaos,
                keys=[
                    f"{label}#seeds{chunk[0]}..{chunk[-1]}"
                    for chunk in chunks
                ],
                on_result=checkpoint_chunk,
                on_failure=on_failure,
            )
            # Chunks are contiguous slices of ``todo``, so flattening
            # restores exact todo order for the zip below.
            fresh = [r for chunk in fresh_chunks for r in chunk]
        else:
            fresh = parallel_map(
                partial(run_scenario, scenario),
                todo,
                workers=workers,
                pool=pool,
                policy=policy,
                chaos=chaos,
                keys=[f"{label}#seed{seed}" for seed in todo],
                on_result=checkpoint,
                on_failure=on_failure,
            )
    finally:
        if journal is not None:
            journal.close()

    by_seed = dict(completed)
    by_seed.update(zip(todo, fresh))
    results = [by_seed[seed] for seed in seeds]

    archive_dir = archive_dir or os.environ.get("REPRO_ARCHIVE_DIR")
    if archive_dir:
        should_archive = archive_if or (
            lambda r: not r.gathered and r.verdict != "impossible"
        )
        # The batched engine keeps no trace; archive the seed-equivalent
        # scalar run instead (the trace then replays on the atom engine).
        replay_scenario = (
            replace(scenario, engine="atom")
            if scenario.engine == "batched"
            else scenario
        )
        for seed, result in zip(seeds, results):
            if not should_archive(result):
                continue
            replayed = run_scenario(replay_scenario, seed, record_trace=True)
            path = os.path.join(
                archive_dir,
                f"{_archive_slug(scenario.label())}-seed{seed}.json",
            )
            atomic_write(path, replayed.trace.to_json(indent=2))
    return results
