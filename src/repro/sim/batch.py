"""Batched ATOM engine: many seeds stepped in lockstep.

A 10k-seed sweep runs 10k independent round loops over the *same*
scenario shape — same robot count, same component models, different RNG
substreams and workload draws.  Each sim of a :class:`BatchedSimulation`
is a :class:`~repro.sim.engine.Simulation` climbing the scalar engine's
own round ladder (:meth:`~repro.sim.engine.Simulation.ladder`) — crash
adversaries, fair scheduling, movement models, the gathered / bivalent /
stalled verdicts and the per-component RNG substreams are that one
implementation.  The batch adds the two things that make it fast:

* **One tower per sim per round.**  The algorithm is anonymous and
  equivariant under the robots' private similarity frames (asserted by
  ``tests/integration/test_frame_invariance.py``), so destinations are
  computed once per occupied position in the *global* frame and shared
  by co-located robots — instead of one full tower per robot in its
  private frame.  The scalar engine with ``frames="identity"`` makes
  the same computation.  With random frames a distance test near its
  tolerance band can decide differently in a robot's private unit of
  length, so outcomes can differ: 4 of 257 seeds of a 16-robot
  random-crash sweep ended with other round counts or crash sets.
* **Sims-axis memo seeding.**  The ladders pause before classifying
  and before the stall check; at those points the expensive analyses
  are pre-seeded across all unfinished sims with one vectorized call
  each (batched Weiszfeld for quasi-regularity detection, batched views
  and ray loads for asymmetric elections) via the ``batched_*`` kernels
  of :mod:`repro.geometry.kernels`.  Seeding starts at
  :data:`~repro.geometry.kernels.KERNEL_MIN_N` robots, where one NumPy
  call beats the per-sim pure-Python computation it replaces.

The equivalence suite asserts seed-for-seed identical verdicts and round
counts against the scalar engine, with final positions inside the
recorded tolerance.

Deliberately out of scope: byzantine robots, limited visibility,
mirrored frames, sensor noise and per-round traces.  Those knobs are
single-seed experiment tools; sweeps that need them use the scalar
engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import GatheringAlgorithm
from ..core import ConfigClass, Configuration
from ..core import classification as _classification
from ..core.successor import MAX_ANGULAR_RESOLUTION
from ..core.views import _polar_view
from ..geometry import DEFAULT_TOLERANCE, Point, Tolerance, kernels
from ..geometry.predicates import all_collinear
from ..geometry.weber import MAX_ITERATIONS, _initial_guess, is_weber_point
from .. import obs as _obs
from .engine import Simulation, SimulationResult
from .faults import CrashAdversary
from .movement import MovementModel
from .robot import Robot
from .scheduler import Scheduler

__all__ = ["BatchedSimulation"]


class _GlobalFrameSimulation(Simulation):
    """One sim of a batch: the scalar ladder with a global-frame LOOK."""

    _look_config: Optional[Configuration] = None

    def _destination_for(
        self, robot: Robot, config: Configuration
    ) -> Optional[Point]:
        # Co-located robots receive the same instruction (the algorithm
        # is anonymous), so each occupied position of a configuration is
        # computed once, in the global frame.
        if config is not self._look_config:
            self._look_config = config
            self._look_dests: Dict[Point, Point] = {}
        rep = config.locate(robot.position)
        if rep is None:
            rep = robot.position
        dest = self._look_dests.get(rep)
        if dest is None:
            dest = self._snap_destination(
                self.algorithm.compute(config, rep), config
            )
            self._look_dests[rep] = dest
        return dest


class BatchedSimulation:
    """Step many same-shaped simulations one round at a time, in lockstep.

    Parameters mirror :class:`repro.sim.engine.Simulation` but are
    per-sim sequences: ``positions[s]`` are sim ``s``'s initial global
    positions (every sim must have the same robot count), and
    ``algorithms`` / ``schedulers`` / ``crash_adversaries`` /
    ``movements`` / ``seeds`` supply one (fresh, unshared) component per
    sim — model components are stateful, so instances must not be
    reused across sims.  ``None`` selects the scalar engine's benign
    defaults for every sim.

    Requires NumPy (the sims-axis kernels are the point); per-sim tower
    computations that no kernel seeded run the pure-Python scalar code.
    """

    def __init__(
        self,
        algorithms: Sequence[GatheringAlgorithm],
        positions: Sequence[Sequence[Point]],
        *,
        schedulers: Optional[Sequence[Scheduler]] = None,
        crash_adversaries: Optional[Sequence[CrashAdversary]] = None,
        movements: Optional[Sequence[MovementModel]] = None,
        seeds: Optional[Sequence[int]] = None,
        tol: Tolerance = DEFAULT_TOLERANCE,
        fairness_bound: int = 32,
        snap_tolerance: float = 1e-9,
        max_rounds: int = 50_000,
        halt_on_bivalent: bool = True,
    ) -> None:
        if kernels.numpy_module() is None:
            raise RuntimeError(
                "the batched engine requires NumPy; use the scalar engine "
                "when it is not installed"
            )
        if not positions:
            raise ValueError("a batched simulation needs at least one sim")
        self.n_sims = len(positions)
        self.n_robots = len(positions[0])
        if any(len(pts) != self.n_robots for pts in positions):
            raise ValueError(
                "all sims in a batch must have the same robot count"
            )

        def per_sim(name: str, given) -> list:
            items = [None] * self.n_sims if given is None else list(given)
            if len(items) != self.n_sims:
                raise ValueError(f"need one {name} per sim")
            return items

        self.tol = tol
        # Identity frames draw nothing from the engine's main stream; the
        # crash / scheduling / movement substreams match the scalar
        # engine's seed for seed.
        sims = [
            _GlobalFrameSimulation(
                algorithm,
                pts,
                scheduler=scheduler,
                crash_adversary=crash_adversary,
                movement=movement,
                tol=tol,
                frames="identity",
                seed=seed,
                fairness_bound=fairness_bound,
                snap_tolerance=snap_tolerance,
                max_rounds=max_rounds,
                halt_on_bivalent=halt_on_bivalent,
            )
            for algorithm, pts, scheduler, crash_adversary, movement, seed in zip(
                per_sim("algorithm", algorithms),
                positions,
                per_sim("scheduler", schedulers),
                per_sim("crash adversary", crash_adversaries),
                per_sim("movement model", movements),
                list(range(self.n_sims)) if seeds is None
                else per_sim("seed", seeds),
            )
        ]
        self._ladders = [sim.ladder() for sim in sims]
        self._results: List[Optional[SimulationResult]] = [None] * self.n_sims

    # -- batched tower pre-seeding -------------------------------------------

    def _seed_weber(self, configs: List[Configuration]) -> None:
        """Warm ``weber_numeric`` memos for sims about to classify QR.

        Replicates :func:`repro.geometry.weber.geometric_median` —
        input-point screening, certification, Weiszfeld fallback — with
        the distance sums and the iteration loop on NumPy, and the
        iteration batched across sims.
        """
        if self.n_robots < kernels.KERNEL_MIN_N:
            return
        pending: List[Tuple[Configuration, list]] = []
        for config in configs:
            if config.memo_get("class") is not None:
                continue
            if (
                _classification._is_bivalent(config)
                or _classification._has_unique_max_multiplicity(config)
                or config.is_linear()
            ):
                continue  # classify never reaches the Weber solve
            pts = config.points
            if all_collinear(pts, config.tol):
                continue  # interval-midpoint branch: per-sim path
            coords = [(p.x, p.y) for p in pts]
            sums = kernels.distance_sums(coords, coords)
            bi = min(range(len(pts)), key=sums.__getitem__)
            best_input = pts[bi]
            if is_weber_point(best_input, pts, config.tol):
                config.memo("weber_numeric", lambda p=best_input: p)
            else:
                pending.append((config, coords))
        if not pending:
            return
        starts = []
        for config, _ in pending:
            guess = _initial_guess(config.points)
            starts.append((guess.x, guess.y))
        solved = kernels.batched_weiszfeld(
            [coords for _, coords in pending],
            starts,
            self.tol.eps_solver,
            MAX_ITERATIONS,
        )
        for (config, _), (x, y, _its) in zip(pending, solved):
            point = Point(x, y)
            certified = is_weber_point(point, config.points, config.tol)
            value = point if certified else None
            config.memo("weber_numeric", lambda v=value: v)

    def _seed_asymmetric(self, configs: List[Configuration]) -> None:
        """Warm ``ray_loads`` and ``views`` memos for asymmetric sims.

        Elections over safe points consume both; one batched kernel
        call each replaces the per-sim pure-Python computations of
        :func:`all_max_ray_loads` and :func:`view_table`, which it
        matches exactly.
        """
        loads_group: List[Configuration] = []
        views_group: List[tuple] = []
        tol = self.tol
        for config in configs:
            support = config.support
            if (
                config.memo_get("ray_loads") is None
                and len(support) >= kernels.KERNEL_MIN_N
            ):
                loads_group.append(config)
            if (
                config.memo_get("views") is None
                and config.n >= kernels.KERNEL_MIN_N
            ):
                if len(support) > 1:
                    c = config.sec_center()
                    center_points = [
                        p for p in support if p.close_to(c, tol)
                    ]
                    outer = [
                        p for p in support if not p.close_to(c, tol)
                    ]
                    if outer:
                        views_group.append(
                            (config, c, outer, center_points)
                        )
        if loads_group:
            all_loads = kernels.batched_max_ray_loads(
                [
                    [(p.x, p.y) for p in config.support]
                    for config in loads_group
                ],
                [
                    [config.mult(p) for p in config.support]
                    for config in loads_group
                ],
                tol.eps_dist,
                tol.eps_angle,
                MAX_ANGULAR_RESOLUTION,
            )
            for config, loads in zip(loads_group, all_loads):
                config.memo("ray_loads", lambda v=loads: v)
        if views_group:
            all_views = kernels.batched_polar_views(
                [
                    [(p.x, p.y) for p in outer]
                    for _, _, outer, _ in views_group
                ],
                [
                    [(q.x, q.y) for q in config.points]
                    for config, _, _, _ in views_group
                ],
                [(c.x, c.y) for _, c, _, _ in views_group],
                tol.eps_dist,
                tol.eps_angle,
            )
            for (config, c, outer, center_points), views in zip(
                views_group, all_views
            ):
                table = dict(zip(outer, views))
                # Central positions: same reference rule as
                # ``repro.core.views._compute_view_table``.
                best = max(table, key=table.get) if table else None
                for cp in center_points:
                    if best is None or cp.distance_to(best) <= tol.eps_dist:
                        table[cp] = tuple(((0.0, 0.0),) * config.n)
                    else:
                        table[cp] = _polar_view(config, cp, best)
                config.memo("views", lambda t=table: t)

    # -- the lockstep round --------------------------------------------------

    def _advance(self, sims: Sequence[int]) -> Dict[int, object]:
        """Resume each sim's ladder to its next pause.

        Returns what each still-running sim paused on; a ladder that
        finishes instead leaves its result in ``self._results``.
        """
        paused: Dict[int, object] = {}
        for s in sims:
            try:
                paused[s] = next(self._ladders[s])
            except StopIteration as done:
                self._results[s] = done.value
        return paused

    def step_round(self) -> int:
        """Advance every unfinished sim by one ATOM round.

        Returns the number of sims actually stepped (sims that reach a
        verdict this round — out of rounds, gathered, bivalent, stalled —
        do so before their step, exactly like the scalar run loop).
        """
        running = [s for s, r in enumerate(self._results) if r is None]
        if not running:
            return 0
        tracer = (
            _obs.tracer
            if _obs.state.enabled and _obs.tracer.active
            else None
        )
        round_span = (
            tracer.begin("batch_round", "round", attrs={"sims": len(running)})
            if tracer is not None
            else None
        )
        configs = self._advance(running)
        self._seed_weber(list(configs.values()))
        classes = self._advance(list(configs))
        self._seed_asymmetric(
            [
                configs[s]
                for s, cls in classes.items()
                if cls is ConfigClass.ASYMMETRIC
            ]
        )
        stepped = len(self._advance(list(classes)))
        if round_span is not None:
            round_span.attrs["stepped"] = stepped
            tracer.end(round_span)
        return stepped

    def run_all(self) -> List[SimulationResult]:
        """Run every sim to a verdict; results in input-sim order."""
        run_span = (
            _obs.tracer.begin(
                "batch_run",
                "run",
                attrs={"engine": "batched", "sims": self.n_sims},
            )
            if _obs.state.enabled and _obs.tracer.active
            else None
        )
        while any(r is None for r in self._results):
            self.step_round()
        if run_span is not None:
            _obs.tracer.end(run_span)
        return list(self._results)
