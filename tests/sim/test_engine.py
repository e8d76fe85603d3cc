"""Unit tests for the ATOM round engine."""

import math

import pytest

from repro.algorithms import CentroidConvergence, SequentialGather, WaitFreeGather
from repro.core import ConfigClass
from repro.experiments.runner import Scenario, build_simulation
from repro.geometry import Point
from repro.sim import (
    CrashAtRounds,
    FullySynchronous,
    RoundRobin,
    Simulation,
    Verdict,
)

SQUARE = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
ASYM = [Point(0, 0), Point(5, 0.3), Point(2.1, 4.4), Point(1.2, 1.9), Point(4.0, 3.1)]


class TestConstruction:
    def test_needs_robots(self):
        with pytest.raises(ValueError):
            Simulation(WaitFreeGather(), [])

    def test_frames_validated(self):
        with pytest.raises(ValueError):
            Simulation(WaitFreeGather(), SQUARE, frames="mirrored")

    def test_deterministic_in_seed(self):
        r1 = Simulation(WaitFreeGather(), ASYM, seed=5).run()
        r2 = Simulation(WaitFreeGather(), ASYM, seed=5).run()
        assert r1.rounds == r2.rounds
        assert r1.final_positions == r2.final_positions

    def test_different_seeds_may_differ(self):
        # Not a hard guarantee per-seed, but frames differ so local
        # computations differ; at minimum the run must still gather.
        r = Simulation(WaitFreeGather(), ASYM, seed=99).run()
        assert r.gathered


class TestRoundSemantics:
    def test_atomicity_all_active_see_same_snapshot(self):
        # Under FSYNC from a QR square all robots must compute the SAME
        # center even though each computes in its own random frame.
        sim = Simulation(WaitFreeGather(), SQUARE, seed=3)
        record = sim.step()
        destinations = list(record.destinations.values())
        for d in destinations[1:]:
            assert d.close_to(destinations[0], sim.tol)

    def test_inactive_robots_do_not_move(self):
        sim = Simulation(
            WaitFreeGather(), ASYM, scheduler=RoundRobin(), seed=1
        )
        before = sim.positions()
        record = sim.step()
        moved = set(record.moved)
        for rid, pos in sim.positions().items():
            if rid not in moved:
                assert pos == before[rid]

    def test_crashed_robot_never_activated(self):
        sim = Simulation(
            WaitFreeGather(),
            ASYM,
            crash_adversary=CrashAtRounds({0: 0}),
            seed=2,
        )
        for _ in range(6):
            record = sim.step()
            assert 0 not in record.active
        assert 0 in sim.crashed_ids()

    def test_crashed_robot_still_visible(self):
        sim = Simulation(
            WaitFreeGather(),
            ASYM,
            crash_adversary=CrashAtRounds({0: 0}),
            seed=2,
        )
        sim.step()
        assert len(sim.configuration().points) == len(ASYM)

    def test_observer_called_every_round(self):
        calls = []
        sim = Simulation(WaitFreeGather(), ASYM, seed=1)
        sim.add_observer(lambda record: calls.append(record.round_index))
        sim.step()
        sim.step()
        assert calls == [0, 1]


class TestVerdicts:
    def test_gathered_fault_free(self):
        result = Simulation(WaitFreeGather(), ASYM, seed=0).run()
        assert result.verdict == Verdict.GATHERED
        assert result.gathering_point is not None

    def test_gathered_with_crashes_excludes_dead(self):
        result = Simulation(
            WaitFreeGather(),
            ASYM,
            crash_adversary=CrashAtRounds({1: 0, 3: 2}),
            seed=4,
        ).run()
        assert result.gathered
        live_positions = [result.final_positions[r] for r in result.live_ids]
        for p in live_positions[1:]:
            assert p.close_to(live_positions[0])

    def test_bivalent_start_impossible(self):
        biv = [Point(0, 0)] * 2 + [Point(3, 3)] * 2
        result = Simulation(WaitFreeGather(), biv, seed=0).run()
        assert result.verdict == Verdict.IMPOSSIBLE
        assert result.rounds == 0

    def test_halt_on_bivalent_off_keeps_running(self):
        biv = [Point(0, 0)] * 2 + [Point(3, 3)] * 2
        result = Simulation(
            CentroidConvergence(), biv, seed=0, halt_on_bivalent=False,
            max_rounds=50,
        ).run()
        assert result.verdict != Verdict.IMPOSSIBLE

    def test_stalled_detection(self):
        # Sequential gathering with its designated mover crashed is a
        # fixpoint: the engine must report a stall, not spin.
        pts = [Point(0, 0), Point(0, 0), Point(1, 0), Point(5, 5)]
        # mover will be the robot at (1,0) (closest to the max point).
        result = Simulation(
            SequentialGather(),
            pts,
            crash_adversary=CrashAtRounds({2: 0}),
            seed=0,
            max_rounds=500,
        ).run()
        assert result.verdict == Verdict.STALLED
        assert result.rounds < 100

    def test_max_rounds_respected(self):
        result = Simulation(
            CentroidConvergence(),
            [Point(0, 0)] * 2 + [Point(3, 3)] * 2,
            seed=0,
            halt_on_bivalent=False,
            max_rounds=7,
            scheduler=RoundRobin(),
        ).run()
        assert result.rounds <= 7

    def test_initial_class_recorded(self):
        result = Simulation(WaitFreeGather(), SQUARE, seed=1).run()
        assert result.initial_class is ConfigClass.QUASI_REGULAR

    def test_total_distance_positive_when_moving(self):
        result = Simulation(WaitFreeGather(), ASYM, seed=1).run()
        assert result.total_distance > 0.0

    def test_total_distance_is_exactly_rounded(self):
        # Builtin sum() adds naively before Python 3.12 and compensates
        # from 3.12 on; math.fsum gives one answer everywhere.  In this
        # run the naive sum is one ulp off the exactly rounded one.
        scenario = Scenario(
            workload="asymmetric", n=8, f=1, scheduler="fsync",
            crashes="random", movement="random-stop",
        )
        sim = build_simulation(scenario, 1701674402)
        result = sim.run()
        assert result.total_distance == math.fsum(
            r.distance_travelled for r in sim.robots
        )


class TestTrace:
    def test_trace_recorded_when_enabled(self):
        sim = Simulation(WaitFreeGather(), ASYM, seed=1, record_trace=True)
        result = sim.run()
        assert result.trace is not None
        assert len(result.trace) == result.rounds
        rendered = result.trace.render()
        assert "r   0" in rendered

    def test_trace_off_by_default(self):
        result = Simulation(WaitFreeGather(), ASYM, seed=1).run()
        assert result.trace is None

    def test_identity_frames_supported(self):
        result = Simulation(
            WaitFreeGather(), ASYM, frames="identity", seed=1
        ).run()
        assert result.gathered
