"""Unit tests for the ASYNC (stale-snapshot) engine: the unified engine
with :class:`~repro.sim.PhasedActivation`."""

import pytest

from repro.algorithms import WaitFreeGather
from repro.geometry import Point
from repro.sim import (
    CrashAtRounds,
    PendingMove,
    PhasedActivation,
    RandomStop,
    RandomSubset,
    RoundRobin,
    Simulation,
)
from repro.workloads import generate

ASYM = [Point(0, 0), Point(5, 0.3), Point(2.1, 4.4), Point(1.2, 1.9), Point(4.0, 3.1)]


def async_sim(positions, **kwargs):
    """An ASYNC run of the algorithm: phased activation, with the
    fairness bound doubled because every cycle takes two activations."""
    return Simulation(
        WaitFreeGather(),
        positions,
        activation=PhasedActivation(),
        fairness_bound=64,
        **kwargs,
    )


class TestConstruction:
    def test_needs_robots(self):
        with pytest.raises(ValueError):
            async_sim([])

    def test_frames_validated(self):
        with pytest.raises(ValueError):
            async_sim(ASYM, frames="mirror")

    def test_deterministic(self):
        r1 = async_sim(ASYM, seed=5).run()
        r2 = async_sim(ASYM, seed=5).run()
        assert r1.rounds == r2.rounds
        assert r1.final_positions == r2.final_positions


class TestPhaseSemantics:
    def test_look_then_move_takes_two_activations(self):
        sim = async_sim(ASYM, seed=1)
        before = sim.positions()
        sim.step()  # every robot LOOKs (pending move, no displacement)
        assert sim.positions() == before
        assert len(sim.activation.pending) == len(ASYM)
        sim.step()  # every robot MOVEs
        assert sim.positions() != before
        assert not sim.activation.pending

    def test_crash_cancels_pending_move(self):
        sim = async_sim(
            ASYM,
            crash_adversary=CrashAtRounds({0: 1}),
            seed=2,
        )
        sim.step()  # robot 0 looked
        assert 0 in sim.activation.pending
        sim.step()  # robot 0 crashes before moving
        assert 0 not in sim.activation.pending
        assert 0 in [r.robot_id for r in sim.robots if r.crashed]

    def test_stale_moves_counted(self):
        # Round-robin: by the time a robot moves, everyone else acted.
        sim = async_sim(
            ASYM, scheduler=RoundRobin(), seed=3,
            max_rounds=5_000,
        )
        result = sim.run()
        assert result.gathered
        assert sim.stale_moves > 0


class TestOutcomes:
    def test_gathers_fault_free(self):
        result = async_sim(ASYM, seed=1).run()
        assert result.gathered

    def test_gathers_with_crashes_and_interruptions(self):
        for seed in range(3):
            sim = async_sim(
                generate("random", 7, seed),
                scheduler=RandomSubset(0.4),
                crash_adversary=CrashAtRounds({1: 2, 4: 10}),
                movement=RandomStop(0.05),
                seed=seed,
                max_rounds=50_000,
            )
            result = sim.run()
            assert result.gathered, f"seed {seed}: {result.verdict}"

    def test_bivalent_detected(self):
        biv = [Point(0, 0)] * 2 + [Point(3, 3)] * 2
        result = async_sim(biv, seed=0).run()
        assert result.verdict == "impossible"

    def test_gathered_requires_no_divergent_pending_move(self):
        # Manufacture: all robots co-located but one holds a stale move
        # elsewhere; the engine must not declare victory.
        sim = async_sim(ASYM, seed=1)
        for robot in sim.robots:
            robot.position = Point(1.0, 1.0)
        sim.activation.pending[0] = PendingMove(Point(9.0, 9.0), 0)
        assert sim._gathered_now() is None
        del sim.activation.pending[0]
        assert sim._gathered_now() is not None
