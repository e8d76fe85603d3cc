"""Unit tests for the unified LCM engine's activation models and the
new scheduler/movement matrix axes.

The headline regression here is async collusion: the legacy CORDA
engine resolved moves through the identity-blind ``endpoint`` and never
called ``begin_round``, silently degrading :class:`CollusiveStop` to
rigid movement.  The unified MOVE phase threads the identity hooks
through both activation models, so a colluded async run must actually
stack robots.
"""

import pytest

from repro.algorithms import WaitFreeGather
from repro.geometry import DEFAULT_TOLERANCE, Point
from repro.sim import (
    AtomicActivation,
    CollusiveStop,
    FullySynchronous,
    PendingMove,
    PerRobotSpeed,
    PhasedActivation,
    PoissonScheduler,
    Simulation,
    component_rng,
)

ASYM = [Point(0, 0), Point(5, 0.3), Point(2.1, 4.4), Point(1.2, 1.9), Point(4.0, 3.1)]


def async_sim(algorithm, positions, **kwargs):
    """An ASYNC run: phased activation, with the fairness bound doubled
    because every cycle takes two activations."""
    return Simulation(
        algorithm,
        positions,
        activation=PhasedActivation(),
        fairness_bound=64,
        **kwargs,
    )


class LeftOfLeftmost:
    """Stub algorithm: one unit left of the leftmost visible point.

    For collinear robots at ``(1, 0), (2, 0), (3, 0)`` in identity
    frames this is the *same global point* (the origin) for every
    robot, putting all three moves on a common ray — the collusion
    precondition.
    """

    name = "left-of-leftmost"

    def compute(self, config, me):
        leftmost = min(config.points)
        return Point(leftmost.x - 1.0, leftmost.y)


class TestActivationModels:
    def test_atomic_holds_no_pending(self):
        model = AtomicActivation()
        assert model.name == "atom"
        assert not model.phased
        model.on_crash(0)  # no-op, never raises
        assert model.pending == {}

    def test_phased_drops_pending_on_crash(self):
        model = PhasedActivation()
        assert model.name == "async"
        assert model.phased
        model.pending[3] = PendingMove(Point(1.0, 1.0), 0)
        model.on_crash(3)
        model.on_crash(4)  # absent id is fine
        assert model.pending == {}

    def test_divergent_pending(self):
        model = PhasedActivation()
        spot = Point(1.0, 1.0)
        model.pending[0] = PendingMove(Point(1.0, 1.0), 0)
        assert not model.divergent_pending(spot, [0], DEFAULT_TOLERANCE)
        model.pending[1] = PendingMove(Point(9.0, 9.0), 0)
        assert model.divergent_pending(spot, [0, 1], DEFAULT_TOLERANCE)
        # A dead robot's stale destination no longer matters.
        assert not model.divergent_pending(spot, [0], DEFAULT_TOLERANCE)

    def test_simulation_defaults_to_atom(self):
        sim = Simulation(WaitFreeGather(), ASYM, seed=1)
        assert sim.activation.name == "atom"
        assert async_sim(WaitFreeGather(), ASYM, seed=1).activation.name == "async"


class TestAsyncCollusionRegression:
    def test_collusive_stop_stacks_async_robots(self):
        """The satellite bug: CollusiveStop must collude under ASYNC."""
        movement = CollusiveStop(0.2)
        sim = async_sim(
            LeftOfLeftmost(),
            [Point(1.0, 0.0), Point(2.0, 0.0), Point(3.0, 0.0)],
            scheduler=FullySynchronous(),
            movement=movement,
            frames="identity",
            seed=0,
        )
        sim.step()  # all robots LOOK: common destination (0, 0)
        assert {p.destination for p in sim.activation.pending.values()} == {Point(0.0, 0.0)}
        sim.step()  # all robots MOVE: the adversary stacks them
        stop = Point(0.8, 0.0)  # most-advanced mover's delta-stop
        assert set(sim.positions().values()) == {stop}

    def test_collusive_stop_stacks_atom_robots(self):
        """Same attack under ATOM — the two engines share the MOVE phase."""
        sim = Simulation(
            LeftOfLeftmost(),
            [Point(1.0, 0.0), Point(2.0, 0.0), Point(3.0, 0.0)],
            movement=CollusiveStop(0.2),
            frames="identity",
            seed=0,
        )
        sim.step()
        assert set(sim.positions().values()) == {Point(0.8, 0.0)}

    def test_async_collusion_differs_from_rigid(self):
        """Before the fix both runs were identical (collusion dropped)."""
        def final(movement):
            sim = async_sim(
                LeftOfLeftmost(),
                [Point(1.0, 0.0), Point(2.0, 0.0), Point(3.0, 0.0)],
                scheduler=FullySynchronous(),
                movement=movement,
                frames="identity",
                seed=0,
                max_rounds=2,
            )
            sim.run()
            return set(sim.positions().values())

        assert final(CollusiveStop(0.2)) != final(None)  # None -> rigid


class TestPerRobotSpeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerRobotSpeed(())
        with pytest.raises(ValueError):
            PerRobotSpeed((1.0, 0.0))

    def test_speeds_cycle_over_ids(self):
        model = PerRobotSpeed((1.0, 0.25))
        assert model.speed_of(0) == 1.0
        assert model.speed_of(1) == 0.25
        assert model.speed_of(2) == 1.0

    def test_endpoint_for_caps_at_own_speed(self):
        model = PerRobotSpeed((1.0, 0.25))
        origin, dest = Point(0.0, 0.0), Point(10.0, 0.0)
        assert model.endpoint_for(0, origin, dest) == Point(1.0, 0.0)
        assert model.endpoint_for(1, origin, dest) == Point(0.25, 0.0)
        # Within reach: arrives bitwise.
        assert model.endpoint_for(1, Point(9.9, 0.0), dest) == dest

    def test_identity_blind_fallback_uses_slowest(self):
        model = PerRobotSpeed((1.0, 0.25))
        rng = component_rng(0, "move")
        assert model.endpoint(Point(0.0, 0.0), Point(10.0, 0.0), rng) == Point(0.25, 0.0)

    def test_gathers_on_both_activation_models(self):
        movement = PerRobotSpeed((1.0, 0.25, 0.05))
        atom = Simulation(
            WaitFreeGather(), ASYM, movement=movement, seed=3, max_rounds=100_000
        ).run()
        assert atom.gathered
        phased = async_sim(
            WaitFreeGather(), ASYM, movement=PerRobotSpeed((1.0, 0.25, 0.05)), seed=3
        ).run()
        assert phased.gathered


class TestPoissonScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonScheduler(0.0)

    def test_deterministic_given_rng(self):
        def schedule(seed):
            sched = PoissonScheduler(0.5)
            rng = component_rng(seed, "sched")
            return [tuple(sorted(sched.select(i, [0, 1, 2], rng))) for i in range(50)]

        assert schedule(1) == schedule(1)
        assert schedule(1) != schedule(2)

    def test_gaps_are_not_lockstep(self):
        """Exponential clocks must produce non-FSYNC activation patterns."""
        sched = PoissonScheduler(0.5)
        rng = component_rng(0, "sched")
        rounds = [frozenset(sched.select(i, [0, 1, 2], rng)) for i in range(40)]
        assert len(set(rounds)) > 1

    def test_gathers_on_both_activation_models(self):
        atom = Simulation(
            WaitFreeGather(),
            ASYM,
            scheduler=PoissonScheduler(0.5),
            seed=5,
            max_rounds=100_000,
        ).run()
        assert atom.gathered
        phased = async_sim(
            WaitFreeGather(), ASYM, scheduler=PoissonScheduler(0.5), seed=5
        ).run()
        assert phased.gathered


class TestUnifiedPredicates:
    def test_phased_gathered_uses_effective_view(self):
        """The termination predicate is shared: the async side now judges
        stability through correct_ids + the engine view, like ATOM."""
        sim = async_sim(WaitFreeGather(), ASYM, seed=1)
        result = sim.run()
        assert result.gathered
        assert result.gathering_point is not None

    def test_phased_stall_guarded_by_pending(self):
        """A half-finished cycle is never reported as a stalled fixpoint."""
        sim = async_sim(WaitFreeGather(), ASYM, seed=1)
        sim.step()  # everyone holds a pending move now
        assert sim.activation.pending
        assert not sim._stalled_now(sim.configuration())

    def test_limited_visibility_threads_through_phased_look(self):
        """A radius that disconnects the team keeps it apart under ASYNC."""
        far = [Point(0.0, 0.0), Point(0.5, 0.0), Point(100.0, 0.0), Point(100.5, 0.0)]
        sim = async_sim(
            WaitFreeGather(), far, seed=2, visibility=5.0, max_rounds=2_000
        )
        result = sim.run()
        assert not result.gathered
        xs = sorted(p.x for p in sim.positions().values())
        assert xs[1] < 50.0 < xs[2]  # two clusters never merged
