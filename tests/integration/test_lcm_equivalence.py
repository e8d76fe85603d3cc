"""Equivalence and property matrix for the unified LCM engine.

ATOM/SSYNC and phased ASYNC runs are one loop parameterised by an
activation model.  This suite pins the contract of that unification:

1. The scheduler x movement x crash matrix runs on both activation
   models, including the cells that were broken or unreachable before
   the unification: async + collusive-stop (the identity hooks were
   dropped), the Poisson scheduler, per-robot speeds and limited
   visibility.
2. Every cell is deterministic (same seed, same outcome) and reaches a
   sensible verdict — crash-tolerant gathering where the paper's
   assumptions hold.
"""

import pytest

from repro.experiments.runner import Scenario, run_scenario

SCHEDULERS = ["fsync", "round-robin", "random", "laggard", "half-split", "poisson"]
MOVEMENTS = [
    "rigid",
    "adversarial-stop",
    "random-stop",
    "collusive-stop",
    "per-robot-speed",
]
CRASHES = ["none", "random", "after-move", "elected"]
ENGINES = ["atom", "async"]


def _run(engine, scheduler, movement, crash, seed, visibility=None):
    scenario = Scenario(
        workload="asymmetric",
        n=6,
        f=0 if crash == "none" else 2,
        scheduler=scheduler,
        crashes=crash,
        movement=movement,
        engine=engine,
        visibility=visibility,
        max_rounds=50_000,
    )
    return run_scenario(scenario, seed)


def assert_identical(a, b):
    assert a.verdict == b.verdict
    assert a.rounds == b.rounds
    assert a.live_ids == b.live_ids
    assert a.crashed_ids == b.crashed_ids
    assert a.final_positions == b.final_positions
    assert a.gathering_point == b.gathering_point
    assert a.total_distance == b.total_distance


class TestSchedulerMovementCrashMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("crash", CRASHES)
    @pytest.mark.parametrize("movement", MOVEMENTS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_cell_deterministic_and_sane(self, engine, scheduler, movement, crash):
        first = _run(engine, scheduler, movement, crash, seed=0)
        again = _run(engine, scheduler, movement, crash, seed=0)
        assert_identical(first, again)
        # Under the paper's assumptions every cell must terminate in a
        # gathered state — crashes are tolerated, adversaries only slow.
        assert first.verdict == "gathered"
        assert first.live_ids and not (set(first.live_ids) & set(first.crashed_ids))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_collusion_cell_actually_colludes(self, engine, seed):
        """Regression for the silent degradation: on a collinear
        workload (movers share rays, so the adversary can coordinate)
        the collusive cell must not be bit-identical to the rigid cell,
        while still gathering.  Before the unification the async engine
        skipped ``begin_round``/``endpoint_for`` and this cell WAS
        rigid."""

        def go(movement):
            scenario = Scenario(
                workload="linear-unique",
                n=6,
                f=2,
                scheduler="fsync",
                crashes="random",
                movement=movement,
                engine=engine,
                max_rounds=50_000,
            )
            return run_scenario(scenario, seed)

        colluded, rigid = go("collusive-stop"), go("rigid")
        assert colluded.verdict == rigid.verdict == "gathered"
        assert (
            colluded.rounds != rigid.rounds
            or colluded.total_distance != rigid.total_distance
        )


class TestNewAxes:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_generous_visibility_still_gathers(self, engine):
        result = _run(engine, "random", "random-stop", "random", 1, visibility=50.0)
        assert result.gathered

    @pytest.mark.parametrize("engine", ENGINES)
    def test_visibility_label_and_determinism(self, engine):
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=2,
            engine=engine,
            visibility=3.0,
            max_rounds=5_000,
        )
        assert "vis=3" in scenario.label()
        assert_identical(run_scenario(scenario, 0), run_scenario(scenario, 0))

    def test_batched_engine_rejects_visibility(self):
        # Refused when the scenario is built, before any chunk runs.
        with pytest.raises(ValueError, match="visibility"):
            Scenario(
                workload="asymmetric", n=6, engine="batched", visibility=5.0
            )

    def test_scenario_roundtrip_with_visibility(self):
        scenario = Scenario(workload="asymmetric", n=6, visibility=8.0)
        assert Scenario(**scenario.to_dict()) == scenario
        # Old dicts without the field still load (corpus compatibility).
        legacy = {k: v for k, v in scenario.to_dict().items() if k != "visibility"}
        assert Scenario.from_dict(legacy).visibility is None
