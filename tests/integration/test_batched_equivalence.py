"""Batched engine == scalar ATOM engine, seed for seed.

The batched engine's whole claim is that it is a *performance* change,
not a semantics change: for every (scenario, seed) it must reach the
same verdict after the same number of rounds, crash the same robots,
traverse the same classification sequence and leave every robot within
numerical tolerance of the scalar engine's final position.

The matrix crosses schedulers x movement models x crash adversaries so
each RNG substream (scheduling, movement, crashes) is exercised both
alone and together.  Teams have ``KERNEL_MIN_N`` robots or more, so
every cell also compares the memos the batched engine seeds from its
NumPy kernels against the pure-Python scalar engine.  Frames differ by
design — the scalar engine hands each robot a private frame while the
batched engine computes once in the global frame — which is exactly the
frame equivariance the invariance suite establishes; agreement here is
evidence the equivariance argument holds end to end.
"""

import pytest

from repro.experiments.runner import Scenario, run_batched, run_scenario
from repro.geometry.kernels import KERNEL_MIN_N

pytest.importorskip("numpy")

POSITION_TOL = 1e-6

SCHEDULERS = ["fsync", "round-robin", "random"]
MOVEMENTS = ["rigid", "adversarial-stop", "random-stop", "collusive-stop"]
CRASHES = ["none", "random", "after-move", "elected"]

MATRIX = [
    (scheduler, movement, crash)
    for scheduler in SCHEDULERS
    for movement in MOVEMENTS
    for crash in CRASHES
]


def assert_equivalent(scalar, batched):
    assert batched.verdict == scalar.verdict
    assert batched.rounds == scalar.rounds
    assert batched.live_ids == scalar.live_ids
    assert batched.crashed_ids == scalar.crashed_ids
    assert batched.classes_seen == scalar.classes_seen
    assert batched.initial_class == scalar.initial_class
    assert set(batched.final_positions) == set(scalar.final_positions)
    for rid, p in scalar.final_positions.items():
        q = batched.final_positions[rid]
        assert abs(p.x - q.x) <= POSITION_TOL
        assert abs(p.y - q.y) <= POSITION_TOL
    if scalar.gathering_point is None:
        assert batched.gathering_point is None
    else:
        assert batched.gathering_point is not None
        assert (
            scalar.gathering_point.distance_to(batched.gathering_point)
            <= POSITION_TOL
        )
    assert batched.total_distance == pytest.approx(
        scalar.total_distance, abs=1e-6, rel=1e-9
    )


@pytest.mark.parametrize("scheduler,movement,crash", MATRIX)
def test_matrix_cell_matches_scalar(scheduler, movement, crash):
    scenario = Scenario(
        workload="random",
        n=KERNEL_MIN_N,
        f=0 if crash == "none" else 2,
        scheduler=scheduler,
        crashes=crash,
        movement=movement,
        max_rounds=2_000,
        engine="batched",
    )
    scalar_scenario = Scenario(
        **{**scenario.to_dict(), "engine": "atom"}
    )
    seeds = [0, 1]
    batched = run_batched(scenario, seeds)
    for seed, b in zip(seeds, batched):
        assert_equivalent(run_scenario(scalar_scenario, seed), b)


@pytest.mark.parametrize(
    "workload,n",
    [
        ("random", 10),
        ("asymmetric", 12),
        ("multiple", 11),
        ("regular-polygon", 12),
        ("linear-interval", 16),
    ],
)
def test_seeded_workloads_match_scalar(workload, n):
    """Same comparison on workloads that reach each seeded memo (weber /
    ray loads / views) of the batched engine."""
    scenario = Scenario(
        workload=workload,
        n=n,
        f=1,
        scheduler="random",
        crashes="random",
        movement="adversarial-stop",
        max_rounds=2_000,
        engine="batched",
    )
    scalar_scenario = Scenario(**{**scenario.to_dict(), "engine": "atom"})
    seeds = [0, 1, 2]
    batched = run_batched(scenario, seeds)
    for seed, b in zip(seeds, batched):
        assert_equivalent(run_scenario(scalar_scenario, seed), b)
