"""Seeded memos == the pure-Python tower, over the workload families.

The batched engine warms each configuration's memos from its NumPy
kernels before its sims classify and elect
(``BatchedSimulation._seed_weber`` / ``_seed_asymmetric``): Weber points
for quasi-regularity detection, views and ray loads for elections.
Every analysis that reads a seeded memo must reach what the pure-Python
scalar code computes on its own: the same classification, symmetry,
ray loads, safe points and elected point, views within one quantization
step, and Weber points with the same certificate.  The batched
equivalence suite checks this end to end on a few workloads; these
sweeps check it per configuration on every workload family up to
n = 256.

Seeded sweeps rather than Hypothesis: the interesting inputs here are
the structured workload families (biangular, linear, multiplicities),
which the generators already produce; random floats from a strategy
would explore far less of the classification tower per example.
"""

import pytest

from repro.algorithms import WaitFreeGather
from repro.core.classification import classify
from repro.core.configuration import Configuration
from repro.core.election import elect, election_key
from repro.core.safe_points import all_max_ray_loads, max_ray_load, safe_points
from repro.core.views import symmetry, view_table
from repro.core.weber_point import numeric_weber_point
from repro.geometry import DEFAULT_TOLERANCE
from repro.sim import BatchedSimulation
from repro.workloads import generate

pytest.importorskip("numpy")

# (workload, sizes): every classification branch plus scale.
SWEEP = [
    ("random", [5, 9, 16, 48]),
    ("asymmetric", [5, 9, 16, 48]),
    ("multiple", [5, 9, 16, 48]),
    ("linear-unique", [5, 9, 17, 49]),
    ("linear-interval", [6, 16, 48]),
    ("regular-polygon", [5, 8, 16, 48]),
    ("biangular", [6, 8, 16, 48]),
    ("near-bivalent", [6, 8, 16]),
    ("bivalent", [6, 8, 16]),
    ("unsafe-ray", [8, 16]),
    ("random", [256]),
]

CASES = [
    (workload, n, seed)
    for workload, sizes in SWEEP
    for n in sizes
    for seed in (1, 2)
]


def seeded(pts) -> Configuration:
    """A configuration whose memos the batched engine has warmed."""
    config = Configuration(pts)
    batch = BatchedSimulation([WaitFreeGather()], [pts])
    batch._seed_weber([config])
    batch._seed_asymmetric([config])
    return config


def tower(config: Configuration, ray_loads) -> dict:
    safe = safe_points(config)
    return {
        "class": classify(config).name,
        "symmetry": symmetry(config),
        "ray_loads": ray_loads,
        "safe": safe,
        "views": view_table(config),
        "keys": [election_key(config, p) for p in config.support],
        "elected": elect(config, safe) if safe else None,
    }


def both_paths(pts):
    """The derived tower of ``pts``, pure-Python and seeded."""
    python = Configuration(pts)
    reference = tower(
        python, [max_ray_load(python, p) for p in python.support]
    )
    config = seeded(pts)
    return reference, tower(config, all_max_ray_loads(config))


@pytest.mark.parametrize("workload,n,seed", CASES)
def test_combinatorial_tower_identical(workload, n, seed):
    py, sd = both_paths(generate(workload, n, seed))
    assert py["class"] == sd["class"]
    assert py["symmetry"] == sd["symmetry"]
    assert py["ray_loads"] == sd["ray_loads"]
    assert py["safe"] == sd["safe"]


@pytest.mark.parametrize("workload,n,seed", CASES)
def test_views_within_one_quantum(workload, n, seed):
    py, sd = both_paths(generate(workload, n, seed))
    tol = DEFAULT_TOLERANCE
    assert set(py["views"]) == set(sd["views"])
    for p, va in py["views"].items():
        vb = sd["views"][p]
        assert len(va) == len(vb)
        for (ra, ta), (rb, tb) in zip(va, vb):
            assert abs(ra - rb) <= tol.eps_dist + 1e-15
            assert abs(ta - tb) <= tol.eps_angle + 1e-15


@pytest.mark.parametrize("workload,n,seed", CASES)
def test_election_order_agrees(workload, n, seed):
    py, sd = both_paths(generate(workload, n, seed))
    for ka, kb in zip(py["keys"], sd["keys"]):
        # Multiplicity and distance sum are never seeded.
        assert ka[:2] == kb[:2]
    # The elected point itself must coincide wherever safe points exist
    # (the case the algorithm relies on).
    assert py["elected"] == sd["elected"]


@pytest.mark.parametrize(
    "workload,n,seed",
    [(w, n, s) for w, sizes in SWEEP[:7] for n in sizes[:2] for s in (1,)],
)
def test_weber_certificates_agree(workload, n, seed):
    pts = generate(workload, n, seed)
    reference = numeric_weber_point(Configuration(pts))
    point = numeric_weber_point(seeded(pts))
    assert (reference is None) == (point is None)
    if reference is not None:
        assert reference.distance_to(point) <= DEFAULT_TOLERANCE.eps_dist


@pytest.mark.parametrize("scheduler", ["fsync", "random"])
def test_full_simulation_verdicts_agree(scheduler):
    """End-to-end: the batched engine reaches the scalar engine's verdict.

    The batched engine computes in the global frame, so the assertion is
    on the contract that matters: the verdict and the round count.
    """
    from repro.experiments.runner import Scenario, run_batched, run_scenario

    scenario = Scenario(
        workload="asymmetric", n=9, f=2, scheduler=scheduler, max_rounds=5_000
    )
    scalar = run_scenario(scenario, seed=3)
    (batched,) = run_batched(
        Scenario(**{**scenario.to_dict(), "engine": "batched"}), [3]
    )
    assert batched.verdict == scalar.verdict
    assert batched.rounds == scalar.rounds
