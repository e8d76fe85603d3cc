"""Sims-axis kernels == per-sim 2-D kernels, elementwise.

The batched engine's correctness argument rests on each sims-axis
kernel replicating its 2-D twin per sim *including under ragged
padding* — padded entries must be inert (no cluster bridged, no sum
touched, no sort disturbed).  These sweeps build batches of deliberately
mixed sizes so every call exercises non-trivial padding, then compare
against one 2-D call per sim.

``batched_weiszfeld`` is the one kernel allowed to diverge: its sums
are masked-to-zero rather than compressed, which can round differently
only when a point lies within ``eps_solver`` of an iterate.  The sweep
therefore asserts exact equality of the iterate and the iteration count
on the generated workloads (none of which trip that corner), while the
engine-level equivalence suite covers the re-certification fallback.
"""

import random

import pytest

from repro.core.configuration import Configuration
from repro.core.safe_points import _max_ray_loads_python, max_ray_load
from repro.geometry import DEFAULT_TOLERANCE, kernels
from repro.workloads import generate

pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="NumPy not importable in this environment",
)

TOL = DEFAULT_TOLERANCE

# Mixed sizes per batch: padding is always ragged.
BATCHES = [
    [("random", 5, 1), ("random", 9, 2), ("asymmetric", 16, 3)],
    [("multiple", 8, 1), ("regular-polygon", 12, 2), ("random", 31, 5)],
    [("linear-unique", 5, 4), ("near-bivalent", 8, 1), ("random", 48, 7)],
    [("biangular", 6, 2), ("unsafe-ray", 16, 3), ("bivalent", 8, 1)],
]


def _configs(cases):
    return [Configuration(generate(w, n, s)) for w, n, s in cases]


@pytest.mark.parametrize("cases", BATCHES)
def test_batched_max_ray_loads_matches_2d(cases):
    configs = _configs(cases)
    supports = [[(p.x, p.y) for p in c.support] for c in configs]
    mults = [[c.mult(p) for p in c.support] for c in configs]
    batched = kernels.batched_max_ray_loads(
        supports, mults, TOL.eps_dist, TOL.eps_angle, 0.05
    )
    for sup, mu, got in zip(supports, mults, batched):
        expected = kernels.max_ray_loads(
            sup, mu, TOL.eps_dist, TOL.eps_angle, 0.05
        )
        assert got == expected


def test_batched_max_ray_loads_chunking_is_invisible(monkeypatch):
    """Slab seams must not change results (budget forced tiny)."""
    cases = BATCHES[0] + BATCHES[1]
    configs = _configs(cases)
    supports = [[(p.x, p.y) for p in c.support] for c in configs]
    mults = [[c.mult(p) for p in c.support] for c in configs]
    whole = kernels.batched_max_ray_loads(
        supports, mults, TOL.eps_dist, TOL.eps_angle, 0.05
    )
    monkeypatch.setattr(kernels, "_BATCH_RAY_BUDGET", 1)
    sliced = kernels.batched_max_ray_loads(
        supports, mults, TOL.eps_dist, TOL.eps_angle, 0.05
    )
    assert sliced == whole


@pytest.mark.parametrize("cases", BATCHES)
def test_batched_polar_views_matches_2d(cases):
    configs = _configs(cases)
    # Uniform robot count is required along the points axis; replicate
    # each sim's multiset to the batch maximum like the engine does not
    # need to (it batches same-round sims individually) — instead build
    # one batch per robot count.
    by_n = {}
    for c in configs:
        by_n.setdefault(c.n, []).append(c)
    for group in by_n.values():
        origins = []
        points = []
        centers = []
        for c in group:
            center = c.sec_center()
            noncentral = [
                p for p in c.support if not p.close_to(center, c.tol)
            ]
            if not noncentral:
                continue
            origins.append([(p.x, p.y) for p in noncentral])
            points.append([(p.x, p.y) for p in c.points])
            centers.append((center.x, center.y))
        if not origins:
            continue
        batched = kernels.batched_polar_views(
            origins, points, centers, TOL.eps_dist, TOL.eps_angle
        )
        for o, p, ctr, got in zip(origins, points, centers, batched):
            expected = kernels.batch_polar_views(
                o, p, ctr, TOL.eps_dist, TOL.eps_angle
            )
            assert got == expected


def test_batched_weiszfeld_matches_2d():
    rng = random.Random(7)
    sets = []
    for _ in range(12):
        pts = [
            (rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(9)
        ]
        sets.append(pts)
    starts = [
        (sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts))
        for pts in sets
    ]
    batched = kernels.batched_weiszfeld(sets, starts, TOL.eps_solver, 10_000)
    for pts, start, got in zip(sets, starts, batched):
        expected = kernels.weiszfeld(pts, start, TOL.eps_solver, 10_000)
        assert got == expected  # iterate AND iteration count


@pytest.mark.parametrize(
    "workload,n,seed",
    [
        ("random", 9, 1),
        ("asymmetric", 16, 2),
        ("multiple", 8, 3),
        ("regular-polygon", 12, 1),
        ("unsafe-ray", 16, 2),
        ("near-bivalent", 8, 1),
    ],
)
def test_python_bulk_ray_loads_matches_reference(workload, n, seed):
    """S2: the cached python bulk path == per-center ``max_ray_load``."""
    config = Configuration(generate(workload, n, seed))
    bulk = _max_ray_loads_python(config)
    reference = [
        max_ray_load(Configuration(config.points), p)
        for p in config.support
    ]
    assert bulk == reference
