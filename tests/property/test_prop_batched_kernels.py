"""Sims-axis kernels == the per-configuration (2-D) Python references.

The batched engine's correctness argument rests on each sims-axis
kernel replicating, per sim, the pure-Python computation whose memo it
seeds — *including under ragged padding*: padded entries must be inert
(no cluster bridged, no sum touched, no sort disturbed).  These sweeps
build batches of deliberately mixed sizes so every call exercises
non-trivial padding, then compare each sim against its 2-D reference,
the single-configuration code of :mod:`repro.core` and
:mod:`repro.geometry.weber`.

Ray loads and views must match exactly.  ``batched_weiszfeld`` sums in
NumPy's order, not the reference's left-to-right order, so its iterate
is only asserted within ``eps_solver`` of the reference's; the batched
engine re-certifies every seeded Weber point.
"""

import math
import random

import pytest

from repro.core.configuration import Configuration
from repro.core.safe_points import _max_ray_loads_python, max_ray_load
from repro.core.successor import MAX_ANGULAR_RESOLUTION
from repro.core.views import _polar_view
from repro.geometry import DEFAULT_TOLERANCE, kernels
from repro.geometry.weber import _weiszfeld
from repro.workloads import generate

pytest.importorskip("numpy")

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
        supports, mults, TOL.eps_dist, TOL.eps_angle, MAX_ANGULAR_RESOLUTION
    )
    for config, got in zip(configs, batched):
        assert got == _max_ray_loads_python(config)


def test_batched_max_ray_loads_chunking_is_invisible(monkeypatch):
    """Slab seams must not change results (budget forced tiny)."""
    cases = BATCHES[0] + BATCHES[1]
    configs = _configs(cases)
    supports = [[(p.x, p.y) for p in c.support] for c in configs]
    mults = [[c.mult(p) for p in c.support] for c in configs]
    whole = kernels.batched_max_ray_loads(
        supports, mults, TOL.eps_dist, TOL.eps_angle, MAX_ANGULAR_RESOLUTION
    )
    monkeypatch.setattr(kernels, "_BATCH_RAY_BUDGET", 1)
    sliced = kernels.batched_max_ray_loads(
        supports, mults, TOL.eps_dist, TOL.eps_angle, MAX_ANGULAR_RESOLUTION
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
        sims = []
        for c in group:
            center = c.sec_center()
            noncentral = [
                p for p in c.support if not p.close_to(center, c.tol)
            ]
            if noncentral:
                sims.append((c, center, noncentral))
        if not sims:
            continue
        batched = kernels.batched_polar_views(
            [[(p.x, p.y) for p in noncentral] for _, _, noncentral in sims],
            [[(p.x, p.y) for p in c.points] for c, _, _ in sims],
            [(center.x, center.y) for _, center, _ in sims],
            TOL.eps_dist,
            TOL.eps_angle,
        )
        for (c, center, noncentral), got in zip(sims, batched):
            assert got == [_polar_view(c, p, center) for p in noncentral]


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
    for pts, start, (gx, gy, _) in zip(sets, starts, batched):
        ex, ey, _ = _weiszfeld(pts, start, TOL.eps_solver, 10_000)
        assert math.hypot(gx - ex, gy - ey) <= TOL.eps_solver


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
