"""Sims-axis kernels == the per-configuration (2-D) Python references.

The batched engine's correctness argument rests on each sims-axis
kernel replicating, per sim, the pure-Python computation whose memo it
seeds — *including under ragged padding*: padded entries must be inert
(no cluster bridged, no sum touched, no sort disturbed).  These sweeps
build batches of deliberately mixed sizes so every call exercises
non-trivial padding, then compare each sim against its 2-D reference,
the single-configuration code of :mod:`repro.core` and
:mod:`repro.geometry.weber`.

Ray loads must match exactly.  ``batched_weiszfeld`` sums in
NumPy's order, not the reference's left-to-right order, so its iterate
is only asserted within ``eps_solver`` of the reference's; the batched
engine re-certifies every seeded Weber point.  What must hold to the bit
is batch independence: a sim solved alone and the same sim inside any
mixed batch return the same ``(x, y, iterations, stopped)``, which is
what makes a batched sweep's results independent of its chunking, and a
solve resumed from its iterate ends on the bits of an uninterrupted one,
which is what lets the batched engine pause its solves to screen them.
"""

import math
import random

import pytest

from repro.core.configuration import Configuration
from repro.core.safe_points import _max_ray_loads_python, max_ray_load
from repro.core.successor import MAX_ANGULAR_RESOLUTION
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
    for pts, start, (gx, gy, _, _) in zip(sets, starts, batched):
        ex, ey, _, _ = _weiszfeld(pts, start, TOL.eps_solver, 10_000)
        assert math.hypot(gx - ex, gy - ey) <= TOL.eps_solver


def _weiszfeld_cases(n):
    """Sims of ``n`` points, each ``(points, start)``, covering every
    branch of the batched solver."""
    rng = random.Random(n)
    cases = []
    for _ in range(6):  # plain Weiszfeld from the centroid
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
        start = (sum(x for x, _ in pts) / n, sum(y for _, y in pts) / n)
        cases.append((pts, start))
    for k in range(3):  # start on an input point: Vardi-Zhang pull-back
        pts = [
            (float(rng.randint(-4, 4)), float(rng.randint(-4, 4)))
            for _ in range(n)
        ]
        cases.append((pts, pts[k]))
    # Co-located mass at the start: two points share it.
    pts = [(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(n - 2)]
    cases.append((pts + [pts[0], pts[0]], pts[0]))
    # All co-located, started on them (degenerate) and started off them.
    here = (rng.uniform(-9, 9), rng.uniform(-9, 9))
    cases.append(([here] * n, here))
    cases.append(([here] * n, (here[0] + 3.0, here[1] - 1.0)))
    # Symmetric around the start: zero residual pull, a fixpoint.
    ring = [
        (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
        for i in range(n - 1)
    ]
    cases.append((ring + [(0.0, 0.0)], (0.0, 0.0)))
    return cases


def _bits(results):
    return [
        (x.hex(), y.hex(), its, stopped) for x, y, its, stopped in results
    ]


@pytest.mark.parametrize("n", [3, 8, 16])
@pytest.mark.parametrize("max_iterations", [1, 3, 25, 10_000])
def test_batched_weiszfeld_is_batch_independent(n, max_iterations):
    """Alone or in a mixed batch, every sim's solve is the same to the
    bit, including sims still running when ``max_iterations`` ends."""
    cases = _weiszfeld_cases(n)
    alone = [
        kernels.batched_weiszfeld([pts], [start], TOL.eps_solver,
                                  max_iterations)[0]
        for pts, start in cases
    ]
    order = list(range(len(cases)))
    random.Random(max_iterations).shuffle(order)
    mixed = kernels.batched_weiszfeld(
        [cases[i][0] for i in order],
        [cases[i][1] for i in order],
        TOL.eps_solver,
        max_iterations,
    )
    assert _bits(mixed) == _bits([alone[i] for i in order])
    steps = {its for _, _, its, _ in alone}
    if max_iterations == 3:
        # Some sims were cut off by the cap, others stopped on their own.
        assert max_iterations in steps and len(steps) > 1
    assert max(steps) <= max_iterations


def test_batched_weiszfeld_holds_degenerate_and_fixpoint_sims():
    """An all-co-located sim started on its points, and a sim started
    on an input point that holds against the pull of the others, stop
    after one step exactly where they started."""
    here = (2.5, -1.25)
    ring = [(math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5))
            for i in range(5)]
    got = kernels.batched_weiszfeld(
        [[here] * 6, ring + [(0.0, 0.0)]],
        [here, (0.0, 0.0)],
        TOL.eps_solver,
        10_000,
    )
    assert got == [(2.5, -1.25, 1, True), (0.0, 0.0, 1, True)]


@pytest.mark.parametrize("n", [3, 8, 16])
def test_batched_weiszfeld_resumes_to_the_same_bits(n):
    """Solved in segments, each resumed from the returned iterates with
    the remaining budget (as the batched engine's screened solves are),
    every sim ends on the bits of one uninterrupted call.  Segments end
    where some sim stops exactly on a segment's last step; that sim
    reports ``stopped``, apart from sims whose budget ran out there."""
    cases = _weiszfeld_cases(n)
    points = [pts for pts, _ in cases]
    starts = [start for _, start in cases]
    whole = kernels.batched_weiszfeld(points, starts, TOL.eps_solver, 10_000)
    stops = sorted({its for _, _, its, _ in whole if 1 < its < 10_000})
    assert stops
    cuts = [stops[0], stops[-1], 10_000]
    done = 0
    rows = list(range(len(cases)))
    current = list(starts)
    final = {}
    for cut in cuts:
        if not rows:
            break
        got = kernels.batched_weiszfeld(
            [points[i] for i in rows],
            [current[i] for i in rows],
            TOL.eps_solver,
            cut - done,
        )
        still = []
        for i, (x, y, its, stopped) in zip(rows, got):
            if stopped or cut == 10_000:
                final[i] = (x, y, done + its, stopped)
                if whole[i][2] == cut:
                    # Stopped on the segment's last step, not cut off.
                    assert stopped and its == cut - done
            else:
                assert its == cut - done
                current[i] = (x, y)
                still.append(i)
        rows = still
        done = cut
    assert _bits([final[i] for i in range(len(cases))]) == _bits(whole)


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
