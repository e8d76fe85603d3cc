"""Safe points (Definition 8) — bivalent-proof gathering targets.

A robot position ``p`` is *safe* when no half-line from ``p`` carries
``ceil(n/2)`` or more robots.  If everybody walks straight towards a safe
point, then even if the adversary stops an arbitrary subset mid-way, no
single location on any ray can ever accumulate half of the robots — so
the bivalent configuration ``B`` can never form.  The election rule for
asymmetric configurations only considers safe points for exactly this
reason (proof of Lemma 5.6, claim C1).

Counting detail: ``HF(p, q)`` excludes ``p`` itself, so robots co-located
with ``p`` never count against any ray; robots on a common ray count with
their multiplicities.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..geometry import TWO_PI, Point, direction_angle, normalize_angle
from .configuration import Configuration
from .successor import MAX_ANGULAR_RESOLUTION, ray_structure

__all__ = ["max_ray_load", "is_safe_point", "safe_points", "all_max_ray_loads"]


def max_ray_load(config: Configuration, p: Point) -> int:
    """Largest number of robots on a single half-line from ``p``.

    Robots at ``p`` are excluded (the half-line excludes its origin).
    """
    rays = ray_structure(config, p)
    if not rays:
        return 0
    return max(ray.count for ray in rays)


def is_safe_point(config: Configuration, p: Point) -> bool:
    """Definition 8: every ray from ``p`` has at most ``ceil(n/2) - 1`` robots."""
    bound = math.ceil(config.n / 2) - 1
    return max_ray_load(config, p) <= bound


def all_max_ray_loads(config: Configuration) -> List[int]:
    """Max ray load of every support point, in support order (memoized).

    The scan over all occupied positions is the hot loop of safe-point
    detection; the batched engine seeds this memo from one sims-axis
    kernel call (:meth:`repro.sim.batch.BatchedSimulation._seed_asymmetric`).
    """
    return config.memo("ray_loads", lambda: _max_ray_loads_python(config))


def _support_polar(config: Configuration):
    """Pairwise support distances and direction angles, once per config.

    The per-center ray walks all consume the same O(m^2) geometry;
    recomputing it for every center made ``safe_points`` the slowest
    micro-bench on the python path.  Distances are stored triangularly
    (``hypot`` is sign-symmetric, so ``d(p, q)`` is bitwise ``d(q, p)``);
    angles need the full matrix (``atan2`` is not).
    """

    def compute():
        support = config.support
        m = len(support)
        dist = [[0.0] * m for _ in range(m)]
        phi = [[0.0] * m for _ in range(m)]
        for i in range(m):
            pi = support[i]
            row = dist[i]
            for j in range(i + 1, m):
                d = pi.distance_to(support[j])
                row[j] = d
                dist[j][i] = d
        for i in range(m):
            pi = support[i]
            row = phi[i]
            for j in range(m):
                if j != i:
                    row[j] = normalize_angle(direction_angle(pi, support[j]))
        return dist, phi

    return config.memo("support_polar", compute)


def _max_ray_loads_python(config: Configuration) -> List[int]:
    """All support max-ray-loads off the cached pairwise polar tables.

    Replicates :func:`max_ray_load` center for center — the same
    off-center filter, distance-aware angular tolerance, chained angle
    clustering and 0/2*pi seam merge — but reads every distance and
    angle from :func:`_support_polar` instead of recomputing them per
    center.  Only per-ray robot counts are tracked (all Definition 8
    needs).
    """
    tol = config.tol
    eps_d = tol.eps_dist
    support = config.support
    m = len(support)
    mults = [config.mult(p) for p in support]
    dist, phi = _support_polar(config)
    loads: List[int] = []
    for i in range(m):
        di = dist[i]
        pf = phi[i]
        d_min = None
        entries: List[Tuple[float, int]] = []
        for j in range(m):
            d = di[j]
            if d <= eps_d:
                continue
            if d_min is None or d < d_min:
                d_min = d
            entries.append((pf[j], mults[j]))
        if not entries:
            loads.append(0)
            continue
        if d_min is None or d_min <= 0.0:
            eps_ang = tol.eps_angle
        else:
            eps_ang = min(
                MAX_ANGULAR_RESOLUTION, tol.eps_angle + tol.eps_dist / d_min
            )
        entries.sort(key=lambda e: e[0])
        counts = [entries[0][1]]
        last_angle = entries[0][0]
        for angle, mult in entries[1:]:
            if angle - last_angle <= eps_ang:
                counts[-1] += mult
            else:
                counts.append(mult)
            last_angle = angle
        if len(counts) > 1 and (entries[0][0] + TWO_PI) - last_angle <= eps_ang:
            counts[0] += counts.pop()
        loads.append(max(counts))
    return loads


def safe_points(config: Configuration) -> List[Point]:
    """All safe occupied positions of ``U(C)``.

    Lemma 4.2 guarantees this is non-empty for non-linear configurations;
    Lemma 4.3 says it is empty for ``B`` and ``L2W``.  Both claims are
    exercised by the test suite on generated workloads.
    """

    def compute() -> List[Point]:
        bound = math.ceil(config.n / 2) - 1
        loads = all_max_ray_loads(config)
        return [
            p
            for p, load in zip(config.support, loads)
            if load <= bound
        ]

    return config.memo("safe_points", compute)
