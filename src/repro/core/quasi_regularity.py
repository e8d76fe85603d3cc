"""Quasi-regularity detection (Definitions 6–7, Lemmas 3.3–3.4, Thm 3.1).

A configuration ``C`` is *quasi-regular* with center ``c`` when a regular
configuration ``C'`` with center of regularity ``c`` can be obtained from
``C`` by relocating only robots that sit **at** ``c``.  Intuitively: the
robots stacked on the center are wildcards that may be dealt out onto
rays to complete the angular periodicity.

Detection, following the paper:

* For a non-linear ``C`` the only possible center is the Weber point
  (Lemma 3.3; see :mod:`repro.core.regularity` for why).  We obtain it
  exactly when occupied, or certified-numerically when not.
* If the center is **unoccupied** there are no wildcards, so ``C`` must
  already be regular around it: test ``per(SA(c)) > 1``.
* If the center is an occupied position ``p``, apply the combinatorial
  criterion of Lemma 3.4: group the occupied rays from ``p`` into orbits
  under rotation by ``2*pi/m``; every orbit has ``m`` angular slots and
  each slot must be topped up to the orbit's maximum robot count using
  robots taken from ``p``.  ``C`` is quasi-regular with period ``m`` iff

      mult(p) >= sum over slots (orbit_max - slot_count).

  (The source text of Definition 7 is OCR-damaged; DESIGN.md section 6
  documents this reconstruction, which matches Lemma 3.4's statement.)

``qreg(C)`` is reported as the largest ``m`` accepted by the criterion;
periods with no multiple in ``[n - mult(p), n]`` cannot be accepted and
are not tested.

A class-A round reads one bit of all this, "not QR".  The numerical
solve therefore pauses after each of
:data:`~repro.geometry.weber.SCREEN_STEPS` Weiszfeld steps, and
:func:`screen_not_quasi_regular` ends it there when no point
the Weber certificate could accept can pass either acceptance path: a
strongly convex disk around the iterate holds every such point, and the
string of angles is provably aperiodic everywhere in it (DESIGN.md
section 4).  The batched engine screens its seeded solves with the same
function.  Solves the screen does not end run to the unpaused bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

from .. import obs as _obs
from ..geometry import TWO_PI, Point
from ..geometry.weber import CERTIFICATE_SLACK, geometric_median
from .configuration import Configuration
from .regularity import regularity
from .successor import (
    MAX_ANGULAR_RESOLUTION,
    Ray,
    angular_resolution,
    ray_structure,
)

__all__ = [
    "QuasiRegularityResult",
    "quasi_regularity",
    "screen_not_quasi_regular",
    "topping_deficiency",
    "satisfies_lemma_3_4",
]


@dataclass(frozen=True)
class QuasiRegularityResult:
    """Outcome of quasi-regularity detection.

    ``m == 1`` means *not quasi-regular* (then ``center is None``);
    otherwise ``m = qreg(C)`` and ``center = CQR(C)``, which for
    non-linear configurations is also the Weber point (Lemma 3.3).
    """

    m: int
    center: Optional[Point]

    @property
    def is_quasi_regular(self) -> bool:
        return self.m > 1


_NOT_QR = QuasiRegularityResult(1, None)


def _orbit_slots(
    rays: List[Ray], m: int, eps_angle: float
) -> List[List[int]]:
    """Robot counts per angular slot, grouped into rotation orbits.

    The rotation by ``2*pi/m`` partitions ray directions by their residue
    modulo ``w = 2*pi/m``.  Each residue class spans ``m`` slots (one per
    multiple of ``w``); occupied slots carry their ray's robot count and
    the remaining slots are empty (count 0).  Residues are clustered with
    the angular tolerance, including the wrap-around at ``0 / w``.
    """
    w = TWO_PI / m
    tagged: List[Tuple[float, int, int]] = []  # (residue, slot index, count)
    for ray in rays:
        residue = ray.angle % w
        slot = int(round((ray.angle - residue) / w)) % m
        tagged.append((residue, slot, ray.count))
    tagged.sort(key=lambda t: t[0])

    groups: List[List[Tuple[float, int, int]]] = [[tagged[0]]]
    for t in tagged[1:]:
        if t[0] - groups[-1][-1][0] <= eps_angle:
            groups[-1].append(t)
        else:
            groups.append([t])
    # Wrap-around: residue ~0 and residue ~w are the same direction class
    # (they differ by one slot rotation).
    if len(groups) > 1:
        first, last = groups[0], groups[-1]
        if (first[0][0] + w) - last[-1][0] <= eps_angle:
            # Members of `last` are one slot behind when folded onto the
            # residue of `first`.
            folded = [(r - w, (s + 1) % m, c) for (r, s, c) in last]
            groups[0] = folded + first
            groups.pop()

    orbits: List[List[int]] = []
    for group in groups:
        slots = [0] * m
        for _, slot, count in group:
            # Two rays can only share (residue class, slot) through the
            # angular clustering of near-identical directions; merge.
            slots[slot] += count
        orbits.append(slots)
    return orbits


def topping_deficiency(config: Configuration, p: Point, m: int) -> Optional[int]:
    """Robots needed at ``p`` to complete ``C`` to an ``m``-regular config.

    Returns ``None`` when completion is impossible regardless of
    multiplicity (no robots off the center), otherwise the total
    deficiency ``sum over slots (orbit_max - slot_count)`` of Lemma 3.4.
    """
    if m < 2:
        raise ValueError("regularity period must be at least 2")
    rays = ray_structure(config, p)
    if not rays:
        return None  # everyone at p: gathered, not a quasi-regular case
    orbits = _orbit_slots(rays, m, angular_resolution(config, p))
    deficiency = 0
    for slots in orbits:
        top = max(slots)
        deficiency += sum(top - s for s in slots)
    return deficiency


def satisfies_lemma_3_4(config: Configuration, p: Point, m: int) -> bool:
    """Lemma 3.4 criterion: is ``C`` quasi-regular with center ``p``, period ``m``?"""
    deficiency = topping_deficiency(config, p, m)
    if deficiency is None:
        return False
    return config.mult(p) >= deficiency


#: Absolute slack per string-of-angles entry: the float rounding of two
#: ``atan2`` directions, their normalization and their difference, at
#: the iterate and at any centre, with a wide margin.
_ANGLE_SLACK = 1e-12

#: ``memo_get`` default that means "no ``weber_numeric`` memo yet".
_UNSOLVED = object()


def _prime_factors(n: int) -> List[int]:
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def _screen(config: Configuration, x: float, y: float) -> bool:
    """The four conditions of :func:`screen_not_quasi_regular`.

    DESIGN.md section 4 states the argument; the names here follow it.
    ``rel`` is the relative float-rounding slack applied to every bound
    (each is a short sum of at most ``n`` rounded terms).
    """
    tol = config.tol
    n = config.n
    rel = 1e-12 + 1e-14 * n
    eps = tol.eps_dist * (1.0 + rel)
    # Slack of a computed unit-vector sum: n rounded unit vectors and
    # n additions of partial sums of norm at most n.
    sum_slack = 1e-15 * n * n
    delta = CERTIFICATE_SLACK + sum_slack
    hypot = math.hypot
    atan2 = math.atan2

    # Gradient g and Hessian H of f(z) = sum |z - p| at the iterate,
    # the distances d, and the directions from the iterate.
    gx = gy = hxx = hyy = hxy = inv_sq = 0.0
    d_min = math.inf
    rays: List[Tuple[float, float, int]] = []
    for p, m in config.multiplicities().items():
        dx = x - p.x
        dy = y - p.y
        d = hypot(dx, dy)
        if d <= eps:
            return False
        ux = dx / d
        uy = dy / d
        gx += m * ux
        gy += m * uy
        w = m / d
        hxx += w * uy * uy
        hyy += w * ux * ux
        hxy += w * ux * uy
        inv_sq += w / d
        if d < d_min:
            d_min = d
        rays.append((atan2(-dy, -dx), d, m))
    trace = hxx + hyy
    lam = 0.5 * trace - hypot(0.5 * (hxx - hyy), hxy) - rel * trace
    if lam <= 0.0:
        return False
    # 1. Strong convexity over B(x, R): mu = lam_min(H(x)) minus the
    # Weyl term sum 2R / (d (d - R)); R near the maximizer of mu * R.
    radius = min(0.5 * d_min, lam / (4.0 * inv_sq))
    weyl = sum(2.0 * m * radius / (d * (d - radius)) for _, d, m in rays)
    mu = lam - weyl * (1.0 + rel)
    if mu <= 0.0:
        return False
    g = hypot(gx, gy) + sum_slack
    growth = mu * radius * (1.0 - rel) - g
    if growth <= delta:
        return False
    r = (g + delta) / mu * (1.0 + rel)
    # 2. No input position within r (+ a merge chain) of the iterate.
    if d_min * (1.0 - rel) <= r + n * eps:
        return False
    # 3. Over B(x, r) each direction moves by at most asin(r / d); the
    # rays stay apart by more than the largest angular resolution.
    ang = min(
        MAX_ANGULAR_RESOLUTION,
        tol.eps_angle + tol.eps_dist / ((d_min - r) * (1.0 - rel)),
    ) * (1.0 + rel)
    rays.sort()
    errs = [
        math.asin(min(1.0, r / (d * (1.0 - rel)))) * (1.0 + rel) + _ANGLE_SLACK
        for _, d, _ in rays
    ]
    # The string of angles, counterclockwise: each gap with its error
    # bound, then the ray's co-located robots as exact zeros.
    sa: List[Tuple[float, float]] = []
    prev_theta = rays[-1][0] - TWO_PI
    prev_err = errs[-1]
    for (theta, _, m), err in zip(rays, errs):
        gap = theta - prev_theta
        bound = err + prev_err
        if gap - bound <= ang:
            return False
        sa.append((gap, bound))
        sa.extend([(0.0, 0.0)] * (m - 1))
        prev_theta = theta
        prev_err = err
    # 4. Every period fails: per prime q | n, some residue class mod n/q
    # holds two entries apart by more than two bands plus their errors.
    band = 2.0 * ang
    for q in _prime_factors(n):
        step = n // q
        if not any(
            max(v - e for v, e in sa[i::step])
            - min(v + e for v, e in sa[i::step])
            > 2.0 * band
            for i in range(step)
        ):
            return False
    # Path (i): no point within eps of an input position certifies when
    # growth > 2 eps (n - 1) / sigma + delta and sigma > 2 eps, sigma the
    # least distance between two input positions: no two may lie within
    # `spread`.  The support is sorted by x, so a sweep stops each scan
    # at the first x gap beyond it.
    spread = max(2.0 * eps, 2.0 * eps * (n - 1) / (growth - delta))
    support = config.support
    for i, a in enumerate(support):
        for b in support[i + 1 :]:
            if (b.x - a.x) * (1.0 - rel) > spread:
                break
            if hypot(a.x - b.x, a.y - b.y) * (1.0 - rel) <= spread:
                return False
    return True


def screen_not_quasi_regular(config: Configuration, x: float, y: float) -> bool:
    """Decide "not quasi-regular" from a Weber iterate, where sound.

    ``(x, y)`` is an iterate of the Weiszfeld solve of ``config`` (a
    non-linear configuration whose input positions all failed the Weber
    certificate).  Returns True only when no point the certificate
    (:func:`~repro.geometry.weber.is_weber_point`) could accept lets
    either acceptance path of :func:`quasi_regularity` pass: (i) an
    occupied centre accepted by Lemma 3.4, (ii) an unoccupied centre
    whose string of angles is periodic within band.  The bounds — a
    strongly convex disk around the iterate that holds every point the
    certificate could accept, and interval tests of the string of
    angles over it — are argued in DESIGN.md section 4.  On True the
    configuration memoizes "not QR" (and no ``weber_numeric``) and the
    obs counter ``weber.screened`` counts it; on False nothing changes
    and the solve goes on.
    """
    if not _screen(config, x, y):
        return False
    config.memo("quasi_regularity", lambda: _NOT_QR)
    if _obs.state.enabled:
        _obs.metrics.inc("weber.screened")
    return True


def _weber_point_unless_screened(config: Configuration) -> Optional[Point]:
    """``numeric_weber_point(config)``, or ``None`` where screened.

    The solve offers its iterate to :func:`screen_not_quasi_regular`
    at each of its pauses; where the screen rules QR out the solve ends
    there, "not QR" is memoized and no ``weber_numeric`` memo is made.
    A solve it does not end runs to the bits of an unscreened one and
    memoizes its certified point.
    """
    solved = config.memo_get("weber_numeric", _UNSOLVED)
    if solved is not _UNSOLVED:
        return solved
    result = geometric_median(
        config.points,
        config.tol,
        screen=partial(screen_not_quasi_regular, config),
    )
    if result is None:
        return None
    return config.memo(
        "weber_numeric",
        lambda: result.point if result.certified else None,
    )


def quasi_regularity(config: Configuration) -> QuasiRegularityResult:
    """Compute ``qreg(C)`` and ``CQR(C)`` (Theorem 3.1's detector).

    Only sound/complete for non-linear configurations; linear and
    gathered configurations report ``m = 1`` by design (the Section IV
    classification never consults quasi-regularity for them).
    """

    def compute() -> QuasiRegularityResult:
        if config.is_gathered() or config.is_linear():
            return _NOT_QR
        center = _weber_point_unless_screened(config)
        if center is None:
            return _NOT_QR
        occupied = config.locate(center)
        if occupied is None:
            # No wildcards available: C itself must be regular.
            reg = regularity(config)
            if reg.is_regular:
                return QuasiRegularityResult(reg.m, reg.center)
            return _NOT_QR
        # Occupied center: largest period accepted by Lemma 3.4.  After
        # topping, the robots off p fill whole m-slot orbits, so an
        # accepted m has a multiple in [n - mult(p), n]; the others
        # are skipped without a test.
        n = config.n
        off = n - config.mult(occupied)
        for m in range(n, 1, -1):
            if (n // m) * m < off:
                continue
            if satisfies_lemma_3_4(config, occupied, m):
                return QuasiRegularityResult(m, occupied)
        return _NOT_QR

    return config.memo("quasi_regularity", compute)
