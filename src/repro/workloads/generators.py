"""Seeded workload generators — one per configuration class.

Every generator returns a plain list of :class:`Point` (the engine's
input) and is deterministic in its ``seed``.  Class-targeted generators
*verify* their output lands in the intended class and re-draw otherwise,
so experiments can rely on the label.

The geometry is kept at unit scale (coordinates within a few units);
tolerances and deltas in the experiments are chosen relative to that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..core import ConfigClass, Configuration, classify
from ..geometry import DEFAULT_TOLERANCE, Point
from ..resilience.errors import TraceFormatError

__all__ = [
    "random_points",
    "gathered",
    "multiple",
    "bivalent",
    "near_bivalent",
    "linear_unique_weber",
    "linear_weber_interval_config",
    "regular_polygon",
    "biangular",
    "quasi_regular_occupied_center",
    "asymmetric",
    "generate",
    "CLASS_GENERATORS",
    "SIZE_RULES",
    "check_size",
]


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


@dataclass(frozen=True)
class SizeRule:
    """The team sizes one generator can build: at least ``low`` robots,
    an even number of them when ``even``, and none of ``gaps``."""

    low: int
    even: bool = False
    gaps: Tuple[int, ...] = ()

    def admits(self, n: int) -> bool:
        return n >= self.low and not (self.even and n % 2) and (
            n not in self.gaps
        )

    def __str__(self) -> str:
        text = f"{'an even ' if self.even else ''}n >= {self.low}"
        return text + "".join(f", n != {gap}" for gap in self.gaps)


def check_size(kind: str, n: int) -> None:
    """Refuse a team size the ``kind`` generator cannot build (see
    :data:`SIZE_RULES`) as a :class:`~repro.resilience.TraceFormatError`,
    so the CLI prints one ``error:`` line and ``repro serve`` answers
    400 before any run starts."""
    rule = SIZE_RULES[kind]
    if not rule.admits(n):
        raise TraceFormatError(f"workload {kind!r} needs {rule}, got n={n}")


def random_points(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """``n`` i.i.d. uniform points in a ``scale x scale`` square.

    Almost surely distinct, non-collinear and asymmetric — the "generic"
    workload.
    """
    check_size("random", n)
    rng = _rng(seed)
    return [
        Point(rng.uniform(0.0, scale), rng.uniform(0.0, scale))
        for _ in range(n)
    ]


def gathered(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """All robots at one point — the trivial gathered configuration."""
    check_size("gathered", n)
    rng = _rng(seed)
    p = Point(rng.uniform(0.0, scale), rng.uniform(0.0, scale))
    return [p] * n


def multiple(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """A configuration of class ``M``: one strict maximum multiplicity.

    Places ``k >= 2`` robots on a single point (with ``k`` strictly above
    every other multiplicity) and spreads the rest.
    """
    check_size("multiple", n)
    seed_try = seed
    while True:
        rng = _rng(seed_try)
        k = rng.randint(2, max(2, n - 1))
        anchor = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        pts = [anchor] * k
        while len(pts) < n:
            pts.append(Point(rng.uniform(0, scale), rng.uniform(0, scale)))
        if classify(Configuration(pts)) is ConfigClass.MULTIPLE:
            return pts
        seed_try += 7919


def bivalent(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """The impossible configuration ``B``: two points, ``n/2`` robots each."""
    check_size("bivalent", n)
    rng = _rng(seed)
    a = Point(rng.uniform(0, scale), rng.uniform(0, scale))
    b = Point(rng.uniform(0, scale), rng.uniform(0, scale))
    while b.close_to(a, DEFAULT_TOLERANCE):
        b = Point(rng.uniform(0, scale), rng.uniform(0, scale))
    return [a] * (n // 2) + [b] * (n // 2)


def near_bivalent(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """Two clusters of sizes ``ceil`` / ``floor`` of ``n/2`` plus jitter.

    The workload of the safe-point ablation (experiment E9): one greedy
    step away from the bivalent trap.
    """
    check_size("near-bivalent", n)
    seed_try = seed
    while True:
        rng = _rng(seed_try)
        a = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        b = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        while b.distance_to(a) < scale / 4:
            b = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        k = n // 2
        pts = [a] * (n - k - 1) + [b] * k
        # One stray robot keeps the configuration out of B while leaving
        # it one merge away from it.
        pts.append(Point(rng.uniform(0, scale), rng.uniform(0, scale)))
        if classify(Configuration(pts)) is not ConfigClass.BIVALENT:
            return pts
        seed_try += 7919


def linear_unique_weber(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """A collinear configuration of class ``L1W`` (unique median).

    Odd counts: distinct random points on a line (the median is unique,
    and with all multiplicities 1 there is no unique maximum).  Even
    counts need multiplicity ties: we use the block pattern
    ``(k, 2, k)`` with ``k = n/2 - 1`` — the median falls inside the
    middle block while the maximum multiplicity is shared by the two
    outer blocks.  (``n = 4`` admits no L1W configuration at all: three
    collinear locations with total multiplicity 4 always have a unique
    maximum, and four distinct points have a median interval.)
    """
    check_size("linear-unique", n)
    seed_try = seed
    while True:
        rng = _rng(seed_try)
        origin = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        angle = rng.uniform(0, 2 * math.pi)
        direction = Point(math.cos(angle), math.sin(angle))
        if n % 2 == 1:
            ts = sorted(rng.uniform(-scale, scale) for _ in range(n))
        else:
            k = n // 2 - 1
            t1, t2, t3 = sorted(rng.uniform(-scale, scale) for _ in range(3))
            ts = [t1] * k + [t2] * 2 + [t3] * k
        pts = [origin + direction * t for t in ts]
        if classify(Configuration(pts)) is ConfigClass.LINEAR_UNIQUE_WEBER:
            return pts
        seed_try += 7919


def linear_weber_interval_config(
    n: int, seed: int = 0, scale: float = 10.0
) -> List[Point]:
    """A collinear configuration of class ``L2W`` (median interval).

    Needs an even number of robots on at least four distinct points
    (Lemma 4.1) with distinct middle order statistics and no unique
    multiplicity maximum.
    """
    check_size("linear-interval", n)
    rng = _rng(seed)
    origin = Point(rng.uniform(0, scale), rng.uniform(0, scale))
    angle = rng.uniform(0, 2 * math.pi)
    direction = Point(math.cos(angle), math.sin(angle))
    while True:
        ts = sorted(rng.uniform(-scale, scale) for _ in range(n))
        if abs(ts[n // 2 - 1] - ts[n // 2]) < 1e-3:
            continue
        pts = [origin + direction * t for t in ts]
        config = Configuration(pts)
        if classify(config) is ConfigClass.LINEAR_MANY_WEBER:
            return pts


def regular_polygon(
    n: int, seed: int = 0, scale: float = 10.0, center_robots: int = 0
) -> List[Point]:
    """``n - center_robots`` robots on a regular polygon, rest at center.

    A rotationally symmetric configuration — class ``QR`` (every
    symmetric configuration is regular, hence quasi-regular).
    """
    k = n - center_robots
    check_size("regular-polygon", k)
    rng = _rng(seed)
    center = Point(rng.uniform(0, scale), rng.uniform(0, scale))
    radius = rng.uniform(scale / 4, scale / 2)
    phase = rng.uniform(0, 2 * math.pi)
    pts = [
        Point(
            center.x + radius * math.cos(phase + 2 * math.pi * i / k),
            center.y + radius * math.sin(phase + 2 * math.pi * i / k),
        )
        for i in range(k)
    ]
    pts.extend([center] * center_robots)
    return pts


def biangular(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """A biangular configuration: angles alternate ``alpha, beta`` around
    the center, radii free (class ``QR`` via regularity with ``m = n/2``).

    Requires an even ``n >= 6``; radii are drawn independently per robot,
    so the configuration is regular but (generically) *not* symmetric —
    the case where the string-of-angles machinery genuinely earns its
    keep.
    """
    check_size("biangular", n)
    seed_try = seed
    while True:
        rng = _rng(seed_try)
        center = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        half = n // 2
        alpha = rng.uniform(0.2, 2 * math.pi / half - 0.2)
        beta = 2 * math.pi / half - alpha
        phase = rng.uniform(0, 2 * math.pi)
        pts: List[Point] = []
        angle = phase
        for i in range(n):
            radius = rng.uniform(scale / 8, scale / 2)
            pts.append(
                Point(
                    center.x + radius * math.cos(angle),
                    center.y + radius * math.sin(angle),
                )
            )
            angle += alpha if i % 2 == 0 else beta
        if classify(Configuration(pts)) is ConfigClass.QUASI_REGULAR:
            return pts
        seed_try += 7919


def quasi_regular_occupied_center(
    n: int, seed: int = 0, scale: float = 10.0
) -> List[Point]:
    """Quasi-regular with an *occupied* center — the Lemma 3.4 case.

    Construction (period ``m = 2``): one robot at the center, the others
    on singleton rays that come in opposite pairs; for even ``n`` one
    ray is left unpaired, so the angular pattern has a one-slot
    deficiency and the center robot is exactly the wildcard Lemma 3.4
    spends to complete it.  The center's multiplicity must stay 1:
    stacking more robots there would make it the unique maximum and the
    class would collapse to ``M``.
    """
    check_size("qr-occupied-center", n)
    seed_try = seed
    while True:
        rng = _rng(seed_try)
        center = Point(rng.uniform(0, scale), rng.uniform(0, scale))
        unpaired = (n - 1) % 2  # 0 for odd n, 1 for even n
        pairs = (n - 1 - unpaired) // 2
        angles = sorted(
            rng.uniform(0.05, math.pi - 0.05) for _ in range(pairs)
        )
        pts = [center]
        for a in angles:
            for direction in (a, a + math.pi):
                radius = rng.uniform(scale / 8, scale / 2)
                pts.append(
                    Point(
                        center.x + radius * math.cos(direction),
                        center.y + radius * math.sin(direction),
                    )
                )
        if unpaired:
            beta = rng.uniform(0.05, math.pi - 0.05) + math.pi / 2.0
            radius = rng.uniform(scale / 8, scale / 2)
            pts.append(
                Point(
                    center.x + radius * math.cos(beta),
                    center.y + radius * math.sin(beta),
                )
            )
        pts = pts[:n]
        if classify(Configuration(pts)) is ConfigClass.QUASI_REGULAR:
            return pts
        seed_try += 7919


def unsafe_ray(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """A class-``M`` configuration whose gathering target is *unsafe*.

    Layout (even ``n >= 6``): the maximum-multiplicity point ``p`` holds
    ``n/2 - 1`` robots; ``n/2`` robots sit at distinct positions on a
    single half-line from ``p``; one stray robot sits off the line.  The
    ray from ``p`` carries ``ceil(n/2)`` robots, so ``p`` violates
    Definition 8 — an algorithm that sends the ray robots *straight* at
    ``p`` lets a collusive movement adversary stack them into one point
    of multiplicity ``n/2`` while the stray tops ``p`` up to ``n/2``:
    the bivalent trap.  The paper's side-step rule (case ``M``) exists
    precisely to make this impossible.  Used by experiment E9.
    """
    check_size("unsafe-ray", n)
    rng = _rng(seed)
    p = Point(rng.uniform(0, scale), rng.uniform(0, scale))
    angle = rng.uniform(0, 2 * math.pi)
    direction = Point(math.cos(angle), math.sin(angle))
    ray_count = n // 2
    distances = sorted(
        rng.uniform(scale / 4, scale) for _ in range(ray_count)
    )
    pts = [p] * (n // 2 - 1)
    pts.extend(p + direction * d for d in distances)
    side = direction.perpendicular()
    pts.append(p + side * rng.uniform(scale / 4, scale / 2))
    config = Configuration(pts)
    assert classify(config) is ConfigClass.MULTIPLE
    return pts


def asymmetric(n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """A configuration of class ``A`` — generic position, verified."""
    check_size("asymmetric", n)
    seed_try = seed
    while True:
        pts = random_points(n, seed_try, scale)
        if classify(Configuration(pts)) is ConfigClass.ASYMMETRIC:
            return pts
        seed_try += 7919


#: Generators per configuration class, used by experiments and the CLI.
CLASS_GENERATORS: Dict[str, Callable[[int, int], List[Point]]] = {
    "random": random_points,
    "gathered": gathered,
    "multiple": multiple,
    "bivalent": bivalent,
    "near-bivalent": near_bivalent,
    "linear-unique": linear_unique_weber,
    "linear-interval": linear_weber_interval_config,
    "regular-polygon": regular_polygon,
    "biangular": biangular,
    "qr-occupied-center": quasi_regular_occupied_center,
    "unsafe-ray": unsafe_ray,
    "asymmetric": asymmetric,
}


#: The team sizes each generator can build, stated once; each generator
#: checks its own (:func:`check_size`), and
#: :class:`~repro.experiments.runner.Scenario` checks its workload's
#: when it is built.  ``linear-interval`` needs Lemma 4.1's even
#: ``n >= 4``; no ``linear-unique`` configuration of 4 robots exists.
SIZE_RULES: Dict[str, SizeRule] = {
    "random": SizeRule(1),
    "gathered": SizeRule(1),
    "multiple": SizeRule(3),
    "bivalent": SizeRule(2, even=True),
    "near-bivalent": SizeRule(3),
    "linear-unique": SizeRule(3, gaps=(4,)),
    "linear-interval": SizeRule(4, even=True),
    "regular-polygon": SizeRule(3),
    "biangular": SizeRule(6, even=True),
    "qr-occupied-center": SizeRule(6),
    "unsafe-ray": SizeRule(6, even=True),
    "asymmetric": SizeRule(3),
}


def generate(kind: str, n: int, seed: int = 0, scale: float = 10.0) -> List[Point]:
    """Dispatch on a workload kind name (see :data:`CLASS_GENERATORS`)."""
    try:
        gen = CLASS_GENERATORS[kind]
    except KeyError:
        known = ", ".join(sorted(CLASS_GENERATORS))
        raise ValueError(f"unknown workload kind {kind!r}; known: {known}")
    return gen(n, seed, scale)
