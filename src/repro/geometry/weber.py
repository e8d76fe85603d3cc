"""Weber points (geometric medians) — Definition 1 of the paper.

The Weber point of a configuration minimizes the sum of distances to all
robots.  Its two properties that the paper exploits are implemented here:

* **Invariance** (Lemma 3.2): moving points *towards* the Weber point does
  not move it.  The test suite checks this property directly.
* For **linear** configurations the Weber points form the median interval
  ``[min(Med(C)), max(Med(C))]`` (Section III) — computed exactly by
  :func:`linear_weber_interval`.

For general position sets no finite algebraic algorithm exists; the paper
side-steps this via quasi-regularity.  For validation, baselines and the
unoccupied-center case of quasi-regularity detection we also provide a
high-precision numerical solver (:func:`geometric_median`): a Weiszfeld
iteration with the Vardi–Zhang correction so it converges even when the
iterate lands on an input point.  It stops once a step moves at most
``Tolerance.eps_solver``, orders of magnitude below every combinatorial
tolerance, or after :data:`MAX_ITERATIONS` steps (see DESIGN.md section 4).

The solver's inner loops, :func:`_distance_sums` and :func:`_weiszfeld`,
work on ``(x, y)`` float pairs.  The batched engine seeds its solves with
:func:`repro.geometry.kernels.distance_sums` and
:func:`repro.geometry.kernels.batched_weiszfeld` instead, whose results
agree with these within ``Tolerance.eps_solver``.

An **optimality certificate** (:func:`is_weber_point`) checks the exact
subgradient condition: ``x`` is a Weber point iff the norm of the summed
unit vectors towards the points not at ``x`` is at most the number of
points located at ``x``.  The certificate is what turns the numerical
solver into a verified answer.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from .. import obs as _obs
from .point import Point
from .predicates import all_collinear, project_parameter
from .tolerance import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "sum_of_distances",
    "unit_vector_sum",
    "is_weber_point",
    "geometric_median",
    "linear_weber_interval",
    "WeberResult",
    "MAX_ITERATIONS",
]

#: Weiszfeld step cap of :func:`geometric_median`.  The batched engine's
#: seeded solves use it too, so both engines stop at the same step.
MAX_ITERATIONS = 10_000


def sum_of_distances(x: Point, points: Iterable[Point]) -> float:
    """``sum_{p in points} |x, p|`` — the Weber objective at ``x``."""
    hypot = math.hypot
    xx, xy = x.x, x.y
    return math.fsum(hypot(xx - p.x, xy - p.y) for p in points)


def _distance_sums(
    targets: Sequence[Tuple[float, float]],
    points: Sequence[Tuple[float, float]],
) -> List[float]:
    """Sum of distances from each target to the whole multiset.

    Each sum is :func:`math.fsum`-rounded, exactly like
    :func:`sum_of_distances`.
    """
    hypot = math.hypot
    fsum = math.fsum
    return [
        fsum([hypot(tx - px, ty - py) for px, py in points])
        for tx, ty in targets
    ]


def unit_vector_sum(
    x: Point, points: Iterable[Point], tol: Tolerance = DEFAULT_TOLERANCE
) -> Tuple[Point, int]:
    """Summed unit vectors from ``x`` towards each point, plus co-located count.

    Returns ``(s, k)`` where ``s`` is the sum of ``(p - x)/|p - x|`` over
    points not co-located with ``x`` and ``k`` is the number of points
    within ``tol.eps_dist`` of ``x``.  This is the subgradient data of the
    Weber objective.
    """
    hypot = math.hypot
    eps = tol.eps_dist
    xx, xy = x.x, x.y
    sx = 0.0
    sy = 0.0
    co_located = 0
    for p in points:
        px, py = p.x, p.y
        d = hypot(xx - px, xy - py)
        if d <= eps:
            co_located += 1
            continue
        sx += (px - xx) / d
        sy += (py - xy) / d
    return Point(sx, sy), co_located


def is_weber_point(
    x: Point,
    points: Iterable[Point],
    tol: Tolerance = DEFAULT_TOLERANCE,
    slack: float = 1e-7,
) -> bool:
    """Exact first-order optimality certificate for the Weber objective.

    ``x`` minimizes the (convex) sum of distances iff
    ``|sum of unit vectors| <= (number of points at x)``.  ``slack``
    absorbs rounding in the unit vectors; it is intentionally larger than
    machine epsilon because each of up to ``n`` unit vectors carries its
    own rounding error.
    """
    pts = list(points)
    s, k = unit_vector_sum(x, pts, tol)
    return s.norm() <= k + slack


class WeberResult:
    """Outcome of the numerical Weber point computation.

    Attributes
    ----------
    point:
        The computed minimizer.
    iterations:
        Number of Weiszfeld iterations performed.
    certified:
        Whether the subgradient certificate accepted the answer.
    objective:
        Sum of distances at :attr:`point`.
    """

    __slots__ = ("point", "iterations", "certified", "objective")

    def __init__(
        self, point: Point, iterations: int, certified: bool, objective: float
    ) -> None:
        self.point = point
        self.iterations = iterations
        self.certified = certified
        self.objective = objective

    def __repr__(self) -> str:
        return (
            f"WeberResult(point={self.point!r}, iterations={self.iterations}, "
            f"certified={self.certified}, objective={self.objective!r})"
        )


def _record_solver(
    iterations: int, x: Point, pts: Sequence[Point], tol: Tolerance, certified: bool
) -> None:
    """Observability for the numerical solver (enabled-only path).

    The convergence residual is the subgradient excess
    ``max(0, |sum of unit vectors| - co-located count)`` — exactly the
    quantity the optimality certificate bounds, so a residual near zero
    *is* the certificate margin, comparable across runs and engines.
    """
    s, k = unit_vector_sum(x, pts, tol)
    _obs.metrics.inc("weber.calls")
    _obs.metrics.observe("weber.iterations", float(iterations))
    _obs.metrics.observe("weber.residual", max(0.0, s.norm() - k))
    if not certified:
        _obs.metrics.inc("weber.uncertified")


def _weiszfeld(
    points: Sequence[Tuple[float, float]],
    start: Tuple[float, float],
    eps_solver: float,
    max_iterations: int,
) -> Tuple[float, float, int]:
    """Weiszfeld iteration with the Vardi–Zhang correction.

    Step from ``start`` until an iterate moves at most ``eps_solver`` or
    ``max_iterations`` steps are taken.  Returns the final iterate and
    the number of steps.  Sums are plain left-to-right float additions
    in input order.
    """
    hypot = math.hypot
    x, y = start
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        wx = 0.0
        wy = 0.0
        wsum = 0.0
        at_x = 0
        for px, py in points:
            d = hypot(x - px, y - py)
            if d <= eps_solver:
                at_x += 1
                continue
            w = 1.0 / d
            wx += px * w
            wy += py * w
            wsum += w
        if wsum == 0.0:
            # Every point sits at the iterate: it is trivially optimal.
            break
        nx = wx / wsum
        ny = wy / wsum
        if at_x:
            # Vardi–Zhang: the iterate coincides with input point(s), so
            # pull the plain Weiszfeld target back towards it according
            # to the ratio of the co-located mass to the residual pull.
            # Iterates almost never land here, so the pull is summed in
            # a second pass rather than on every step; the same terms in
            # the same order give the same floats.
            rx = 0.0
            ry = 0.0
            for px, py in points:
                d = hypot(x - px, y - py)
                if d <= eps_solver:
                    continue
                w = 1.0 / d
                rx += (px - x) * w
                ry += (py - y) * w
            r_norm = hypot(rx, ry)
            if r_norm == 0.0:
                break
            beta = min(1.0, at_x / r_norm)
            nx = x + (1.0 - beta) * (nx - x)
            ny = y + (1.0 - beta) * (ny - y)
        moved = hypot(nx - x, ny - y)
        x, y = nx, ny
        if moved <= eps_solver:
            break
    return x, y, iterations


def geometric_median(
    points: Iterable[Point],
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
    start: Optional[Point] = None,
) -> WeberResult:
    """High-precision numerical Weber point (Weiszfeld + Vardi–Zhang).

    For collinear inputs the median interval may be non-degenerate; this
    function then returns the midpoint of the interval (a valid Weber
    point) without iterating — callers needing the full interval use
    :func:`linear_weber_interval`.

    The returned :class:`WeberResult` carries a certificate; callers that
    must not act on an uncertified answer (quasi-regularity detection)
    check :attr:`WeberResult.certified`.
    """
    pts: List[Point] = list(points)
    if not pts:
        raise ValueError("Weber point of an empty set is undefined")
    if len(pts) == 1:
        return WeberResult(pts[0], 0, True, 0.0)

    if all_collinear(pts, tol):
        lo, hi = linear_weber_interval(pts, tol)
        mid = (lo + hi) / 2.0
        return WeberResult(mid, 0, True, sum_of_distances(mid, pts))

    coords = [(p.x, p.y) for p in pts]

    # Check input points first: if one of them is optimal, return it
    # exactly (bitwise) — important because the algorithm then sends
    # robots to an *occupied* location, creating exact multiplicities.
    sums = _distance_sums(coords, coords)
    bi = min(range(len(pts)), key=sums.__getitem__)
    best_input = pts[bi]
    if is_weber_point(best_input, pts, tol):
        return WeberResult(best_input, 0, True, sums[bi])

    x0 = start if start is not None else _initial_guess(pts)
    bx, by, iterations = _weiszfeld(
        coords, (x0.x, x0.y), tol.eps_solver, max_iterations
    )
    x = Point(bx, by)
    certified = is_weber_point(x, pts, tol)
    if _obs.state.enabled:
        _record_solver(iterations, x, pts, tol, certified)
    return WeberResult(x, iterations, certified, sum_of_distances(x, pts))


def _initial_guess(pts: Sequence[Point]) -> Point:
    """Centroid start, nudged off any input point to avoid the singularity."""
    cx = math.fsum(p.x for p in pts) / len(pts)
    cy = math.fsum(p.y for p in pts) / len(pts)
    guess = Point(cx, cy)
    if any(guess == p for p in pts):
        span = max(p.distance_to(pts[0]) for p in pts)
        guess = Point(cx + span * 1e-6 + 1e-12, cy)
    return guess


def linear_weber_interval(
    points: Iterable[Point], tol: Tolerance = DEFAULT_TOLERANCE
) -> Tuple[Point, Point]:
    """Weber points of a collinear multiset: the median interval.

    Returns ``(low, high)`` — the two (possibly equal) extreme Weber
    points.  With the points sorted along their common line (counting
    multiplicity), the interval spans the ``ceil(n/2)``-th to the
    ``floor(n/2) + 1``-th order statistics; for odd ``n`` the two
    coincide and the Weber point is unique.  This is the paper's
    ``[min(Med(C)), max(Med(C))]``.
    """
    pts: List[Point] = list(points)
    if not pts:
        raise ValueError("Weber interval of an empty set is undefined")
    if not all_collinear(pts, tol):
        raise ValueError("linear_weber_interval requires collinear points")

    anchor = pts[0]
    far = max(pts, key=anchor.distance_to)
    if far.close_to(anchor, tol):
        # All points coincide.
        return anchor, anchor
    params = sorted(project_parameter(anchor, far, p) for p in pts)
    n = len(params)
    lo_t = params[(n - 1) // 2]
    hi_t = params[n // 2]
    direction = far - anchor
    low = anchor + direction * lo_t
    high = anchor + direction * hi_t
    # Canonical order: the anchor -> far parameterization is arbitrary,
    # so normalize to lexicographic order for deterministic callers.
    if high < low:
        low, high = high, low
    return low, high
