"""Unit tests for Weber point machinery (Definition 1, Lemma 3.2)."""

import math
import random

import pytest

from repro.geometry import (
    Point,
    geometric_median,
    is_weber_point,
    linear_weber_interval,
    sum_of_distances,
    unit_vector_sum,
)
from repro.geometry.weber import (
    MAX_ITERATIONS,
    _distance_sums,
    _initial_guess,
    _weiszfeld,
)

from ..conftest import regular_ngon


class TestObjective:
    def test_sum_of_distances(self):
        pts = [Point(0, 0), Point(3, 0), Point(0, 4)]
        assert math.isclose(sum_of_distances(Point(0, 0), pts), 7.0)

    def test_unit_vector_sum_counts_colocated(self, tol):
        pts = [Point(0, 0), Point(0, 0), Point(1, 0)]
        s, k = unit_vector_sum(Point(0, 0), pts, tol)
        assert k == 2
        assert s.close_to(Point(1, 0))


class TestCertificate:
    def test_fermat_point_of_equilateral_triangle(self):
        pts = regular_ngon(3, radius=1.0)
        assert is_weber_point(Point(0, 0), pts)

    def test_wrong_point_rejected(self):
        pts = regular_ngon(3, radius=1.0)
        assert not is_weber_point(Point(0.5, 0.5), pts)

    def test_dominant_multiplicity_point_is_weber(self, tol):
        # With 3 of 5 robots at x, x is the Weber point (majority rule).
        pts = [Point(0, 0)] * 3 + [Point(1, 0), Point(0, 1)]
        assert is_weber_point(Point(0, 0), pts, tol)


class TestGeometricMedian:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_median([])

    def test_single_point(self):
        r = geometric_median([Point(5, 5)])
        assert r.point == Point(5, 5) and r.certified

    def test_symmetric_cross(self):
        r = geometric_median([Point(1, 0), Point(-1, 0), Point(0, 2), Point(0, -2)])
        assert r.certified
        assert r.point.close_to(Point(0, 0))

    def test_square_center(self, unit_square):
        r = geometric_median(unit_square)
        assert r.certified
        assert r.point.distance_to(Point(0.5, 0.5)) < 1e-9

    def test_occupied_optimum_returned_bitwise(self):
        anchor = Point(0.123456, 0.654321)
        pts = [anchor] * 3 + [Point(1, 1), Point(-1, 0.5)]
        r = geometric_median(pts)
        assert r.certified
        assert r.point == anchor  # bitwise, not just close

    def test_obtuse_triangle_vertex_optimum(self):
        # When one vertex has an angle >= 120 degrees, it IS the median.
        pts = [Point(0, 0), Point(10, 0.5), Point(-10, 0.5)]
        r = geometric_median(pts)
        assert r.certified
        assert r.point == Point(0, 0)

    def test_beats_grid_search(self):
        rng = random.Random(17)
        pts = [Point(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(7)]
        r = geometric_median(pts)
        assert r.certified
        best_grid = min(
            (
                sum_of_distances(Point(0.05 * i, 0.05 * j), pts)
                for i in range(81)
                for j in range(81)
            )
        )
        assert r.objective <= best_grid + 1e-6

    def test_collinear_input_returns_median(self):
        pts = [Point(t, 0) for t in (0.0, 1.0, 2.0, 3.0, 10.0)]
        r = geometric_median(pts)
        assert r.certified
        assert r.point.close_to(Point(2, 0))

    def test_lemma_3_2_invariance_under_moves_towards(self):
        """Moving points straight towards the Weber point keeps it fixed."""
        rng = random.Random(23)
        pts = [Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(6)]
        w = geometric_median(pts)
        assert w.certified
        moved = [
            p + (w.point - p) * rng.uniform(0.0, 0.8) for p in pts
        ]
        w2 = geometric_median(moved)
        assert w2.certified
        assert w.point.distance_to(w2.point) < 1e-7


class TestLinearInterval:
    def test_odd_count_unique(self):
        pts = [Point(t, 0) for t in (0.0, 1.0, 5.0)]
        lo, hi = linear_weber_interval(pts)
        assert lo.close_to(Point(1, 0)) and hi.close_to(Point(1, 0))

    def test_even_count_interval(self):
        pts = [Point(t, 0) for t in (0.0, 1.0, 2.0, 6.0)]
        lo, hi = linear_weber_interval(pts)
        assert lo.close_to(Point(1, 0))
        assert hi.close_to(Point(2, 0))

    def test_multiplicities_shift_median(self):
        pts = [Point(0, 0)] * 3 + [Point(1, 0), Point(2, 0)]
        lo, hi = linear_weber_interval(pts)
        assert lo.close_to(Point(0, 0)) and hi.close_to(Point(0, 0))

    def test_non_collinear_rejected(self):
        with pytest.raises(ValueError):
            linear_weber_interval([Point(0, 0), Point(1, 0), Point(0, 1)])

    def test_all_coincident(self):
        lo, hi = linear_weber_interval([Point(2, 2)] * 4)
        assert lo == hi == Point(2, 2)

    def test_diagonal_line(self):
        pts = [Point(t, t) for t in (0.0, 1.0, 2.0, 3.0, 4.0)]
        lo, hi = linear_weber_interval(pts)
        assert lo.close_to(Point(2, 2)) and hi.close_to(Point(2, 2))

    def test_interval_endpoints_are_both_optima(self):
        pts = [Point(t, 0) for t in (0.0, 1.0, 3.0, 7.0)]
        lo, hi = linear_weber_interval(pts)
        obj_lo = sum_of_distances(lo, pts)
        obj_hi = sum_of_distances(hi, pts)
        obj_mid = sum_of_distances((lo + hi) / 2, pts)
        assert math.isclose(obj_lo, obj_hi)
        assert math.isclose(obj_lo, obj_mid)


# -- bit-for-bit pin of the float-pair solver --------------------------------
#
# A frozen copy of the Point-based solver the float-pair loops replaced:
# its objective, subgradient sum, Vardi–Zhang step and outer loop.  The
# solver must reproduce it exactly (``==`` on every float), not
# merely within a tolerance: corpus replay and the benchmark digests
# hash simulation results that depend on the last bit of each solve.


def _ref_sum_of_distances(x, points):
    return math.fsum(x.distance_to(p) for p in points)


def _ref_unit_vector_sum(x, points, tol):
    sx = 0.0
    sy = 0.0
    co_located = 0
    for p in points:
        d = x.distance_to(p)
        if d <= tol.eps_dist:
            co_located += 1
            continue
        sx += (p.x - x.x) / d
        sy += (p.y - x.y) / d
    return Point(sx, sy), co_located


def _ref_is_weber_point(x, points, tol, slack=1e-7):
    s, k = _ref_unit_vector_sum(x, points, tol)
    return s.norm() <= k + slack


def _ref_step(x, pts, singular_eps):
    wx = 0.0
    wy = 0.0
    wsum = 0.0
    at_x = 0
    rx = 0.0
    ry = 0.0
    for p in pts:
        d = x.distance_to(p)
        if d <= singular_eps:
            at_x += 1
            continue
        w = 1.0 / d
        wx += p.x * w
        wy += p.y * w
        wsum += w
        rx += (p.x - x.x) * w
        ry += (p.y - x.y) * w
    if wsum == 0.0:
        return x
    t = Point(wx / wsum, wy / wsum)
    if at_x == 0:
        return t
    r_norm = math.hypot(rx, ry)
    if r_norm == 0.0:
        return x
    beta = min(1.0, at_x / r_norm)
    return Point(x.x + (1.0 - beta) * (t.x - x.x), x.y + (1.0 - beta) * (t.y - x.y))


def _ref_iterate(x, pts, eps_solver, max_iterations):
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        nxt = _ref_step(x, pts, eps_solver)
        if nxt.distance_to(x) <= eps_solver:
            x = nxt
            break
        x = nxt
    return x, iterations


def _ref_geometric_median(pts, tol, start=None):
    """The solver's non-collinear path: screen, certify, iterate."""
    best_input = min(pts, key=lambda p: _ref_sum_of_distances(p, pts))
    if _ref_is_weber_point(best_input, pts, tol):
        return best_input, 0, True, _ref_sum_of_distances(best_input, pts)
    x = start if start is not None else _initial_guess(pts)
    x, iterations = _ref_iterate(x, pts, tol.eps_solver, MAX_ITERATIONS)
    return (
        x,
        iterations,
        _ref_is_weber_point(x, pts, tol),
        _ref_sum_of_distances(x, pts),
    )


def _random_points(n, seed):
    rng = random.Random(seed)
    return [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]


#: A capped, uncertified solve from the ``linear-interval`` family
#: (n = 8, f = 7, fsync scheduler, seed 1908982825).  The second point
#: is nearly optimal (its unit-vector sum has norm 1.0004), so Weiszfeld
#: creeps towards it sublinearly and stops at the step cap.
CAPPED_INPUT = [
    Point(float.fromhex(x), float.fromhex(y))
    for x, y in (
        ("0x1.a46a9f5a9773ep+1", "-0x1.d92343c921670p-3"),
        ("0x1.3e1d56110f8e1p+1", "-0x1.5789caf4db657p+0"),
        ("0x1.5191f27aad1f3p+1", "-0x1.e3ef80ec14646p-1"),
        ("0x1.414fdee43f041p+1", "-0x1.46d8822a9f42cp+0"),
        ("0x1.3bc4a0fbf5bc1p+1", "-0x1.63c9e09abc447p+0"),
        ("0x1.a37e54250b247p+0", "-0x1.c6a505550a597p+1"),
        ("0x1.29b4c02efd029p+1", "-0x1.c2158a395ea99p+0"),
        ("0x1.2bfbbbc076989p+1", "-0x1.8a2042bb9ed58p+0"),
    )
]


class TestBitIdenticalToPointSolver:
    def _assert_same(self, result, ref):
        point, iterations, certified, objective = ref
        assert result.point.x == point.x
        assert result.point.y == point.y
        assert result.iterations == iterations
        assert result.certified == certified
        assert result.objective == objective

    def _assert_same_iterates(self, pts, start, tol, steps=(1, 2, 5, 20)):
        # A converged solve forgives a last-bit slip on the way; an
        # iterate cut off after a few steps does not.
        coords = [(p.x, p.y) for p in pts]
        for cap in steps:
            ref, ref_its = _ref_iterate(start, pts, tol.eps_solver, cap)
            got = _weiszfeld(coords, (start.x, start.y), tol.eps_solver, cap)
            assert got == (ref.x, ref.y, ref_its)

    @pytest.mark.parametrize("n", [3, 6, 8, 25])
    def test_plain_convergence(self, n, tol):
        pts = _random_points(n, seed=100 + n)
        ref = _ref_geometric_median(pts, tol)
        assert 0 < ref[1] < MAX_ITERATIONS  # converged by step size
        self._assert_same(geometric_median(pts, tol), ref)
        self._assert_same_iterates(pts, _initial_guess(pts), tol)

    def test_occupied_optimum_from_the_screen(self, tol):
        pts = [Point(0.3, 0.7)] * 3 + _random_points(4, seed=11)
        ref = _ref_geometric_median(pts, tol)
        assert ref[1] == 0
        self._assert_same(geometric_median(pts, tol), ref)

    @pytest.mark.parametrize("index", [0, 4])
    def test_start_on_an_input_point_takes_vardi_zhang(self, index, tol):
        pts = _random_points(8, seed=5)
        start = pts[index]
        ref = _ref_geometric_median(pts, tol, start=start)
        assert ref[1] > 1  # the screen rejected every input point
        self._assert_same(geometric_median(pts, tol, start=start), ref)
        self._assert_same_iterates(pts, start, tol)

    @pytest.mark.parametrize("seed", range(41, 46))
    def test_vardi_zhang_step_from_every_input_point(self, seed, tol):
        # One corrected step per start: the last bits of the pull-back
        # show in the iterate only when nothing comes after it, and most
        # clearly from the origin, where the step adds nothing to x.
        pts = _random_points(12, seed) + [Point(0.0, 0.0)] + [Point(1, 2)] * 2
        for start in pts:
            self._assert_same_iterates(pts, start, tol, steps=(1,))

    def test_zero_residual_pull_stops_at_the_iterate(self, tol):
        # The iterate sits on the center point of a symmetric cross: the
        # Vardi–Zhang pull of the other points cancels exactly.
        pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(-1.0, 0.0),
               Point(0.0, 2.0), Point(0.0, -2.0)]
        ref, ref_its = _ref_iterate(pts[0], pts, tol.eps_solver, MAX_ITERATIONS)
        got = _weiszfeld([(p.x, p.y) for p in pts], (0.0, 0.0),
                         tol.eps_solver, MAX_ITERATIONS)
        assert got == (ref.x, ref.y, ref_its) == (0.0, 0.0, 1)

    def test_every_point_at_the_iterate(self, tol):
        # geometric_median sends such input down its collinear branch,
        # so the solver is driven directly.
        here = Point(1.5, -2.0)
        pts = [here, here, Point(1.5 + 1e-14, -2.0), here]
        ref, ref_its = _ref_iterate(here, pts, tol.eps_solver, MAX_ITERATIONS)
        got = _weiszfeld([(p.x, p.y) for p in pts], (here.x, here.y),
                         tol.eps_solver, MAX_ITERATIONS)
        assert got == (ref.x, ref.y, ref_its) == (1.5, -2.0, 1)

    def test_capped_uncertified_solve(self, tol):
        ref = _ref_geometric_median(CAPPED_INPUT, tol)
        assert ref[1] == MAX_ITERATIONS and not ref[2]
        self._assert_same(geometric_median(CAPPED_INPUT, tol), ref)

    def test_objective_and_subgradient(self, tol):
        pts = _random_points(24, seed=9) + [Point(1, 2)]  # one int point
        assert _distance_sums([(p.x, p.y) for p in pts], [(p.x, p.y) for p in pts]) == [
            _ref_sum_of_distances(p, pts) for p in pts
        ]
        for x in (pts[0], pts[-1], Point(0.25, -0.5)):
            assert sum_of_distances(x, pts) == _ref_sum_of_distances(x, pts)
            s, k = unit_vector_sum(x, pts, tol)
            ref_s, ref_k = _ref_unit_vector_sum(x, pts, tol)
            assert (s.x, s.y, k) == (ref_s.x, ref_s.y, ref_k)
