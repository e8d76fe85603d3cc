"""Unit tests for circles and the smallest enclosing circle."""

import math
import random

import pytest

from repro.geometry import Circle, Point, circumcircle, smallest_enclosing_circle

from ..conftest import regular_ngon


class TestCircle:
    def test_contains_closed_disk(self, tol):
        c = Circle(Point(0, 0), 1.0)
        assert c.contains(Point(0.5, 0.5))
        assert c.contains(Point(1.0, 0.0))  # boundary included
        assert not c.contains(Point(1.1, 0.0))


class TestCircumcircle:
    def test_right_triangle(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert c is not None
        assert c.center.close_to(Point(1, 1))
        assert math.isclose(c.radius, math.sqrt(2))

    def test_collinear_returns_none(self):
        assert circumcircle(Point(0, 0), Point(1, 0), Point(2, 0)) is None

    def test_all_three_on_boundary(self):
        a, b, c = Point(0.3, 1.7), Point(-2.0, 0.4), Point(1.1, -0.9)
        circ = circumcircle(a, b, c)
        assert circ is not None
        for p in (a, b, c):
            assert math.isclose(circ.center.distance_to(p), circ.radius,
                                rel_tol=1e-9)


class TestSmallestEnclosingCircle:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            smallest_enclosing_circle([])

    def test_single_point(self):
        c = smallest_enclosing_circle([Point(3, 4)])
        assert c.center == Point(3, 4)
        assert c.radius == 0.0

    def test_two_points_diameter(self):
        c = smallest_enclosing_circle([Point(0, 0), Point(2, 0)])
        assert c.center.close_to(Point(1, 0))
        assert math.isclose(c.radius, 1.0)

    def test_square(self, unit_square):
        c = smallest_enclosing_circle(unit_square)
        assert c.center.close_to(Point(0.5, 0.5))
        assert math.isclose(c.radius, math.sqrt(2) / 2)

    def test_obtuse_triangle_diameter_of_longest_side(self):
        # For an obtuse triangle the SEC is the circle on the longest side.
        pts = [Point(0, 0), Point(4, 0), Point(1, 0.5)]
        c = smallest_enclosing_circle(pts)
        assert c.center.close_to(Point(2, 0), )
        assert math.isclose(c.radius, 2.0, rel_tol=1e-9)

    def test_regular_polygon_center(self):
        pts = regular_ngon(7, center=Point(2, -1), radius=3.0, phase=0.3)
        c = smallest_enclosing_circle(pts)
        assert c.center.close_to(Point(2, -1), )
        assert math.isclose(c.radius, 3.0, rel_tol=1e-9)

    def test_interior_points_do_not_matter(self):
        pts = regular_ngon(5, radius=2.0)
        with_interior = pts + [Point(0.1, 0.1), Point(-0.3, 0.2)]
        c1 = smallest_enclosing_circle(pts)
        c2 = smallest_enclosing_circle(with_interior)
        assert c1.center.close_to(c2.center)
        assert math.isclose(c1.radius, c2.radius, rel_tol=1e-9)

    def test_covers_all_and_is_minimal_random(self):
        rng = random.Random(7)
        for trial in range(20):
            pts = [
                Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
                for _ in range(rng.randint(2, 15))
            ]
            c = smallest_enclosing_circle(pts)
            # Covers every point.
            assert all(
                c.center.distance_to(p) <= c.radius + 1e-9 for p in pts
            )
            # Minimality via the classic certificate: the SEC is either
            # determined by two antipodal points or by >= 3 boundary
            # points; in both cases no strictly smaller radius covers.
            boundary = [
                p
                for p in pts
                if abs(c.center.distance_to(p) - c.radius) <= 1e-7
            ]
            assert len(boundary) >= 2

    def test_input_order_invariance(self):
        rng = random.Random(3)
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]
        c1 = smallest_enclosing_circle(pts)
        c2 = smallest_enclosing_circle(list(reversed(pts)))
        assert c1.center.close_to(c2.center)
        assert math.isclose(c1.radius, c2.radius, rel_tol=1e-12)
