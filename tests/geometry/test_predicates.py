"""Unit tests for tolerant combinatorial predicates."""

import pytest

from repro.geometry import (
    Orientation,
    Point,
    all_collinear,
    are_collinear,
    on_ray,
    orientation,
    point_on_segment,
    point_strictly_between,
    project_parameter,
)

A = Point(0.0, 0.0)
B = Point(4.0, 0.0)


class TestOrientation:
    def test_clockwise_turn(self):
        # Walking (0,0) -> (1,0) -> (2,-1) turns clockwise (chirality).
        assert orientation(A, Point(1, 0), Point(2, -1)) is Orientation.CLOCKWISE

    def test_counterclockwise_turn(self):
        assert (
            orientation(A, Point(1, 0), Point(2, 1))
            is Orientation.COUNTERCLOCKWISE
        )

    def test_collinear_exact(self):
        assert orientation(A, Point(1, 0), Point(2, 0)) is Orientation.COLLINEAR

    def test_collinear_within_band(self, tol):
        c = Point(2.0, tol.eps_dist / 10)
        assert orientation(A, B, c) is Orientation.COLLINEAR

    def test_band_is_perpendicular_distance(self, tol):
        # The collinearity band is eps_dist of *perpendicular* distance,
        # independent of the segment length (consistent with point
        # identity): half an epsilon of sag stays collinear even at
        # kilometre scale, two epsilons never do.
        far = Point(1e6, 0.0)
        assert orientation(A, far, Point(5e5, tol.eps_dist / 2)) is (
            Orientation.COLLINEAR
        )
        assert orientation(A, far, Point(5e5, 4 * tol.eps_dist)) is not (
            Orientation.COLLINEAR
        )


class TestCollinearity:
    def test_three_points(self):
        assert are_collinear(A, B, Point(2, 0))
        assert not are_collinear(A, B, Point(2, 1))

    def test_all_collinear_on_diagonal(self):
        pts = [Point(t, 2 * t) for t in (0.0, 0.5, 1.5, -2.0)]
        assert all_collinear(pts)

    def test_all_collinear_detects_outlier(self):
        pts = [Point(t, 0.0) for t in range(5)] + [Point(2.0, 0.5)]
        assert not all_collinear(pts)

    def test_fewer_than_three_distinct_always_collinear(self):
        assert all_collinear([])
        assert all_collinear([A])
        assert all_collinear([A, A, A])
        assert all_collinear([A, B, A, B])

    def test_duplicates_do_not_confuse(self):
        pts = [A, A, B, B, Point(2, 0), Point(2, 0)]
        assert all_collinear(pts)


class TestSegments:
    def test_projection_parameter(self):
        assert project_parameter(A, B, Point(1, 0)) == 0.25
        assert project_parameter(A, B, Point(1, 3)) == 0.25  # projects down

    def test_degenerate_projection_raises(self):
        with pytest.raises(ValueError):
            project_parameter(A, A, B)

    def test_point_on_closed_segment_endpoints(self):
        assert point_on_segment(A, B, A)
        assert point_on_segment(A, B, B)

    def test_point_on_segment_interior_and_outside(self):
        assert point_on_segment(A, B, Point(2, 0))
        assert not point_on_segment(A, B, Point(5, 0))
        assert not point_on_segment(A, B, Point(-1, 0))
        assert not point_on_segment(A, B, Point(2, 1))

    def test_strictly_between_excludes_endpoints(self):
        assert point_strictly_between(A, B, Point(2, 0))
        assert not point_strictly_between(A, B, A)
        assert not point_strictly_between(A, B, B)


class TestRays:
    def test_half_line_excludes_origin(self):
        assert not on_ray(A, B, A)

    def test_half_line_contains_points_beyond_through(self):
        assert on_ray(A, B, Point(10, 0))
        assert on_ray(A, B, Point(2, 0))

    def test_half_line_excludes_backwards(self):
        assert not on_ray(A, B, Point(-3, 0))

    def test_half_line_excludes_off_line(self):
        assert not on_ray(A, B, Point(2, 0.5))

    def test_degenerate_ray_raises(self):
        with pytest.raises(ValueError):
            on_ray(A, A, B)
