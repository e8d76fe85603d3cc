"""Unit tests for ray structure and the string of angles (Definition 4)."""

import math

from repro.core import (
    Configuration,
    angular_resolution,
    periodicity,
    ray_structure,
    string_of_angles,
)
from repro.geometry import TWO_PI, Point

from ..conftest import regular_ngon

O = Point(0.0, 0.0)


class TestRayStructure:
    def test_everyone_at_center_yields_no_rays(self):
        c = Configuration([O] * 3)
        assert ray_structure(c, O) == []

    def test_rays_sorted_by_angle(self):
        c = Configuration([Point(0, 1), Point(1, 0), Point(-1, 0)])
        rays = ray_structure(c, O)
        angles = [r.angle for r in rays]
        assert angles == sorted(angles)
        assert len(rays) == 3

    def test_same_ray_clusters_points_by_distance(self):
        c = Configuration([Point(1, 0), Point(3, 0), Point(2, 0), Point(0, 1)])
        rays = ray_structure(c, O)
        east = next(r for r in rays if abs(r.angle) < 1e-9)
        assert east.count == 3
        assert list(east.points) == [Point(1, 0), Point(2, 0), Point(3, 0)]

    def test_multiplicities_counted(self):
        c = Configuration([Point(1, 0)] * 4 + [Point(0, 2)])
        rays = ray_structure(c, O)
        east = next(r for r in rays if abs(r.angle) < 1e-9)
        assert east.count == 4

    def test_center_robots_excluded(self):
        c = Configuration([O] * 2 + [Point(1, 0)])
        rays = ray_structure(c, O)
        assert len(rays) == 1 and rays[0].count == 1

    def test_wraparound_angle_clustering(self, tol):
        # Two points straddling the 0 / 2*pi seam form one ray.
        eps = tol.eps_angle / 10
        c = Configuration(
            [
                Point(math.cos(-eps), math.sin(-eps)),
                Point(2 * math.cos(eps), 2 * math.sin(eps)),
                Point(0, 1),
            ]
        )
        rays = ray_structure(c, O)
        assert len(rays) == 2


class TestStringOfAngles:
    def test_length_is_n_minus_center_mult(self):
        c = Configuration([O] * 2 + [Point(1, 0), Point(0, 1), Point(-1, -1)])
        sa = string_of_angles(c, O)
        assert len(sa) == 3

    def test_sums_to_full_turn(self, tol):
        c = Configuration(
            [Point(1, 0), Point(0, 2), Point(-3, 1), Point(-1, -2), Point(2, -1)]
        )
        sa = string_of_angles(c, O)
        # Each summand contributes its own rounding.
        assert abs(math.fsum(sa) - TWO_PI) <= tol.eps_angle * len(sa)

    def test_single_ray_gives_zeros_then_full_turn(self):
        c = Configuration([Point(1, 0), Point(2, 0), Point(3, 0)])
        sa = string_of_angles(c, O)
        assert sa == [0.0, 0.0, TWO_PI]

    def test_square_gives_four_right_angles(self):
        c = Configuration(regular_ngon(4, radius=1.0, phase=0.2))
        sa = string_of_angles(c, O)
        assert len(sa) == 4
        assert all(math.isclose(a, math.pi / 2) for a in sa)

    def test_colocated_robots_contribute_zero_angles(self):
        c = Configuration([Point(1, 0)] * 3 + [Point(-1, 0)])
        sa = string_of_angles(c, O)
        assert sorted(sa) == [0.0, 0.0, math.pi, math.pi]

    def test_empty_for_gathered(self):
        assert string_of_angles(Configuration([O] * 2), O) == []


class TestPeriodicity:
    def test_empty_string(self, tol):
        assert periodicity([], tol) == 1

    def test_constant_string_fully_periodic(self, tol):
        assert periodicity([math.pi / 2] * 4, tol) == 4

    def test_biangular_string(self, tol):
        sa = [0.3, 1.2705] * 4  # alternating, sums to 2*pi... roughly
        assert periodicity(sa, tol) == 4

    def test_aperiodic_string(self, tol):
        assert periodicity([0.1, 0.2, 0.3, 5.68], tol) == 1

    def test_periodicity_is_greatest(self, tol):
        # 8 identical entries: per = 8, not merely 2 or 4.
        assert periodicity([0.785] * 8, tol) == 8

    def test_two_periodic(self, tol):
        sa = [0.5, 1.0, 2.0, 0.5, 1.0, 2.0]
        assert periodicity(sa, tol) == 2

    def test_noise_within_band_tolerated(self, tol):
        noise = tol.eps_angle / 2
        sa = [0.5, 1.0, 0.5 + noise, 1.0 - noise]
        assert periodicity(sa, tol) == 2

    def test_noise_beyond_band_breaks(self, tol):
        sa = [0.5, 1.0, 0.5 + 1e-3, 1.0 - 1e-3]
        assert periodicity(sa, tol) == 1

    def test_rotation_invariance(self, tol):
        base = [0.2, 0.8, 1.1] * 3
        for shift in range(len(base)):
            rotated = base[shift:] + base[:shift]
            assert periodicity(rotated, tol) == 3


class TestAngularResolution:
    def test_far_points_give_static_tolerance(self, tol):
        c = Configuration([Point(5, 0), Point(0, 5)])
        res = angular_resolution(c, O)
        assert res < 10 * tol.eps_angle

    def test_near_center_point_loosens_resolution(self, tol):
        c = Configuration([Point(1e-6, 0), Point(0, 5)])
        res = angular_resolution(c, O)
        assert res > 1e-4  # eps_dist / 1e-6 = 1e-3, capped at 0.05

    def test_cap_applies(self):
        c = Configuration([Point(1e-12, 0), Point(0, 5)])
        assert angular_resolution(c, O) <= 0.05
