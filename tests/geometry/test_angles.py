"""Unit tests for clockwise-angle arithmetic (chirality convention)."""

import math

import pytest

from repro.geometry import (
    TWO_PI,
    Point,
    clockwise_angle,
    direction_angle,
    normalize_angle,
    rotate_clockwise,
)

O = Point(0.0, 0.0)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (TWO_PI, 0.0),
            (-math.pi / 2, 3 * math.pi / 2),
            (5 * TWO_PI + 0.25, 0.25),
        ],
    )
    def test_values(self, raw, expected):
        assert math.isclose(normalize_angle(raw), expected, abs_tol=1e-12)

    def test_result_in_range(self):
        for k in range(-20, 20):
            v = normalize_angle(k * 0.7718)
            assert 0.0 <= v < TWO_PI


class TestClockwiseAngle:
    def test_quarter_turn_clockwise(self):
        # From +x to -y is a quarter turn CLOCKWISE.
        a = clockwise_angle(Point(1, 0), O, Point(0, -1))
        assert math.isclose(a, math.pi / 2)

    def test_quarter_turn_counterclockwise_reads_three_quarters(self):
        # From +x to +y clockwise requires going the long way round.
        a = clockwise_angle(Point(1, 0), O, Point(0, 1))
        assert math.isclose(a, 3 * math.pi / 2)

    def test_same_direction_is_zero(self):
        assert clockwise_angle(Point(2, 0), O, Point(5, 0)) == 0.0

    def test_apex_coincidence_raises(self):
        with pytest.raises(ValueError):
            clockwise_angle(O, O, Point(1, 0))
        with pytest.raises(ValueError):
            clockwise_angle(Point(1, 0), O, O)

    def test_antisymmetry(self):
        u, v = Point(1, 0.3), Point(-0.4, 1)
        a = clockwise_angle(u, O, v)
        b = clockwise_angle(v, O, u)
        assert math.isclose(a + b, TWO_PI)

    def test_translation_invariance(self):
        apex = Point(3.5, -2.0)
        a = clockwise_angle(apex + Point(1, 0), apex, apex + Point(0, -1))
        assert math.isclose(a, math.pi / 2)


class TestRotation:
    def test_rotate_clockwise_quarter(self):
        p = rotate_clockwise(Point(1, 0), O, math.pi / 2)
        assert p.close_to(Point(0, -1))

    def test_rotations_inverse(self):
        p = Point(2.5, -1.25)
        center = Point(0.5, 0.5)
        q = rotate_clockwise(rotate_clockwise(p, center, 1.1), center, -1.1)
        assert q.close_to(p)

    def test_rotation_preserves_distance_to_center(self):
        center = Point(-1.0, 2.0)
        p = Point(3.0, 4.0)
        q = rotate_clockwise(p, center, 0.7)
        assert math.isclose(center.distance_to(p), center.distance_to(q))

    def test_rotation_realizes_clockwise_angle(self):
        center = Point(1.0, 1.0)
        p = Point(4.0, 1.0)
        theta = 0.9
        q = rotate_clockwise(p, center, theta)
        assert math.isclose(clockwise_angle(p, center, q), theta)


class TestAngleSum:
    def test_direction_angle_east_is_zero(self):
        assert direction_angle(O, Point(5, 0)) == 0.0
