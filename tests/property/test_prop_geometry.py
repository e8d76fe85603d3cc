"""Property-based tests for the geometry substrate (hypothesis)."""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.geometry import (
    TWO_PI,
    Frame,
    Point,
    clockwise_angle,
    normalize_angle,
    rotate_clockwise,
    smallest_enclosing_circle,
)

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, finite, finite)
point_lists = st.lists(points, min_size=1, max_size=12)
angles = st.floats(min_value=-20.0, max_value=20.0)


@given(angles)
def test_normalize_angle_in_range(theta):
    v = normalize_angle(theta)
    assert 0.0 <= v < TWO_PI


@given(angles, angles)
def test_normalize_additive_mod_two_pi(a, b):
    lhs = normalize_angle(normalize_angle(a) + normalize_angle(b))
    rhs = normalize_angle(a + b)
    diff = abs(lhs - rhs)
    assert min(diff, TWO_PI - diff) < 1e-9


@given(points, points, st.floats(min_value=0.0, max_value=6.28))
def test_rotation_preserves_radius(p, center, theta):
    q = rotate_clockwise(p, center, theta)
    assert math.isclose(
        center.distance_to(p), center.distance_to(q), rel_tol=1e-9, abs_tol=1e-9
    )


@given(points, points, points)
def test_clockwise_angle_antisymmetry(u, apex, v):
    assume(u.distance_to(apex) > 1e-6 and v.distance_to(apex) > 1e-6)
    a = clockwise_angle(u, apex, v)
    b = clockwise_angle(v, apex, u)
    total = a + b
    assert (
        abs(total) < 1e-6
        or abs(total - TWO_PI) < 1e-6
    )


@given(point_lists)
def test_sec_covers_all_points(pts):
    circle = smallest_enclosing_circle(pts)
    for p in pts:
        assert circle.center.distance_to(p) <= circle.radius + 1e-7


@given(point_lists)
def test_sec_radius_at_most_diameter_bound(pts):
    # The SEC radius never exceeds half the diameter times 2/sqrt(3)
    # (Jung's theorem for the plane).
    circle = smallest_enclosing_circle(pts)
    diameter = max(
        (a.distance_to(b) for a in pts for b in pts), default=0.0
    )
    assert circle.radius <= diameter / math.sqrt(3.0) + 1e-7


@given(
    points,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=10.0),
    points,
)
def test_frame_roundtrip(origin, theta, scale, p):
    frame = Frame(origin=origin, theta=theta, scale=scale)
    q = frame.to_global(frame.to_local(p))
    assert q.distance_to(p) < 1e-6


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=10.0),
    points,
    points,
    points,
)
def test_frames_preserve_clockwise_angles(theta, scale, u, apex, v):
    assume(u.distance_to(apex) > 1e-3 and v.distance_to(apex) > 1e-3)
    frame = Frame(origin=Point(1.0, -1.0), theta=theta, scale=scale)
    original = clockwise_angle(u, apex, v)
    framed = clockwise_angle(
        frame.to_local(u), frame.to_local(apex), frame.to_local(v)
    )
    diff = abs(original - framed)
    assert min(diff, TWO_PI - diff) < 1e-6
