"""Unit tests for the Configuration multiset."""

import pytest

from repro.core import Configuration
from repro.geometry import Point, Tolerance


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Configuration([])

    def test_points_preserve_input_order(self):
        pts = [Point(1, 0), Point(0, 0), Point(1, 0)]
        c = Configuration(pts)
        assert list(c.points) == pts

    def test_n_counts_robots_not_locations(self):
        c = Configuration([Point(0, 0)] * 5)
        assert c.n == 5
        assert len(c.support) == 1

    def test_support_sorted_and_deduplicated(self):
        c = Configuration([Point(1, 0), Point(0, 0), Point(1, 0)])
        assert c.support == (Point(0, 0), Point(1, 0))


class TestMerging:
    def test_close_points_merged(self, tol):
        jitter = tol.eps_dist / 4
        c = Configuration([Point(0, 0), Point(jitter, 0), Point(1, 0)])
        assert len(c.support) == 2
        assert c.mult(Point(0, 0)) == 2

    def test_representative_is_lexicographic_minimum(self, tol):
        jitter = tol.eps_dist / 4
        c = Configuration([Point(jitter, 0), Point(0, 0)])
        assert c.support == (Point(0, 0),)

    def test_merge_is_input_order_independent(self, tol):
        jitter = tol.eps_dist / 4
        a = Configuration([Point(0, 0), Point(jitter, 0), Point(5, 5)])
        b = Configuration([Point(5, 5), Point(jitter, 0), Point(0, 0)])
        assert a.support == b.support

    def test_chained_merge_via_union_find(self, tol):
        # a~b and b~c merge all three even if a!~c directly.
        step = tol.eps_dist * 0.9
        c = Configuration([Point(0, 0), Point(step, 0), Point(2 * step, 0)])
        assert len(c.support) == 1
        assert c.mult(Point(0, 0)) == 3

    def test_distinct_points_not_merged(self, tol):
        c = Configuration([Point(0, 0), Point(3 * tol.eps_dist, 0)])
        assert len(c.support) == 2


class TestMultiplicity:
    def test_strong_multiplicity_detection(self):
        c = Configuration([Point(0, 0)] * 3 + [Point(1, 1)] * 2 + [Point(2, 2)])
        assert c.mult(Point(0, 0)) == 3
        assert c.mult(Point(1, 1)) == 2
        assert c.mult(Point(2, 2)) == 1

    def test_mult_of_unoccupied_is_zero(self):
        c = Configuration([Point(0, 0)])
        assert c.mult(Point(5, 5)) == 0

    def test_max_multiplicity_points(self):
        c = Configuration([Point(0, 0)] * 2 + [Point(1, 1)] * 2 + [Point(2, 2)])
        tops = c.max_multiplicity_points()
        assert sorted(tops) == [Point(0, 0), Point(1, 1)]
        assert c.max_multiplicity() == 2
        # Cached per configuration; a caller's edit must not leak.
        tops.clear()
        assert c.max_multiplicity_points() == [Point(0, 0), Point(1, 1)]

    def test_locate_tolerant(self, tol):
        c = Configuration([Point(1, 1)])
        assert c.locate(Point(1 + tol.eps_dist / 2, 1)) == Point(1, 1)
        assert c.locate(Point(2, 2)) is None


class TestDerived:
    def test_is_gathered(self):
        assert Configuration([Point(1, 1)] * 4).is_gathered()
        assert not Configuration([Point(1, 1), Point(2, 2)]).is_gathered()

    def test_is_linear(self):
        line = Configuration([Point(t, 2 * t) for t in range(4)])
        assert line.is_linear()
        tri = Configuration([Point(0, 0), Point(1, 0), Point(0, 1)])
        assert not tri.is_linear()

    def test_sec_uses_support_not_multiset(self):
        # Stacking robots on one point must not bias the SEC.
        c = Configuration([Point(0, 0)] * 10 + [Point(2, 0)])
        sec = c.sec()
        assert sec.center.close_to(Point(1, 0))

    def test_equality_is_multiset_equality(self):
        a = Configuration([Point(0, 0), Point(1, 1)])
        b = Configuration([Point(1, 1), Point(0, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Configuration([Point(0, 0), Point(0, 0)])

    def test_moved_returns_new_configuration(self):
        c = Configuration([Point(0, 0), Point(1, 1)])
        d = c.moved({0: Point(5, 5)})
        assert list(d.points) == [Point(5, 5), Point(1, 1)]
        assert list(c.points) == [Point(0, 0), Point(1, 1)]  # immutable

    def test_memo_caches(self):
        c = Configuration([Point(0, 0), Point(1, 1)])
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert c.memo("k", compute) == 42
        assert c.memo("k", compute) == 42
        assert len(calls) == 1
