"""Unit tests for leader election (algorithm line 17)."""

import random
from unittest import mock

import pytest

from repro.core import Configuration, elect, election_key, safe_points
from repro.core import views as _views
from repro.geometry import Point, random_frame
from repro.workloads import generate

O = Point(0.0, 0.0)


class TestElectionKey:
    def test_multiplicity_dominates(self):
        c = Configuration([O] * 2 + [Point(5, 0), Point(0, 5), Point(5, 5)])
        # O has mult 2, the others 1: O must win regardless of distances.
        winner = elect(c, c.support)
        assert winner == O

    def test_distance_sum_breaks_mult_ties(self):
        # Equal multiplicities: the most central point (smallest sum of
        # distances) wins.
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 0.8)]
        c = Configuration(pts)
        winner = elect(c, c.support)
        assert winner == Point(1, 0)

    def test_empty_candidates_raises(self):
        c = Configuration([O, Point(1, 0)])
        with pytest.raises(ValueError):
            elect(c, [])

    def test_election_restricted_to_candidates(self):
        c = Configuration([O] * 2 + [Point(5, 0), Point(0, 5)])
        winner = elect(c, [Point(5, 0), Point(0, 5)])
        assert winner in (Point(5, 0), Point(0, 5))


class TestDeterminism:
    def test_all_robots_agree_in_asymmetric_configs(self):
        """Anonymous agreement: the elected point must be the same no
        matter which robot computes it, in any private frame."""
        for seed in range(5):
            pts = generate("asymmetric", 7, seed)
            c = Configuration(pts)
            winner = elect(c, safe_points(c))
            for frame_seed in range(4):
                f = random_frame(random.Random(frame_seed), origin=Point(2, 2))
                framed_pts = [f.to_local(p) for p in pts]
                fc = Configuration(framed_pts)
                framed_winner = elect(fc, safe_points(fc))
                assert framed_winner.close_to(
                    f.to_local(winner), fc.tol
                ) or framed_winner.distance_to(f.to_local(winner)) < 1e-6, (
                    f"seed {seed} frame {frame_seed}"
                )

    def test_key_orders_views_totally(self):
        pts = generate("asymmetric", 6, 3)
        c = Configuration(pts)
        keys = [election_key(c, p) for p in c.support]
        assert len(set(keys)) == len(keys)  # all distinct in class A


class TestLazyViews:
    """Views are built only when a (mult, sum) tie needs them."""

    def _elect_counting_tables(self, config, candidates):
        with mock.patch.object(
            _views, "_compute_view_table", wraps=_views._compute_view_table
        ) as build:
            winner = elect(config, candidates)
        return winner, build.call_count

    def test_an_election_without_a_tie_builds_no_view_table(self):
        for seed in range(5):
            c = Configuration(generate("asymmetric", 9, seed))
            winner, tables = self._elect_counting_tables(c, safe_points(c))
            assert tables == 0
            assert c.memo_get("views") is None
            assert winner == max(
                safe_points(c), key=lambda p: election_key(c, p)
            )

    def test_a_mirror_tie_builds_the_view_table_once(self):
        # (1, 0) and (-1, 0) both hold two robots and have bitwise-equal
        # distance sums: only their views tell them apart.
        pts = [Point(1, 0)] * 2 + [Point(-1, 0)] * 2 + [
            Point(0, 3), Point(2, 5), Point(-2, 5),
        ]
        c = Configuration(pts)
        winner, tables = self._elect_counting_tables(c, c.support)
        assert tables == 1
        assert winner in (Point(1, 0), Point(-1, 0))
        assert winner == max(c.support, key=lambda p: election_key(c, p))

