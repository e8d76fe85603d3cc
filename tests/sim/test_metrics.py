"""Unit tests for run metrics and batch summaries."""

import dataclasses
import math
import random

import pytest

from repro.algorithms import WaitFreeGather
from repro.geometry import Point, kernels
from repro.sim import Simulation, spread, summarize_runs


class TestSpread:
    def test_empty_and_single(self):
        assert spread([]) == 0.0
        assert spread([Point(1, 1)]) == 0.0

    def test_diameter(self):
        pts = [Point(0, 0), Point(3, 4), Point(1, 1)]
        assert spread(pts) == 5.0

    @pytest.mark.skipif(
        "numpy" not in kernels.available_backends(),
        reason="NumPy not importable in this environment",
    )
    def test_kernel_route_matches_python_fallback(self):
        rng = random.Random(17)
        pts = [
            Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            for _ in range(64)
        ]
        with kernels.backend("python"):
            reference = spread(pts)
        with kernels.backend("numpy"):
            assert abs(spread(pts) - reference) < 1e-12


class TestSummaries:
    def _results(self):
        asym = [Point(0, 0), Point(5, 0.3), Point(2.1, 4.4), Point(1.2, 1.9)]
        biv = [Point(0, 0)] * 2 + [Point(3, 3)] * 2
        return [
            Simulation(WaitFreeGather(), asym, seed=s).run() for s in range(3)
        ] + [Simulation(WaitFreeGather(), biv, seed=0).run()]

    def test_summarize_counts(self):
        summary = summarize_runs(self._results())
        assert summary.runs == 4
        assert summary.gathered == 3
        assert summary.impossible == 1
        assert summary.stalled == 0
        assert summary.timed_out == 0

    def test_success_rate(self):
        summary = summarize_runs(self._results())
        assert math.isclose(summary.success_rate, 0.75)

    def test_rounds_statistics_over_gathered_only(self):
        summary = summarize_runs(self._results())
        assert summary.mean_rounds_gathered > 0
        assert summary.max_rounds_gathered >= summary.mean_rounds_gathered / 2

    def test_mean_distance_is_exactly_rounded(self):
        # Naive left-to-right addition gives 0.6000000000000001 here.
        base = self._results()[0]
        results = [
            dataclasses.replace(base, total_distance=d) for d in (0.1, 0.2, 0.3)
        ]
        assert summarize_runs(results).mean_distance == math.fsum(
            (0.1, 0.2, 0.3)
        ) / 3

    def test_empty_batch(self):
        summary = summarize_runs([])
        assert summary.runs == 0
        assert summary.success_rate == 0.0
        assert math.isnan(summary.mean_rounds_gathered)

    def test_no_gathered_runs_max_rounds_is_none_not_zero(self):
        # A fully failed batch must not be mistakable for instant
        # gathering: the sentinel is None (tables render "-"), never 0.
        biv = [Point(0, 0)] * 2 + [Point(3, 3)] * 2
        results = [Simulation(WaitFreeGather(), biv, seed=0).run()]
        summary = summarize_runs(results)
        assert summary.gathered == 0
        assert summary.max_rounds_gathered is None

    def test_none_max_rounds_renders_as_dash(self):
        from repro.experiments.report import format_cell

        assert format_cell(None) == "-"
