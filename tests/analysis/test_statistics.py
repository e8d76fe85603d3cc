"""Unit tests for the statistics helpers."""

import math

from repro.analysis import mean, median


class TestDescriptive:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert math.isnan(mean([]))

    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert math.isnan(median([]))
