"""Unit tests for the tolerance model."""

import math

import pytest

from repro.geometry import DEFAULT_TOLERANCE, Tolerance


class TestValidation:
    def test_default_is_consistent(self):
        t = DEFAULT_TOLERANCE
        assert t.eps_solver < t.eps_dist

    @pytest.mark.parametrize("field", ["eps_dist", "eps_angle", "eps_solver"])
    def test_nonpositive_rejected(self, field):
        kwargs = {field: 0.0}
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    def test_solver_must_be_below_distance(self):
        with pytest.raises(ValueError):
            Tolerance(eps_dist=1e-12, eps_solver=1e-12)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TOLERANCE.eps_dist = 1.0  # type: ignore[misc]


class TestScalarPredicates:
    def test_same_length(self, tol):
        assert tol.same_length(1.0, 1.0 + tol.eps_dist / 2)
        assert not tol.same_length(1.0, 1.0 + 3 * tol.eps_dist)

    def test_is_zero_angle_wraps_full_turn(self, tol):
        assert tol.is_zero_angle(0.0)
        assert tol.is_zero_angle(2 * math.pi)
        assert tol.is_zero_angle(2 * math.pi - tol.eps_angle / 2)
        assert tol.is_zero_angle(-2 * math.pi)
        assert not tol.is_zero_angle(math.pi)


class TestQuantization:
    def test_quantize_length_snaps_to_grid(self, tol):
        q = tol.quantize_length(1.0 + 0.4 * tol.eps_dist)
        assert q == tol.quantize_length(1.0)

    def test_quantize_angle_snaps_to_grid(self, tol):
        q = tol.quantize_angle(0.5 + 0.4 * tol.eps_angle)
        assert q == tol.quantize_angle(0.5)

    def test_quantize_is_idempotent(self, tol):
        v = tol.quantize_length(1.2345)
        assert tol.quantize_length(v) == v
