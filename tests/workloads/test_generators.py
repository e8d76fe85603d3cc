"""Unit tests for workload generators."""

import pytest

from repro.core import ConfigClass, Configuration, classify
from repro.workloads import (
    CLASS_GENERATORS,
    SIZE_RULES,
    biangular,
    bivalent,
    gathered,
    generate,
    linear_unique_weber,
    linear_weber_interval_config,
    multiple,
    near_bivalent,
    quasi_regular_occupied_center,
    random_points,
    regular_polygon,
    unsafe_ray,
)

EXPECTED_CLASS = {
    "multiple": ConfigClass.MULTIPLE,
    "bivalent": ConfigClass.BIVALENT,
    "linear-unique": ConfigClass.LINEAR_UNIQUE_WEBER,
    "linear-interval": ConfigClass.LINEAR_MANY_WEBER,
    "regular-polygon": ConfigClass.QUASI_REGULAR,
    "biangular": ConfigClass.QUASI_REGULAR,
    "qr-occupied-center": ConfigClass.QUASI_REGULAR,
    "asymmetric": ConfigClass.ASYMMETRIC,
    "unsafe-ray": ConfigClass.MULTIPLE,
}


class TestDispatch:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            generate("no-such-kind", 8)

    def test_all_kinds_runnable(self):
        for kind in CLASS_GENERATORS:
            pts = generate(kind, 8, seed=1)
            assert len(pts) == 8, kind

    def test_determinism_in_seed(self):
        for kind in CLASS_GENERATORS:
            assert generate(kind, 8, 3) == generate(kind, 8, 3), kind

    def test_seeds_vary_output(self):
        assert generate("random", 8, 1) != generate("random", 8, 2)


class TestClassTargets:
    @pytest.mark.parametrize("kind,expected", sorted(EXPECTED_CLASS.items()))
    def test_generator_hits_class(self, kind, expected):
        for seed in range(4):
            for n in (6, 8, 12):
                c = Configuration(generate(kind, n, seed))
                assert classify(c) is expected, f"{kind} n={n} seed={seed}"

    def test_near_bivalent_is_never_bivalent(self):
        for seed in range(6):
            c = Configuration(near_bivalent(8, seed))
            assert classify(c) is not ConfigClass.BIVALENT


class TestValidation:
    def test_bivalent_needs_even(self):
        with pytest.raises(ValueError):
            bivalent(7)

    def test_l2w_needs_even_at_least_4(self):
        with pytest.raises(ValueError):
            linear_weber_interval_config(7)
        with pytest.raises(ValueError):
            linear_weber_interval_config(2)

    def test_l1w_rejects_n4(self):
        # No L1W configuration with n = 4 exists (see generator docs).
        with pytest.raises(ValueError):
            linear_unique_weber(4)

    def test_biangular_needs_even_6(self):
        with pytest.raises(ValueError):
            biangular(7)

    def test_unsafe_ray_needs_even_6(self):
        with pytest.raises(ValueError):
            unsafe_ray(7)

    def test_random_needs_positive(self):
        with pytest.raises(ValueError):
            random_points(0)

    def test_every_generator_has_a_size_rule(self):
        assert set(SIZE_RULES) == set(CLASS_GENERATORS)


class TestShapes:
    def test_gathered_single_location(self):
        c = Configuration(gathered(5, 1))
        assert c.is_gathered()

    def test_bivalent_halves(self):
        c = Configuration(bivalent(10, 2))
        assert len(c.support) == 2
        assert all(c.mult(p) == 5 for p in c.support)

    def test_multiple_has_strict_maximum(self):
        c = Configuration(multiple(9, 3))
        tops = c.max_multiplicity_points()
        assert len(tops) == 1
        assert c.max_multiplicity() >= 2

    def test_polygon_with_center_robots(self):
        pts = regular_polygon(8, seed=1, center_robots=2)
        c = Configuration(pts)
        assert c.n == 8
        assert c.max_multiplicity() == 2

    def test_qr_occupied_center_has_center_robot(self):
        from repro.core import quasi_regularity

        pts = quasi_regular_occupied_center(9, 0)
        c = Configuration(pts)
        qr = quasi_regularity(c)
        assert qr.is_quasi_regular
        assert c.mult(qr.center) == 1

    def test_unsafe_ray_layout(self):
        from repro.core import is_safe_point

        c = Configuration(unsafe_ray(10, 5))
        target = c.max_multiplicity_points()[0]
        assert c.mult(target) == 4  # n/2 - 1
        assert not is_safe_point(c, target)
