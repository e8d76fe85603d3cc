"""Workload generators for every configuration class, plus perturbations."""

from .generators import (
    CLASS_GENERATORS,
    SIZE_RULES,
    asymmetric,
    biangular,
    bivalent,
    check_size,
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
from .perturb import break_symmetry, jitter

__all__ = [
    "CLASS_GENERATORS",
    "SIZE_RULES",
    "check_size",
    "asymmetric",
    "biangular",
    "bivalent",
    "gathered",
    "generate",
    "linear_unique_weber",
    "linear_weber_interval_config",
    "multiple",
    "near_bivalent",
    "quasi_regular_occupied_center",
    "random_points",
    "regular_polygon",
    "unsafe_ray",
    "break_symmetry",
    "jitter",
]
