"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry import DEFAULT_TOLERANCE, Point

# Deterministic, CI-friendly hypothesis profile: enough examples to be
# meaningful, no deadline flakiness from the slower geometric properties.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
# The same profile forty times deeper, for the properties a CI job runs
# on their own with ``--hypothesis-profile=repro-deep`` (tier-1 keeps
# ``repro``).
settings.register_profile(
    "repro-deep", settings.get_profile("repro"), max_examples=2000
)
settings.load_profile("repro")


@pytest.fixture
def tol():
    return DEFAULT_TOLERANCE


@pytest.fixture
def numpy():
    """NumPy, which the batched engine and its kernels need; the test
    is skipped when it is not installed."""
    return pytest.importorskip("numpy")


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def unit_square():
    return [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]


def regular_ngon(k: int, center: Point = Point(0.0, 0.0), radius: float = 1.0,
                 phase: float = 0.0):
    """Helper shared by several test modules."""
    return [
        Point(
            center.x + radius * math.cos(phase + 2.0 * math.pi * i / k),
            center.y + radius * math.sin(phase + 2.0 * math.pi * i / k),
        )
        for i in range(k)
    ]
