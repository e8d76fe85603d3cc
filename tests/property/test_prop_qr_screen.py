"""The not-QR screen never rejects what ``quasi_regularity`` accepts.

``screen_not_quasi_regular`` ends a Weber solve early with "not
quasi-regular".  It must only do so where the full solve's
``quasi_regularity`` — the tolerant code, not exact reals — says the
same.  Its argument (DESIGN.md section 4) holds at *any* point, not only
at Weiszfeld iterates, so these checks probe its condition test at every
iterate the solve pauses on and at points around the certified centre,
from 1e-1 down to 1e-13 away, and require no probe to fire on a
configuration the full solve calls QR.  They also require the screened
detector to return exactly the full detector's result.

Inputs: the E7 generators at n = 6..16, their tangential nudges of one
and two robots from 1e-12 to 1e-3, variants with robots moved part-way
towards the centre (which stay QR, Lemma 3.2), and hypothesis-generated
near-symmetric inputs.  ``--hypothesis-profile=repro-deep`` runs the
generated inputs at about 2,000 examples.
"""

import importlib
import math
import random

import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from repro.core import Configuration, quasi_regularity
from repro.core.weber_point import numeric_weber_point
from repro.geometry import Point
from repro.geometry.weber import (
    _initial_guess,
    _weiszfeld,
    geometric_median,
)
from repro.workloads import break_symmetry, generate

# The package re-exports the function under the module's name.
qr_module = importlib.import_module("repro.core.quasi_regularity")

QR_WORKLOADS = ["regular-polygon", "biangular", "qr-occupied-center"]
SIZES = range(6, 17)
MAGNITUDES = [1e-12, 1e-9, 1e-6, 1e-3]

#: Steps after which the probes take the solve's iterate.
PROBE_PAUSES = tuple(2 ** k for k in range(13))
OFFSETS = [10.0 ** -k for k in range(1, 14)]


def _full(points):
    """The configuration's QR result from one unpaused solve."""
    config = Configuration(points)
    numeric_weber_point(config)
    return config, quasi_regularity(config)


def _probes(config, center):
    pts = config.points
    if geometric_median(pts, config.tol).iterations:
        # The solve iterates: probe it after each of PROBE_PAUSES steps
        # while it runs.
        coords = [(p.x, p.y) for p in pts]
        start = _initial_guess(pts)
        x, y, done = start.x, start.y, 0
        for pause in PROBE_PAUSES:
            x, y, _, stopped = _weiszfeld(
                coords, (x, y), config.tol.eps_solver, pause - done
            )
            if stopped:
                break
            done = pause
            yield x, y
    if center is not None:
        for k, offset in enumerate(OFFSETS):
            for turn in (0.0, 2.1, 4.2):
                heading = turn + 0.37 * k
                yield (
                    center.x + offset * math.cos(heading),
                    center.y + offset * math.sin(heading),
                )


def assert_screen_sound(points) -> bool:
    """Check one input; True when some probe screened it."""
    config, full = _full(points)
    if config.is_gathered() or config.is_linear():
        return False
    fresh = Configuration(points)
    hits = [
        probe
        for probe in _probes(fresh, numeric_weber_point(config))
        if qr_module._screen(fresh, *probe)
    ]
    if full.is_quasi_regular:
        assert not hits, (points, full, hits[:3])
    assert quasi_regularity(Configuration(points)) == full
    return bool(hits)


def _move_towards(points, target, seed):
    rng = random.Random(seed)
    return [
        p + (target - p) * rng.uniform(0.0, 0.9) if rng.random() < 0.5 else p
        for p in points
    ]


@pytest.mark.parametrize("workload", QR_WORKLOADS)
def test_screen_never_rejects_an_e7_configuration(workload):
    qr_configs = 0
    screened = 0
    for n in SIZES:
        if workload == "biangular" and n % 2:
            continue
        for seed in range(2):
            original = generate(workload, n, seed)
            config, full = _full(original)
            assert full.is_quasi_regular
            center = full.center
            variants = [original, _move_towards(original, center, seed)]
            for magnitude in MAGNITUDES:
                for count in (1, 2):
                    variants.append(
                        break_symmetry(
                            original,
                            magnitude=magnitude,
                            seed=seed + count,
                            tangential_about=center,
                            count=count,
                        )
                    )
            for points in variants:
                qr_configs += _full(points)[1].is_quasi_regular
                screened += assert_screen_sound(points)
    # Moved-towards variants stay QR.  The 1e-3 nudges do not, and the
    # screen must fire on some of them, except in the occupied-centre
    # family: its Weber point stays on the centre robot, which the
    # certificate accepts, so no probe may fire there.
    assert qr_configs >= 2 * 2 * 5
    assert (screened > 0) == (workload != "qr-occupied-center")


coords = st.floats(min_value=-20.0, max_value=20.0)


@st.composite
def near_symmetric(draw):
    """A rotationally symmetric multiset, maybe with robots on its
    centre, then nudged: tangentially, radially, towards the centre, or
    by dropping a robot (a deficiency the centre may fill)."""
    order = draw(st.integers(2, 6))
    per = draw(st.integers(1, max(1, 16 // order)))
    cx, cy = draw(coords), draw(coords)
    base = [
        (
            draw(st.floats(0.0, 2.0 * math.pi / order)),
            draw(st.floats(0.25, 8.0)),
        )
        for _ in range(per)
    ]
    points = [
        Point(
            cx + radius * math.cos(theta + 2.0 * math.pi * j / order),
            cy + radius * math.sin(theta + 2.0 * math.pi * j / order),
        )
        for j in range(order)
        for theta, radius in base
    ]
    points += [Point(cx, cy)] * draw(st.integers(0, 2))
    if draw(st.booleans()) and len(points) > 3:
        points.pop(draw(st.integers(0, len(points) - 1)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(points) - 1))
        p = points[i]
        dx, dy = p.x - cx, p.y - cy
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            continue
        size = 10.0 ** draw(st.floats(-12.0, -3.0))
        kind = draw(st.sampled_from(["tangential", "radial", "towards"]))
        if kind == "tangential":
            points[i] = Point(p.x - dy / norm * size, p.y + dx / norm * size)
        elif kind == "radial":
            points[i] = Point(p.x + dx / norm * size, p.y + dy / norm * size)
        else:
            t = draw(st.floats(0.0, 0.9))
            points[i] = Point(p.x - dx * t, p.y - dy * t)
    return points


@given(near_symmetric())
def test_screen_never_rejects_a_near_symmetric_input(points):
    assume(len(points) >= 3)
    screened = assert_screen_sound(points)
    # Shown by --hypothesis-show-statistics.
    event(f"quasi-regular: {_full(points)[1].is_quasi_regular}")
    event(f"screened: {screened}")
