"""Regression tests — every bug found while building the reproduction.

Each test documents the failure mode it pins, so a future refactor that
reintroduces it fails with an explanation rather than a mystery.
"""

import math

import pytest

from repro.algorithms import WaitFreeGather
from repro.core import (
    ConfigClass,
    Configuration,
    classify,
    quasi_regularity,
)
from repro.geometry import Point, linear_weber_interval
from repro.sim import RandomCrashes, RandomStop, RandomSubset, Simulation
from repro.workloads import generate


class TestNearCenterAngularPoisoning:
    """A robot stopping just short of the Weber point used to poison the
    string of angles: its ray direction, known only to eps/distance,
    failed the exact angular-periodicity band and flipped a QR
    configuration to A mid-run (an illegal transition under Lemma 5.5).
    Fixed by distance-aware angular resolution in ray_structure."""

    def test_qr_with_robot_near_center_stays_qr(self):
        # Perfect square + one robot 1e-6 from the center, on the exact
        # ray towards a corner but with 1e-12 of lateral float noise —
        # the shape the engine produces after an interrupted move.
        ring = [Point(2, 0), Point(0, 2), Point(-2, 0), Point(0, -2)]
        near = Point(1e-6, 1e-12)
        config = Configuration(ring + [near, Point(-1e-6, -1e-12)])
        qr = quasi_regularity(config)
        assert qr.is_quasi_regular, "near-center noise must be absorbed"

    def test_full_run_never_makes_illegal_qr_transition(self):
        from repro.analysis import InvariantMonitor

        monitor = InvariantMonitor()
        sim = Simulation(
            WaitFreeGather(),
            generate("biangular", 8, 2),
            scheduler=RandomSubset(0.5),
            crash_adversary=RandomCrashes(f=7, rate=0.25),
            movement=RandomStop(0.05),
            seed=8,
            max_rounds=10_000,
        )
        sim.add_observer(monitor)  # raises on any illegal transition
        assert sim.run().gathered


class TestL1WGeneratorEvenN:
    """linear_unique_weber looped forever for even n: forcing the two
    middle order statistics to coincide creates a multiplicity-2 point
    that is the unique maximum, reclassifying the output as M.  Fixed
    with the (k, 2, k) block pattern; n = 4 is provably impossible."""

    def test_even_n_terminates_and_is_l1w(self):
        for n in (6, 8, 10, 12):
            config = Configuration(generate("linear-unique", n, 1))
            assert classify(config) is ConfigClass.LINEAR_UNIQUE_WEBER, n

    def test_n4_rejected_not_looped(self):
        from repro.workloads import linear_unique_weber

        with pytest.raises(ValueError):
            linear_unique_weber(4)


class TestQrOccupiedCenterGenerator:
    """The original occupied-center generator stacked >= 2 wildcards on
    the center, which made the center the unique maximum multiplicity —
    class M — and the class-targeted retry loop never terminated."""

    def test_center_multiplicity_is_one(self):
        for n in (6, 9, 10, 13):
            config = Configuration(generate("qr-occupied-center", n, 0))
            qr = quasi_regularity(config)
            assert qr.is_quasi_regular
            assert config.mult(qr.center) == 1
            assert classify(config) is ConfigClass.QUASI_REGULAR


class TestLinearMedianCanonicalOrder:
    """linear_weber_interval returned its endpoints in anchor order,
    which depended on the input order of the points; hypothesis found
    ts=[1.0, 0.0] returning (1, 0) instead of (0, 1)."""

    def test_interval_is_lexicographically_ordered(self):
        lo, hi = linear_weber_interval([Point(1, 0), Point(0, 0)])
        assert lo <= hi
        lo2, hi2 = linear_weber_interval([Point(0, 0), Point(1, 0)])
        assert (lo, hi) == (lo2, hi2)


class TestLinearClassificationToleranceConsistency:
    """Configuration.is_linear (support, farthest-anchor band) could
    disagree with the strict collinearity re-check inside the geometry
    median helper on eps-sagged lines produced mid-run by baselines,
    raising ValueError out of classify().  The core now projects onto
    the support line instead of re-checking."""

    def test_sagged_line_classifies_without_error(self):
        sag = 0.5e-9  # within eps_dist of the line, off it bitwise
        pts = [
            Point(0.0, 0.0),
            Point(1.0, sag),
            Point(2.0, -sag),
            Point(5.0, sag / 2),
        ]
        config = Configuration(pts)
        assert config.is_linear()
        cls = classify(config)  # must not raise
        assert cls in (
            ConfigClass.LINEAR_UNIQUE_WEBER,
            ConfigClass.LINEAR_MANY_WEBER,
        )


class TestFermatTriangleIsQuasiRegular:
    """Not a bug but a surprise worth pinning: any triangle whose Fermat
    point is interior is regular per Definition 5 (three rays at exactly
    120 degrees), so 3-robot 'generic' configurations classify as QR,
    not A.  An obtuse (>= 120 degree) triangle has its Weber point on
    the obtuse vertex and is genuinely A."""

    def test_acute_triangle_is_qr(self):
        config = Configuration([Point(-1, 0), Point(1, 0), Point(0, 3)])
        assert classify(config) is ConfigClass.QUASI_REGULAR

    def test_very_obtuse_triangle_is_asymmetric(self):
        config = Configuration([Point(0, 0), Point(10, 0.5), Point(-10, 0.5)])
        assert classify(config) is ConfigClass.ASYMMETRIC


class TestWildcardAbsorbsOneNudge:
    """E7b initially looked like it had detector false positives: a
    tangential nudge of the *deficient* ray of an occupied-center QR
    configuration leaves it genuinely quasi-regular, because the center
    wildcard can complete whichever slot is empty (Lemma 3.4).  Two
    nudges exceed one wildcard and must break detection."""

    def test_single_nudge_of_unpaired_ray_keeps_qr(self):
        # Center robot + two opposite pairs + one unpaired ray.
        import math as m

        center = Point(0, 0)
        pts = [center]
        for a in (0.4, 1.3):
            pts.append(Point(2 * m.cos(a), 2 * m.sin(a)))
            pts.append(Point(2 * m.cos(a + m.pi), 2 * m.sin(a + m.pi)))
        unpaired_angle = 2.4
        pts.append(Point(2 * m.cos(unpaired_angle), 2 * m.sin(unpaired_angle)))
        assert quasi_regularity(Configuration(pts)).is_quasi_regular
        # Rotate ONLY the unpaired ray: still quasi-regular.
        pts[-1] = Point(2 * m.cos(2.9), 2 * m.sin(2.9))
        assert quasi_regularity(Configuration(pts)).is_quasi_regular
        # Rotate a paired ray as well: two broken slots, one wildcard.
        pts[1] = Point(2 * m.cos(0.9), 2 * m.sin(0.9))
        assert not quasi_regularity(Configuration(pts)).is_quasi_regular


class TestLocateSpansWideClusters:
    """Configuration.locate compared points only against cluster
    *representatives*; union-find chains can span more than eps end to
    end, so a robot's own exact position could fail to locate inside
    its own cluster (first seen as a NotAPositionError under sensor
    noise, where merge tolerances are large).  locate now resolves
    exact input points through the merge map."""

    def test_chained_cluster_member_locates(self):
        from dataclasses import replace

        from repro.geometry import DEFAULT_TOLERANCE

        tol = replace(DEFAULT_TOLERANCE, eps_dist=1.0)
        # 0 -- 0.9 -- 1.8 -- 2.7: chained into one cluster of diameter
        # 2.7 > eps; the far member must still locate.
        pts = [Point(0.0, 0.0), Point(0.9, 0.0), Point(1.8, 0.0), Point(2.7, 0.0)]
        config = Configuration(pts, tol)
        assert len(config.support) == 1
        rep = config.support[0]
        for p in pts:
            assert config.locate(p) == rep


class TestMultipleCenterCoincidentViewPoints:
    """view_table assumed at most one support point coincides with the
    SEC center; at sensor-limited resolutions several can, and the
    missing table entries crashed the election with a KeyError."""

    def test_views_total_even_with_crowded_center(self):
        from dataclasses import replace

        from repro.core import view_table
        from repro.geometry import DEFAULT_TOLERANCE

        tol = replace(DEFAULT_TOLERANCE, eps_dist=0.5)
        # Two unmerged points near the SEC center of a surrounding ring.
        pts = [
            Point(2.0, 0.0), Point(-2.0, 0.0), Point(0.0, 2.0), Point(0.0, -2.0),
            Point(0.3, 0.0), Point(-0.3, 0.0),
        ]
        config = Configuration(pts, tol)
        table = view_table(config)
        assert set(table) == set(config.support)

    def test_degenerate_blob_views_do_not_crash(self):
        from dataclasses import replace

        from repro.core import view_table
        from repro.geometry import DEFAULT_TOLERANCE

        tol = replace(DEFAULT_TOLERANCE, eps_dist=0.5)
        # Everything within resolution of the center but not merged.
        pts = [Point(0.0, 0.0), Point(0.6, 0.0), Point(0.0, 0.6)]
        config = Configuration(pts, tol)
        table = view_table(config)
        assert set(table) == set(config.support)


def _observe_worker_backend(_item):
    """Module-level so the process pool can pickle it."""
    import os

    from repro.geometry import kernels

    return (kernels.get_backend(), os.environ.get("REPRO_BACKEND"))


class TestTraceToleranceRoundTrip:
    """Trace JSON did not record the run's Tolerance, so archived
    configurations were rebuilt with DEFAULT_TOLERANCE on load.  For a
    run recorded under a coarser tolerance (sensor-noise experiments
    snap with large eps) the offline invariant checkers then quantized
    space differently from the live run — ``locate``, ``close_to`` and
    the angular bands all read ``config.tol`` — so verification of the
    archive could disagree with verification of the execution it
    archived.  Schema v2 carries the tolerance in its meta block and
    ``from_json`` rebuilds every configuration with it."""

    def test_recorded_tolerance_reaches_rebuilt_configs(self):
        import json
        from dataclasses import replace

        from repro.core import ConfigClass, Configuration
        from repro.geometry import DEFAULT_TOLERANCE
        from repro.sim import RoundRecord, Trace, TraceMeta

        tol = replace(DEFAULT_TOLERANCE, eps_dist=0.5)
        pts = [Point(0.0, 0.0), Point(2.0, 0.0), Point(4.0, 0.0)]
        config = Configuration(pts, tol)
        record = RoundRecord(
            round_index=0,
            config_before=config,
            config_class=ConfigClass.ASYMMETRIC,
            active=(0, 1, 2),
            crashed_now=(),
            destinations={},
            config_after=config,
            moved=(),
        )
        meta = TraceMeta.for_run(
            scenario=None, seed=0, engine_seed=0, tol=tol
        )
        trace = Trace(records=[record], meta=meta)

        restored = Trace.from_json(trace.to_json())
        assert restored.tol() == tol
        rebuilt = restored.records[0].config_before
        assert rebuilt.tol == tol
        # Observable difference: a probe 0.3 away locates inside the
        # recorded quantum but not inside the default one.
        assert rebuilt.locate(Point(0.3, 0.0)) is not None

        # Pre-fix behaviour: strip the tolerance from the meta block and
        # the same archive quantizes space differently on load.
        data = json.loads(trace.to_json())
        data["meta"]["tolerance"] = None
        degraded = Trace.from_json(json.dumps(data))
        degraded_config = degraded.records[0].config_before
        assert degraded_config.tol == DEFAULT_TOLERANCE
        assert degraded_config.locate(Point(0.3, 0.0)) is None


class TestWorkerBackendPinning:
    """The process-pool initializer pinned the backend active at *pool
    creation*; a backend switch between batches (the differential
    checker does exactly that) left long-lived workers computing on the
    stale backend, and the choice was never exported to REPRO_BACKEND so
    grandchild processes resolved the wrong default too.  parallel_map
    now re-pins state + environment around every worker-side call."""

    def test_stale_pool_workers_follow_backend_switch(self):
        pytest.importorskip("numpy")
        from repro.experiments.runner import executor, parallel_map
        from repro.geometry import kernels

        original = kernels.get_backend()
        try:
            kernels.set_backend("python")
            with executor(2) as pool:
                first = parallel_map(
                    _observe_worker_backend, [0, 1], pool=pool
                )
                assert all(b == "python" for b, _ in first)
                kernels.set_backend("numpy")  # pool already exists
                second = parallel_map(
                    _observe_worker_backend, [0, 1], pool=pool
                )
                assert all(b == "numpy" for b, _ in second)
                # Exported for grandchildren, not just process state.
                assert all(env == "numpy" for _, env in second)
        finally:
            kernels.set_backend(original)


class TestNumpyFallbackIsLoudAndNarrow:
    """The numpy import guard caught every Exception, so a *broken*
    NumPy install (SystemError, bad ABI) masqueraded as 'not installed'
    and the sweep silently computed on the pure-Python backend.  The
    guard now catches only ImportError, and the numpy->python
    degradation warns once instead of never."""

    def test_missing_numpy_warns_once_and_degrades(self, monkeypatch):
        import sys
        import warnings

        from repro.geometry import kernels

        original = kernels.get_backend()
        monkeypatch.setattr(kernels, "_np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        monkeypatch.setattr(kernels, "_fallback_warned", False)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kernels.set_backend("numpy")
                assert kernels.get_backend() == "python"
                kernels.set_backend("numpy")  # second request: no repeat
            runtime = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]
            assert len(runtime) == 1
            assert "falling back" in str(runtime[0].message)
        finally:
            monkeypatch.undo()
            kernels.set_backend(original)

    def test_import_guard_is_importerror_only(self):
        import ast
        import inspect

        from repro.geometry import kernels

        tree = ast.parse(inspect.getsource(kernels))
        guards = [
            handler
            for node in ast.walk(tree)
            if isinstance(node, ast.Try)
            for handler in node.handlers
        ]
        numpy_guards = [
            h
            for h in guards
            if isinstance(h.type, ast.Name) and h.type.id == "ImportError"
        ]
        assert numpy_guards, "numpy import must be guarded by ImportError"
        assert not any(
            isinstance(h.type, ast.Name) and h.type.id == "Exception"
            for h in guards
        ), "a bare `except Exception` import guard hides broken installs"


class TestComponentRngDecoupling:
    """All stochastic components (crash adversary, scheduler, movement,
    sensor noise) drew from ONE shared engine RNG, so the crash schedule
    changed whenever the movement model consumed a different number of
    draws — comparing 'same faults, different movement' compared
    different fault patterns.  Each component now gets its own
    deterministic substream derived from the engine seed."""

    @staticmethod
    def _crash_events(movement, seed=11):
        from repro.sim import RigidMovement  # noqa: F401 (doc import)

        sim = Simulation(
            WaitFreeGather(),
            generate("random", 7, 4),
            scheduler=RandomSubset(0.5),
            crash_adversary=RandomCrashes(f=3, rate=0.25),
            movement=movement,
            seed=seed,
            max_rounds=500,
            record_trace=True,
        )
        result = sim.run()
        events = [
            (r.round_index, r.crashed_now)
            for r in result.trace
            if r.crashed_now
        ]
        return events, result.rounds

    def test_crash_schedule_independent_of_movement_model(self):
        from repro.sim import RigidMovement

        events_rigid, rounds_rigid = self._crash_events(RigidMovement())
        events_stop, rounds_stop = self._crash_events(RandomStop(0.05))
        # The runs end at different rounds (movement affects progress),
        # but over the rounds both executions lived through, the crash
        # adversary must have made identical decisions.
        horizon = min(rounds_rigid, rounds_stop)
        prefix_rigid = [e for e in events_rigid if e[0] < horizon]
        prefix_stop = [e for e in events_stop if e[0] < horizon]
        assert prefix_rigid == prefix_stop

    def test_component_streams_are_deterministic_and_distinct(self):
        import random

        from repro.sim.engine import component_rng

        a = component_rng(5, "crash")
        b = component_rng(5, "crash")
        assert [a.random() for _ in range(4)] == [
            b.random() for _ in range(4)
        ]
        crash = component_rng(5, "crash").random()
        sched = component_rng(5, "sched").random()
        move = component_rng(5, "move").random()
        assert len({crash, sched, move}) == 3
        # Stable construction, not hash()-of-the-moment: string seeding
        # goes through SHA-512, immune to PYTHONHASHSEED.
        assert (
            component_rng(5, "crash").random()
            == random.Random("repro:5:crash").random()
        )


class TestNoisyObserverBivalentRefusal:
    """A sensor-noise observer can transiently see a bivalent-looking
    blob; the engine originally treated the algorithm's refusal as
    global impossibility and aborted perfectly solvable runs."""

    def test_noisy_run_survives_transient_bivalent_views(self):
        from repro.algorithms import WaitFreeGather
        from repro.sim import RandomSubset, Simulation
        from repro.workloads import generate

        result = Simulation(
            WaitFreeGather(),
            generate("near-bivalent", 8, 2),
            scheduler=RandomSubset(0.6),
            sensor_noise=0.05,
            seed=4,
            max_rounds=5_000,
        ).run()
        assert result.gathered, result.verdict
