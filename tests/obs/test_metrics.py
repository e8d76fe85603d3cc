"""Counters, stats, kernel timings, hooks, and the process-wide toggle."""

import os

import pytest

from repro import obs
from repro.geometry import kernels
from repro.obs.metrics import Metrics, Stat

needs_numpy = pytest.mark.usefixtures("numpy")


class TestStat:
    def test_running_aggregate(self):
        stat = Stat()
        for value in (2.0, 4.0, 9.0):
            stat.add(value)
        assert stat.count == 3
        assert stat.total == 15.0
        assert stat.mean == 5.0
        assert stat.min == 2.0
        assert stat.max == 9.0

    def test_empty_stat_serializes_without_infinities(self):
        payload = Stat().to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None


class TestMetricsRegistry:
    def test_counters_and_stats(self):
        registry = Metrics()
        registry.inc("a")
        registry.inc("a", 2)
        registry.observe("latency", 0.5)
        registry.observe("latency", 1.5)
        assert registry.counter("a") == 3
        assert registry.counter("missing") == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 3
        assert snapshot["stats"]["latency"]["mean"] == 1.0

    def test_reset_drops_everything(self):
        registry = Metrics()
        registry.inc("a")
        registry.observe("s", 1.0)
        registry.observe_hist("h", 0.1)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "stats": {},
            "hists": {},
        }


class TestToggle:
    def test_enable_exports_env_for_workers(self):
        obs.enable()
        assert obs.is_enabled()
        assert os.environ.get("REPRO_OBS") == "1"
        obs.disable()
        assert not obs.is_enabled()
        assert "REPRO_OBS" not in os.environ

    def test_observability_context_restores_disabled(self):
        assert not obs.is_enabled()
        with obs.observability():
            assert obs.is_enabled()
        assert not obs.is_enabled()

    def test_observability_context_preserves_enabled(self):
        obs.enable()
        with obs.observability():
            assert obs.is_enabled()
        assert obs.is_enabled()


class TestKernelInstrumentation:
    @needs_numpy
    def test_timed_kernels_record_when_enabled(self):
        coords = [(0.0, 0.0), (3.0, 4.0)]
        obs.enable()
        assert kernels.distance_sums(coords, coords) == [5.0, 5.0]
        stat = obs.metrics.stats()["geometry.kernels.distance_sums"]
        assert stat.count == 1
        assert stat.total >= 0.0
        assert obs.metrics.hists()["kernel_seconds"].count == 1

    @needs_numpy
    def test_disabled_kernels_record_nothing(self):
        coords = [(0.0, 0.0), (3.0, 4.0)]
        assert kernels.distance_sums(coords, coords) == [5.0, 5.0]
        assert obs.metrics.snapshot() == {
            "counters": {},
            "stats": {},
            "hists": {},
        }

    @needs_numpy
    def test_kernel_call_is_a_leaf_span_of_the_open_phase(self):
        obs.enable()
        phase = obs.tracer.begin("compute", "phase")
        coords = [(0.0, 0.0), (1.0, 0.0)]
        kernels.distance_sums(coords, coords)
        obs.tracer.end(phase)
        leaves = [s for s in obs.tracer.tail() if s.kind == "kernel"]
        assert [s.name for s in leaves] == ["distance_sums"]
        assert leaves[0].parent_id == phase.span_id
        assert leaves[0].attrs is None


class TestHooks:
    def test_remove_hook(self):
        seen = []
        hook = obs.on_round(seen.append)
        obs.emit_round("event")
        obs.remove_hook(hook)
        obs.emit_round("event")
        assert seen == ["event"]
