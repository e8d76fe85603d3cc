"""Unit tests for execution traces."""

from repro.core import ConfigClass, Configuration
from repro.geometry import Point
from repro.sim import RoundRecord, Trace


def _record(i, cls=ConfigClass.MULTIPLE, moved=(0,), crashed=()):
    config = Configuration([Point(0, 0), Point(1, 1)])
    return RoundRecord(
        round_index=i,
        config_before=config,
        config_class=cls,
        active=(0, 1),
        crashed_now=tuple(crashed),
        destinations={},
        config_after=config,
        moved=tuple(moved),
    )


class TestTrace:
    def test_append_and_len(self):
        t = Trace()
        t.append(_record(0))
        t.append(_record(1))
        assert len(t) == 2

    def test_class_sequence(self):
        t = Trace()
        t.append(_record(0, ConfigClass.ASYMMETRIC))
        t.append(_record(1, ConfigClass.MULTIPLE))
        t.append(_record(2, ConfigClass.MULTIPLE))
        assert t.class_sequence() == [
            ConfigClass.ASYMMETRIC,
            ConfigClass.MULTIPLE,
            ConfigClass.MULTIPLE,
        ]

    def test_render_truncation(self):
        t = Trace()
        for i in range(10):
            t.append(_record(i))
        rendered = t.render(limit=3)
        assert "(7 more rounds)" in rendered

    def test_render_no_limit(self):
        t = Trace()
        for i in range(4):
            t.append(_record(i))
        assert "more rounds" not in t.render(limit=None)


class TestRoundRecord:
    def test_summary_fields(self):
        s = _record(3, moved=(1,), crashed=(0,)).summary()
        assert "r   3" in s
        assert "[M]" in s
        assert "moved=1" in s
        assert "crashed=0" in s

    def test_summary_empty_markers(self):
        s = _record(0, moved=(), crashed=()).summary()
        assert "moved=-" in s
        assert "crashed=-" in s


class TestJsonRoundTrip:
    def _real_trace(self):
        from repro.algorithms import WaitFreeGather
        from repro.sim import CrashAtRounds, RoundRobin, Simulation
        from repro.workloads import generate

        sim = Simulation(
            WaitFreeGather(),
            generate("random", 6, 1),
            scheduler=RoundRobin(),
            crash_adversary=CrashAtRounds({2: 1}),
            seed=3,
            record_trace=True,
        )
        return sim.run().trace

    def test_round_trip_preserves_everything(self):
        trace = self._real_trace()
        restored = Trace.from_json(trace.to_json())
        assert len(restored) == len(trace)
        for a, b in zip(trace, restored):
            assert a.round_index == b.round_index
            assert a.config_class is b.config_class
            assert a.active == b.active
            assert a.crashed_now == b.crashed_now
            assert a.moved == b.moved
            assert list(a.config_before.points) == list(b.config_before.points)
            assert list(a.config_after.points) == list(b.config_after.points)
            assert a.destinations == b.destinations

    def test_bad_payload_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            Trace.from_json('{"something": "else"}')
        with pytest.raises(ValueError):
            Trace.from_json("[1, 2, 3]")
