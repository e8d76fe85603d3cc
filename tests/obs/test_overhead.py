"""Zero-overhead contract: disabled observability allocates nothing.

The engines guard event construction on one attribute read; this
regression test proves the guard by counting ``RoundEvent.from_record``
invocations — with observability off, the round loop must never build an
event object, in either engine.  The same contract extends to span
tracing: a disabled process must never construct a ``Span`` object.
"""

from repro import obs
from repro.experiments.runner import Scenario, run_scenario
from repro.obs.events import RoundEvent
from repro.obs.spans import Span

SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)
ASYNC_SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
    engine="async",
)
BATCHED_SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
    engine="batched",
)


def _count_event_builds(monkeypatch):
    calls = {"n": 0}
    original = RoundEvent.from_record.__func__

    def counting(cls, record, engine="atom"):
        calls["n"] += 1
        return original(cls, record, engine)

    monkeypatch.setattr(RoundEvent, "from_record", classmethod(counting))
    return calls


def _count_span_builds(monkeypatch):
    calls = {"n": 0}
    original = Span.__init__

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting)
    return calls


class TestNoAllocationWhenDisabled:
    def test_atom_round_loop_builds_no_events(self, monkeypatch):
        calls = _count_event_builds(monkeypatch)
        result = run_scenario(SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0

    def test_async_tick_loop_builds_no_events_or_records(self, monkeypatch):
        calls = _count_event_builds(monkeypatch)
        result = run_scenario(ASYNC_SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0
        # Without record_trace the async engine must not retain records
        # either — the recording branch is the same guarded path.
        assert result.trace is None

    def test_atom_round_loop_builds_no_spans(self, monkeypatch):
        calls = _count_span_builds(monkeypatch)
        result = run_scenario(SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0

    def test_async_tick_loop_builds_no_spans(self, monkeypatch):
        calls = _count_span_builds(monkeypatch)
        result = run_scenario(ASYNC_SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0

    def test_enabled_loop_builds_spans(self, monkeypatch):
        calls = _count_span_builds(monkeypatch)
        obs.enable()
        result = run_scenario(SMALL, 3)
        # One run span, one per round, and three phase spans per round.
        assert calls["n"] == 1 + 4 * result.rounds

    def test_spans_vetoed_but_obs_on_builds_no_spans(self, monkeypatch):
        calls = _count_span_builds(monkeypatch)
        monkeypatch.setattr(obs.tracer, "active", False)
        obs.enable()
        result = run_scenario(SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0

    def test_enabled_loop_builds_one_event_per_round(self, monkeypatch):
        calls = _count_event_builds(monkeypatch)
        obs.enable()
        result = run_scenario(SMALL, 3)
        assert calls["n"] == result.rounds

    def test_enabled_async_loop_builds_one_event_per_tick(self, monkeypatch):
        calls = _count_event_builds(monkeypatch)
        obs.enable()
        result = run_scenario(ASYNC_SMALL, 3)
        assert calls["n"] == result.rounds


class TestBatchedEngineOverhead:
    """The batched round loop honors the same zero-overhead contract.

    Its sims run the scalar engine's round, so when enabled they emit
    the same per-round :class:`RoundEvent` records as the scalar engine.
    """

    def _numpy_or_skip(self):
        import pytest

        from repro.geometry import kernels

        if "numpy" not in kernels.available_backends():
            pytest.skip("NumPy not importable in this environment")

    def test_disabled_builds_no_events(self, monkeypatch):
        self._numpy_or_skip()
        calls = _count_event_builds(monkeypatch)
        result = run_scenario(BATCHED_SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0

    def test_disabled_builds_no_spans(self, monkeypatch):
        self._numpy_or_skip()
        calls = _count_span_builds(monkeypatch)
        result = run_scenario(BATCHED_SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0

    def test_enabled_builds_spans_and_one_event_per_round(self, monkeypatch):
        self._numpy_or_skip()
        events = _count_event_builds(monkeypatch)
        spans = _count_span_builds(monkeypatch)
        obs.enable()
        result = run_scenario(BATCHED_SMALL, 3)
        assert result.rounds > 0
        assert events["n"] == result.rounds
        # One batch_run span, one batch_round per lockstep round (the
        # last one only retires the sim), and the scalar round span with
        # its three phase spans per sim-round.
        assert spans["n"] == 1 + (result.rounds + 1) + 4 * result.rounds

    def test_spans_vetoed_but_obs_on_builds_no_spans(self, monkeypatch):
        self._numpy_or_skip()
        calls = _count_span_builds(monkeypatch)
        monkeypatch.setattr(obs.tracer, "active", False)
        obs.enable()
        result = run_scenario(BATCHED_SMALL, 3)
        assert result.rounds > 0
        assert calls["n"] == 0
