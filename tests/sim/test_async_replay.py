"""Replay for the ASYNC (CORDA) engine.

The ATOM replay contract (bit-identical re-execution from the embedded
scenario) extends to the tick engine: ``Scenario.engine`` selects the
execution model, ``TraceMeta.engine`` records it, and
``build_simulation`` dispatches on it — so an archived ASYNC trace
replays through exactly the code path that recorded it.
"""

import pytest

from repro.experiments.runner import Scenario, build_simulation, run_scenario
from repro.sim import PhasedActivation, Trace
from repro.sim.replay import (
    compare_traces,
    load_trace,
    replay_trace,
    save_trace,
)
from repro.sim.trace import TraceMeta

ASYNC_SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=2,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
    engine="async",
)


def recorded_trace(scenario=ASYNC_SMALL, seed=3) -> Trace:
    result = run_scenario(scenario, seed, record_trace=True)
    assert result.trace is not None and result.trace.meta is not None
    return result.trace


class TestEngineDispatch:
    def test_async_scenario_builds_async_engine(self):
        sim = build_simulation(ASYNC_SMALL, 3)
        assert isinstance(sim.activation, PhasedActivation)
        assert sim.max_rounds == ASYNC_SMALL.max_rounds
        assert sim.scheduler.bound == 64

    def test_unknown_engine_rejected(self):
        # Refused when the scenario is built, before any engine exists.
        with pytest.raises(ValueError, match="warp"):
            Scenario(workload="random", n=4, engine="warp")

    def test_engine_field_round_trips_through_scenario_dict(self):
        assert Scenario.from_dict(ASYNC_SMALL.to_dict()) == ASYNC_SMALL

    def test_meta_engine_defaults_to_atom_for_old_archives(self):
        meta = TraceMeta.from_dict(
            {
                "scenario": None,
                "seed": None,
                "engine_seed": 1,
                "backend": "python",
                "package_version": "1.0.0",
                "tolerance": None,
            }
        )
        assert meta.engine == "atom"


class TestAsyncTraceRecording:
    def test_trace_records_every_tick_with_async_meta(self):
        result = run_scenario(ASYNC_SMALL, 3, record_trace=True)
        assert result.trace.meta.engine == "async"
        assert Scenario.from_dict(result.trace.meta.scenario) == ASYNC_SMALL
        assert len(result.trace) == result.rounds

    def test_trace_json_round_trips_exactly(self):
        trace = recorded_trace()
        restored = Trace.from_json(trace.to_json())
        assert restored.meta == trace.meta
        assert restored.meta.engine == "async"
        assert compare_traces(trace, restored) is None

    def test_no_trace_without_record_flag(self):
        result = run_scenario(ASYNC_SMALL, 3)
        assert result.trace is None


class TestAsyncReplay:
    def test_replay_is_bit_identical(self):
        trace = recorded_trace()
        report = replay_trace(trace)
        assert report.ok, report.describe()
        assert report.rounds_compared == len(trace)

    def test_saved_trace_replays_from_disk(self, tmp_path):
        path = str(tmp_path / "async.json")
        save_trace(recorded_trace(), path)
        trace = load_trace(path)
        assert trace.meta.engine == "async"
        report = replay_trace(trace, path=path)
        assert report.ok, report.describe()

