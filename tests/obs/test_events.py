"""RoundEvent schema: JSONL round-trip and the join to trace meta."""

import json

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_scenario
from repro.geometry import DEFAULT_TOLERANCE
from repro.obs import OBS_SCHEMA, RoundEvent, read_stream, round_events
from repro.sim.trace import TraceMeta

#: Fully deterministic components: the run is bitwise identical
#: wherever it executes, so event streams recorded in different
#: processes are comparable.
SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=2,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)


def scenario_meta(scenario, seed):
    return TraceMeta.for_run(
        scenario=scenario.to_dict(),
        seed=seed,
        engine_seed=scenario.engine_seed(seed),
        tol=DEFAULT_TOLERANCE,
        engine=scenario.engine,
    ).to_dict()


class TestDictRoundTrip:
    def test_event_round_trips_exactly(self):
        event = RoundEvent(
            round_index=7,
            engine="atom",
            config_class="QR",
            support=5,
            max_multiplicity=2,
            spread=3.25,
            elected_target=(1.5, -2.25),
            target_is_safe=True,
            active=(0, 1, 4),
            crashed=(2,),
            moved=(0, 4),
        )
        assert RoundEvent.from_dict(event.to_dict()) == event

    def test_none_fields_survive(self):
        event = RoundEvent(
            round_index=0,
            engine="async",
            config_class="M",
            support=3,
            max_multiplicity=4,
            spread=0.0,
            elected_target=None,
            target_is_safe=None,
            active=(),
            crashed=(),
            moved=(),
        )
        restored = RoundEvent.from_dict(event.to_dict())
        assert restored == event
        assert restored.elected_target is None
        assert restored.target_is_safe is None


class TestJsonlStream:
    def test_stream_round_trips_and_joins_to_trace_meta(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        collected = []
        obs.on_round(collected.append)
        with obs.observability(jsonl=path, meta=scenario_meta(SMALL, 3)):
            result = run_scenario(SMALL, 3, record_trace=True)

        stream = read_stream(path)
        meta = stream.meta
        events, run_ends = round_events(stream)
        # One event per recorded round, bit-exact through JSON.
        assert len(events) == len(result.trace) == len(collected)
        assert events == collected
        # The header meta is the trace's meta: the streams join on
        # seed and scenario.
        trace_meta = result.trace.meta
        assert meta["seed"] == trace_meta.seed == 3
        assert Scenario.from_dict(meta["scenario"]) == SMALL
        assert meta["engine"] == trace_meta.engine == "atom"
        # The run-end summary closes the stream.
        assert len(run_ends) == 1
        assert run_ends[0]["verdict"] == result.verdict
        assert run_ends[0]["rounds"] == result.rounds

    def test_events_describe_their_records(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with obs.observability(jsonl=path):
            result = run_scenario(SMALL, 3, record_trace=True)
        events, _ = round_events(read_stream(path))
        for event, record in zip(events, result.trace.records):
            assert event.round_index == record.round_index
            assert event.config_class == record.config_class.value
            assert event.crashed == record.crashed_now
            assert event.moved == record.moved
            assert event.support == len(record.config_after.support)
            assert event.spread >= 0.0

    def test_header_is_first_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with obs.observability(jsonl=path):
            run_scenario(SMALL, 3)
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["format"] == OBS_SCHEMA

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-events.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_stream(str(path))

    def test_async_engine_events_tagged(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=1,
            scheduler="round-robin",
            crashes="after-move",
            movement="rigid",
            max_rounds=2_000,
            engine="async",
        )
        with obs.observability(jsonl=path, meta=scenario_meta(scenario, 3)):
            result = run_scenario(scenario, 3)
        stream = read_stream(path)
        events, run_ends = round_events(stream)
        assert stream.meta["engine"] == "async"
        assert events and all(e.engine == "async" for e in events)
        assert len(events) == result.rounds
        assert run_ends[0]["engine"] == "async"
