"""Span tracer: hierarchy, ring buffer, sinks, JSONL I/O, Chrome export."""

import json

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_scenario
from repro.obs.sink import JsonlStream, read_stream
from repro.obs.spans import SPANS_SCHEMA, Tracer, chrome_trace_events
from repro.resilience import TraceFormatError


class TestTracer:
    def test_parent_child_nesting(self):
        tracer = Tracer()
        run = tracer.begin("run", "run")
        round_ = tracer.begin("round", "round")
        phase = tracer.begin("look", "phase")
        assert run.parent_id is None
        assert round_.parent_id == run.span_id
        assert phase.parent_id == round_.span_id
        tracer.end(phase)
        tracer.end(round_)
        tracer.end(run)
        # Completion order is leaf-first; ids are unique.
        tail = tracer.tail()
        assert [s.name for s in tail] == ["look", "round", "run"]
        assert len({s.span_id for s in tail}) == 3
        assert all(s.duration_ns >= 0 for s in tail)

    def test_end_unwinds_missed_children(self):
        # An engine exception path may skip a child's end(); ending the
        # parent must not corrupt the stack.
        tracer = Tracer()
        run = tracer.begin("run", "run")
        tracer.begin("round", "round")  # never ended
        tracer.end(run)
        after = tracer.begin("next", "run")
        assert after.parent_id is None

    def test_complete_attributes_to_open_span(self):
        tracer = Tracer()
        phase = tracer.begin("compute", "phase")
        leaf = tracer.complete("pairwise_diameter", "kernel", 100, 50)
        assert leaf.parent_id == phase.span_id
        assert leaf.duration_ns == 50
        tracer.end(phase)

    def test_tail_slices_by_seq(self):
        tracer = Tracer()
        tracer.end(tracer.begin("a", "phase"))
        mark = tracer.seq
        tracer.end(tracer.begin("b", "phase"))
        tracer.end(tracer.begin("c", "phase"))
        assert [s.name for s in tracer.tail(since_seq=mark)] == ["b", "c"]

    def test_tail_is_bounded(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.end(tracer.begin(f"s{i}", "phase"))
        assert [s.name for s in tracer.tail()] == ["s6", "s7", "s8", "s9"]

    def test_broken_sink_warned_once_and_removed(self):
        from repro import obs

        records = []
        obs.log_hub.add_sink(records.append)
        try:
            tracer = Tracer()
            seen = []

            def broken(span):
                raise RuntimeError("boom")

            tracer.add_sink(broken)
            tracer.add_sink(seen.append)
            tracer.end(tracer.begin("a", "phase"))
            complaints = [
                r for r in records if r["event"] == "span_sink.quarantined"
            ]
            assert len(complaints) == 1
            assert "boom" in complaints[0]["msg"]
            # Second emit: the offender is gone, the healthy sink still runs.
            tracer.end(tracer.begin("b", "phase"))
            assert [s.name for s in seen] == ["a", "b"]
            assert (
                len([r for r in records if r["event"] == "span_sink.quarantined"])
                == 1
            )
        finally:
            obs.log_hub.remove_sink(records.append)

    def test_reset_drops_everything_but_keeps_active(self):
        tracer = Tracer()
        tracer.active = True
        tracer.end(tracer.begin("a", "phase"))
        tracer.reset()
        assert tracer.tail() == []
        assert tracer.seq == 0
        assert tracer.active


class TestEngineSpans:
    SMALL = Scenario(
        workload="asymmetric",
        n=6,
        f=1,
        scheduler="round-robin",
        crashes="after-move",
        movement="rigid",
        max_rounds=2_000,
    )

    def test_atom_run_emits_full_hierarchy(self):
        obs.enable()
        result = run_scenario(self.SMALL, 3)
        spans = obs.tracer.tail()
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span.kind, []).append(span)
        assert len(by_kind["run"]) == 1
        assert len(by_kind["round"]) == result.rounds
        assert len(by_kind["phase"]) == 3 * result.rounds
        run_span = by_kind["run"][0]
        assert run_span.attrs["verdict"] == result.verdict
        assert run_span.attrs["rounds"] == result.rounds
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.parent_id)
        # Phase spans nest under rounds, rounds under the run.
        round_ids = {s.span_id for s in by_kind["round"]}
        assert all(s.parent_id in round_ids for s in by_kind["phase"])
        assert all(
            s.parent_id == run_span.span_id for s in by_kind["round"]
        )

    def test_async_run_emits_per_activation_phases(self):
        obs.enable()
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
        result = run_scenario(scenario, 3)
        spans = obs.tracer.tail()
        phases = [s for s in spans if s.kind == "phase"]
        assert phases
        # Every CORDA phase span is labelled with its robot.
        assert all("robot" in (s.attrs or {}) for s in phases)
        runs = [s for s in spans if s.kind == "run"]
        assert len(runs) == 1 and runs[0].attrs["engine"] == "async"
        assert result.rounds > 0

    def test_instrumentation_does_not_change_results(self):
        plain = run_scenario(self.SMALL, 7)
        obs.enable()
        traced = run_scenario(self.SMALL, 7)
        assert traced.verdict == plain.verdict
        assert traced.rounds == plain.rounds
        assert traced.final_positions == plain.final_positions


class TestSpansJsonl:
    def _write_stream(self, tmp_path, meta=None):
        tracer = Tracer()
        path = str(tmp_path / "run.spans.jsonl")
        sink = JsonlStream(path, SPANS_SCHEMA, meta=meta)
        tracer.add_sink(lambda span: sink.write(span.to_dict()))
        run = tracer.begin("run", "run", attrs={"seed": 1})
        tracer.end(tracer.begin("round", "round"))
        tracer.end(run)
        sink.close()
        return path

    def test_roundtrip(self, tmp_path):
        meta = {"scenario": {"workload": "random", "n": 4}, "seed": 1}
        path = self._write_stream(tmp_path, meta=meta)
        stream = read_stream(path)
        read_meta, spans = stream.meta, stream.records
        assert read_meta == meta
        assert [s["name"] for s in spans] == ["round", "run"]
        assert spans[0]["parent"] == spans[1]["id"]

    def test_foreign_file_raises_value_error(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_stream(str(path))

    def test_corrupt_line_raises_trace_format_error(self, tmp_path):
        path = self._write_stream(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 99, "truncat\n')
        with pytest.raises(TraceFormatError) as excinfo:
            read_stream(path)
        assert excinfo.value.line == 4

    def test_non_span_line_raises_trace_format_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": SPANS_SCHEMA, "meta": None})
            + "\n[1, 2, 3]\n"
        )
        with pytest.raises(TraceFormatError):
            read_stream(str(path))


class TestChromeExport:
    def test_complete_events_shape(self):
        spans = [
            {"id": 1, "parent": None, "name": "run", "kind": "run",
             "start_ns": 1_000, "dur_ns": 5_000},
            {"id": 2, "parent": 1, "name": "round", "kind": "round",
             "start_ns": 2_000, "dur_ns": 1_000, "attrs": {"round": 0}},
        ]
        events = chrome_trace_events(spans, pid=7, process_name="seed 1")
        meta_events = [e for e in events if e["ph"] == "M"]
        assert meta_events[0]["args"]["name"] == "seed 1"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        round_event = complete[1]
        assert round_event["ts"] == pytest.approx(2.0)
        assert round_event["dur"] == pytest.approx(1.0)
        assert round_event["pid"] == 7
        assert round_event["cat"] == "round"
        assert round_event["args"]["parent_id"] == 1
        assert round_event["args"]["round"] == 0
