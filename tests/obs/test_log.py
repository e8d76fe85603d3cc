"""Structured logging hub: levels, warn-once, rate limit, sinks, I/O."""

import json
import logging

import pytest

from repro import obs
from repro.obs.log import (
    LOG_SCHEMA,
    LogHub,
    get_logger,
    hub,
    summarize_log,
)
from repro.obs.sink import JsonlStream, read_stream


@pytest.fixture()
def records():
    collected = []
    hub.add_sink(collected.append)
    yield collected
    hub.remove_sink(collected.append)


class TestLeveledRecords:
    def test_record_shape(self, records):
        log = get_logger("repro.test")
        log.info("unit.event", "something happened", detail=7)
        assert len(records) == 1
        record = records[0]
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert record["event"] == "unit.event"
        assert record["msg"] == "something happened"
        assert record["fields"] == {"detail": 7}
        assert isinstance(record["ts"], float)

    def test_all_levels_emit(self, records):
        log = get_logger("repro.test")
        log.debug("e.d", "d")
        log.info("e.i", "i")
        log.warning("e.w", "w")
        log.error("e.e", "e")
        assert [r["level"] for r in records] == [
            "debug", "info", "warning", "error",
        ]

    def test_records_mirror_to_stdlib_logging(self, records, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.test"):
            get_logger("repro.test").warning("unit.mirror", "mirrored text")
        assert any(
            "unit.mirror: mirrored text" in r.getMessage()
            for r in caplog.records
        )

    def test_get_logger_is_process_wide(self):
        assert get_logger("repro.same") is get_logger("repro.same")


class TestWarnOnce:
    def test_exactly_one_record_per_key(self, records):
        log = get_logger("repro.test")
        assert log.warn_once("k1", "unit.once", "first sighting") is True
        assert log.warn_once("k1", "unit.once", "first sighting") is False
        assert log.warn_once("k1", "unit.once", "first sighting") is False
        emitted = [r for r in records if r["event"] == "unit.once"]
        assert len(emitted) == 1
        assert emitted[0]["msg"].endswith("(warning once)")
        assert emitted[0]["fields"]["warn_once_key"] == "k1"

    def test_distinct_keys_emit_separately(self, records):
        log = get_logger("repro.test")
        log.warn_once("ka", "unit.once", "a")
        log.warn_once("kb", "unit.once", "b")
        assert len([r for r in records if r["event"] == "unit.once"]) == 2

    def test_repeats_are_counted(self, records):
        log = get_logger("repro.test")
        for _ in range(5):
            log.warn_once("counted", "unit.once", "again")
        assert hub.warned_keys()["counted"] == 5


class TestRateLimit:
    def test_flood_is_capped_and_announced(self):
        local = LogHub()
        local.mirror_stdlib = False
        local.rate_burst = 10
        local.rate_interval_s = 0.05
        seen = []
        local.add_sink(seen.append)
        for i in range(100):
            local.emit("repro.hot", "info", "hot.event", f"n{i}", {})
        assert len(seen) == 10  # budget enforced within the window
        import time
        time.sleep(0.06)
        local.emit("repro.hot", "info", "hot.event", "after window", {})
        suppressed = [r for r in seen if r["event"] == "log.suppressed"]
        assert len(suppressed) == 1
        assert suppressed[0]["fields"]["dropped"] == 90
        assert suppressed[0]["fields"]["suppressed_event"] == "hot.event"
        # The post-window record itself still flows.
        assert seen[-1]["msg"] == "after window"

    def test_exempt_events_are_never_limited(self):
        local = LogHub()
        local.mirror_stdlib = False
        local.rate_burst = 5
        local.rate_exempt.add("access.event")
        seen = []
        local.add_sink(seen.append)
        for i in range(50):
            local.emit("repro.acc", "info", "access.event", f"n{i}", {})
        assert len(seen) == 50  # complete by contract

    def test_limit_is_per_logger_event_key(self):
        local = LogHub()
        local.mirror_stdlib = False
        local.rate_burst = 2
        seen = []
        local.add_sink(seen.append)
        for _ in range(5):
            local.emit("repro.a", "info", "ev", "a", {})
            local.emit("repro.b", "info", "ev", "b", {})
        assert len([r for r in seen if r["logger"] == "repro.a"]) == 2
        assert len([r for r in seen if r["logger"] == "repro.b"]) == 2


class TestSinkQuarantine:
    def test_broken_sink_disabled_after_one_failure(self, records):
        calls = []

        def broken(record):
            calls.append(record)
            raise RuntimeError("sink boom")

        hub.add_sink(broken)
        try:
            log = get_logger("repro.test")
            log.info("unit.q", "one")
            log.info("unit.q", "two")
        finally:
            hub.remove_sink(broken)
        assert len(calls) == 1  # never called again after the raise
        # The healthy sink saw both records.
        assert [r["msg"] for r in records if r["event"] == "unit.q"] == [
            "one", "two",
        ]


class TestJsonlRoundTrip:
    def test_header_and_records(self, tmp_path):
        path = str(tmp_path / "run.log.jsonl")
        sink = JsonlStream(path, LOG_SCHEMA, meta={"source": "unit"})
        hub.add_sink(sink.write)
        try:
            log = get_logger("repro.test")
            log.info("unit.rt", "hello", n=1)
            log.warning("unit.rt2", "watch out")
        finally:
            hub.remove_sink(sink.write)
            sink.close()
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["format"] == LOG_SCHEMA
        stream = read_stream(path)
        meta, log_records = stream.meta, stream.records
        assert meta == {"source": "unit"}
        assert [r["event"] for r in log_records] == ["unit.rt", "unit.rt2"]
        assert log_records[0]["fields"] == {"n": 1}

    def test_file_is_tailable_before_close(self, tmp_path):
        path = str(tmp_path / "live.log.jsonl")
        sink = JsonlStream(path, LOG_SCHEMA)
        hub.add_sink(sink.write)
        try:
            get_logger("repro.test").info("unit.live", "flushed")
            # No close: the record must already be on disk.
            stream = read_stream(path)
            meta, log_records = stream.meta, stream.records
        finally:
            hub.remove_sink(sink.write)
            sink.close()
        assert [r["event"] for r in log_records] == ["unit.live"]

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "cut.log.jsonl")
        sink = JsonlStream(path, LOG_SCHEMA)
        hub.add_sink(sink.write)
        try:
            get_logger("repro.test").info("unit.cut", "whole")
        finally:
            hub.remove_sink(sink.write)
            sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 1, "level": "info", "trunc')
        log_records = read_stream(path).records
        assert [r["event"] for r in log_records] == ["unit.cut"]

    def test_interior_bad_line_is_reported_not_truncated(self, tmp_path,
                                                         capsys):
        # Only a torn *final* line is forgiven: a bad line inside the
        # log must not silently drop the records after it.
        from repro.cli import main

        records = [
            {"ts": 1.0, "level": "info", "logger": "repro.test",
             "event": f"unit.r{i}", "msg": "m"}
            for i in range(3)
        ]
        lines = [json.dumps({"format": LOG_SCHEMA, "meta": {}})]
        lines.append(json.dumps(records[0]))
        lines.append('{"ts": 2, "level": "info", "trunc')
        lines.extend(json.dumps(r) for r in records[1:])
        path = tmp_path / "bad.log.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code = main(["stats", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 3" in captured.err
        assert "structured log" not in captured.out

    def test_foreign_file_raises_value_error(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_stream(str(path))


class TestSummarize:
    def test_counts_levels_events_and_warn_once(self):
        rows = [
            {"level": "info", "event": "a"},
            {"level": "info", "event": "a"},
            {"level": "warning", "event": "b",
             "fields": {"warn_once_key": "kb"}},
            {"level": "error", "event": "c"},
        ]
        summary = summarize_log(rows)
        assert summary["levels"] == {"info": 2, "warning": 1, "error": 1}
        assert summary["events"] == {"a": 2, "b": 1, "c": 1}
        assert summary["warn_once"] == {"kb": 1}


class TestPackageSurface:
    def test_reexported_from_obs(self):
        assert obs.log_hub is hub
        assert obs.LOG_SCHEMA == LOG_SCHEMA
        assert obs.get_logger is get_logger
