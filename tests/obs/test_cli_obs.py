"""CLI surface of the telemetry layer: spans files, sweep metrics,
trace export, and the stats edge cases."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import (
    OBS_SCHEMA,
    SWEEP_METRICS_SCHEMA,
    read_stream,
)


CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")


def _assert_chrome_shape(path):
    """The structural contract Perfetto needs to open the file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert isinstance(document["traceEvents"], list)
    assert document["traceEvents"]
    for event in document["traceEvents"]:
        assert event["ph"] in ("X", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert isinstance(event["name"], str)
    return document


class TestSimulateSpans:
    def test_spans_jsonl_written_and_readable(self, tmp_path, capsys):
        spans_path = str(tmp_path / "run.spans.jsonl")
        code = main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--spans-jsonl", spans_path,
        ])
        assert code == 0
        assert "span trace saved to" in capsys.readouterr().out
        stream = read_stream(spans_path)
        meta, spans = stream.meta, stream.records
        assert meta["scenario"]["workload"] == "asymmetric"
        kinds = {s["kind"] for s in spans}
        assert {"run", "round", "phase"} <= kinds


class TestSweepMetrics:
    @pytest.mark.parametrize(
        "workers", [[], ["--workers", "2"]], ids=["serial", "workers-2"]
    )
    def test_obs_sweep_writes_metrics_next_to_journal(
        self, tmp_path, capsys, workers
    ):
        # Pooled, the per-seed payloads come home from the workers.
        journal = str(tmp_path / "sweep.journal.jsonl")
        code = main([
            "sweep", "--workload", "asymmetric", "--n", "6",
            "--seeds", "3", "--obs", "--journal", journal, *workers,
        ])
        assert code == 0
        metrics_path = str(tmp_path / "sweep-metrics.json")
        assert f"metrics    : {metrics_path}" in capsys.readouterr().out
        with open(metrics_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == SWEEP_METRICS_SCHEMA
        assert document["seeds"]["total"] == 3
        assert document["seeds"]["done"] == 3
        assert document["rounds"]["total"] == sum(
            document["rounds"]["by_class"].values()
        )
        assert document["span_count"] > 0

    @pytest.mark.parametrize(
        "workers", [[], ["--workers", "2"]], ids=["serial", "workers-2"]
    )
    def test_batched_sweep_ships_its_telemetry(self, tmp_path, workers):
        # Each batched chunk is one capture window; its delta rides on
        # the chunk's first result, so every fresh seed counts as done.
        journal = str(tmp_path / "sweep.journal.jsonl")
        metrics_path = str(tmp_path / "sweep-metrics.json")
        argv = [
            "sweep", "--workload", "random", "--n", "16", "--f", "4",
            "--seeds", "32", "--engine", "batched", "--obs",
            "--journal", journal, *workers,
        ]
        assert main(argv) == 0
        with open(metrics_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["seeds"]["done"] == 32
        assert document["seeds"]["resumed"] == 0
        by_class = document["rounds"]["by_class"]
        assert by_class
        assert sum(by_class.values()) == document["rounds"]["total"]
        assert document["counters"]["runner.runs"] == 32
        assert {
            f"geometry.kernels.{name}"
            for name in ("batched_max_ray_loads", "batched_polar_views",
                         "batched_weiszfeld", "distance_sums")
        } <= set(document["stats"])
        if workers:
            assert document["workers"]
            assert os.getpid() not in document["workers"]
        else:
            assert document["workers"] == [os.getpid()]

        # A resume onto the finished journal runs nothing: every seed
        # is journaled, so every seed counts as resumed.
        assert main(argv + ["--resume"]) == 0
        with open(metrics_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["seeds"]["done"] == 32
        assert document["seeds"]["resumed"] == 32
        assert document["workers"] == []

    def test_metrics_flag_picks_the_path(self, tmp_path):
        target = str(tmp_path / "elsewhere" / "m.json")
        os.makedirs(os.path.dirname(target))
        code = main([
            "sweep", "--workload", "asymmetric", "--n", "6",
            "--seeds", "2", "--metrics", target,
        ])
        assert code == 0
        with open(target, "r", encoding="utf-8") as handle:
            assert json.load(handle)["seeds"]["done"] == 2


class TestTraceExport:
    def _spans_file(self, tmp_path):
        path = str(tmp_path / "run.spans.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--spans-jsonl", path,
        ])
        return path

    def test_span_stream_export(self, tmp_path, capsys):
        spans_path = self._spans_file(tmp_path)
        out_path = str(tmp_path / "out.json")
        code = main(["trace-export", spans_path, "-o", out_path])
        assert code == 0
        assert "span stream" in capsys.readouterr().out
        document = _assert_chrome_shape(out_path)
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert all("span_id" in e["args"] for e in complete)
        assert {"run", "round", "phase"} <= {e["cat"] for e in complete}

    def test_default_output_path(self, tmp_path):
        spans_path = self._spans_file(tmp_path)
        assert main(["trace-export", spans_path]) == 0
        _assert_chrome_shape(
            os.path.splitext(spans_path)[0] + ".perfetto.json"
        )

    def test_event_stream_export(self, tmp_path, capsys):
        events_path = str(tmp_path / "run.obs.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", events_path,
        ])
        out_path = str(tmp_path / "out.json")
        assert main(["trace-export", events_path, "-o", out_path]) == 0
        assert "obs event stream" in capsys.readouterr().out
        _assert_chrome_shape(out_path)

    def test_trace_archive_export(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.trace.json")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--save-trace", trace_path,
        ])
        out_path = str(tmp_path / "out.json")
        assert main(["trace-export", trace_path, "-o", out_path]) == 0
        assert "trace archive" in capsys.readouterr().out
        _assert_chrome_shape(out_path)

    def test_event_stream_and_archive_export_the_same_rounds(self, tmp_path):
        # One run, recorded both ways: both go through RoundEvent, so
        # the synthetic timelines carry the same per-round args.
        events_path = str(tmp_path / "run.obs.jsonl")
        trace_path = str(tmp_path / "run.trace.json")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", events_path,
            "--save-trace", trace_path,
        ])
        rounds = []
        for path in (events_path, trace_path):
            out_path = path + ".perfetto.json"
            assert main(["trace-export", path, "-o", out_path]) == 0
            document = _assert_chrome_shape(out_path)
            rounds.append([
                e["args"] for e in document["traceEvents"] if e["ph"] == "X"
            ])
        assert rounds[0] and rounds[0] == rounds[1]
        assert set(rounds[0][0]) == {
            "round", "config_class", "support", "spread",
            "active", "crashed", "moved",
        }

    @pytest.mark.parametrize("name", sorted(os.listdir(CORPUS)))
    def test_committed_corpus_trace_exports(self, tmp_path, capsys, name):
        out_path = str(tmp_path / "corpus.perfetto.json")
        code = main([
            "trace-export", os.path.join(CORPUS, name), "-o", out_path,
        ])
        assert code == 0
        assert "trace archive" in capsys.readouterr().out
        document = _assert_chrome_shape(out_path)
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_corrupt_spans_file_exits_2(self, tmp_path, capsys):
        spans_path = self._spans_file(tmp_path)
        with open(spans_path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 1, "trunc\n')
        code = main(["trace-export", spans_path, "-o", str(tmp_path / "o")])
        assert code == 2
        assert "undecodable span line" in capsys.readouterr().err


class TestTraceExportMerge:
    def _spans_file(self, tmp_path, name, seed):
        path = str(tmp_path / name)
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", str(seed), "--spans-jsonl", path,
        ])
        return path

    def test_multiple_inputs_merge_with_distinct_pids(self, tmp_path,
                                                      capsys):
        first = self._spans_file(tmp_path, "a.spans.jsonl", 1)
        second = self._spans_file(tmp_path, "b.spans.jsonl", 2)
        out_path = str(tmp_path / "merged.json")
        code = main(["trace-export", first, second, "-o", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("span stream") == 2
        document = _assert_chrome_shape(out_path)
        pids = {e["pid"] for e in document["traceEvents"]}
        assert pids == {0, 1}

    def test_pid_flag_offsets_every_track_group(self, tmp_path):
        first = self._spans_file(tmp_path, "a.spans.jsonl", 1)
        second = self._spans_file(tmp_path, "b.spans.jsonl", 2)
        out_path = str(tmp_path / "merged.json")
        assert main([
            "trace-export", first, second, "--pid", "10", "-o", out_path,
        ]) == 0
        document = _assert_chrome_shape(out_path)
        assert {e["pid"] for e in document["traceEvents"]} == {10, 11}


class TestStatsOnLogFiles:
    def _log_file(self, tmp_path):
        from repro.obs.log import LOG_SCHEMA, get_logger, hub
        from repro.obs.sink import JsonlStream

        path = str(tmp_path / "daemon.log.jsonl")
        sink = JsonlStream(path, LOG_SCHEMA, meta={"source": "unit-test"})
        hub.add_sink(sink.write)
        try:
            log = get_logger("repro.unit")
            log.info("http.access", "request", status=200)
            log.info("http.access", "request", status=200)
            log.warn_once("pool.broken", "pool.worker_lost", "gone")
        finally:
            hub.remove_sink(sink.write)
            sink.close()
        return path

    def test_log_file_gets_level_event_tables(self, tmp_path, capsys):
        path = self._log_file(tmp_path)
        code = main(["stats", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "structured log, 3 records" in out
        assert "source=unit-test" in out
        assert "http.access" in out
        assert "pool.worker_lost" in out
        # The warn-once table names the key that fired.
        assert "pool.broken" in out

    def test_round_event_paths_still_work(self, tmp_path, capsys):
        # The log reader must not swallow the existing stats inputs.
        events_path = str(tmp_path / "run.obs.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", events_path,
        ])
        assert main(["stats", events_path]) == 0
        assert "obs event stream" in capsys.readouterr().out


class TestStatsEdgeCases:
    def test_spans_file_gets_redirected_in_one_line(self, tmp_path, capsys):
        spans_path = str(tmp_path / "run.spans.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--spans-jsonl", spans_path,
        ])
        code = main(["stats", spans_path])
        err = capsys.readouterr().err
        assert code == 2
        assert "repro-spans-v1 span stream" in err
        assert "trace-export" in err

    def test_empty_event_stream_reported_not_tabulated(self, tmp_path,
                                                       capsys):
        path = tmp_path / "empty.obs.jsonl"
        path.write_text(
            json.dumps({"format": OBS_SCHEMA, "meta": None}) + "\n"
        )
        code = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no round events recorded" in out
        assert "obs-disabled run" in out

    def test_corrupt_event_stream_blames_the_right_format(self, tmp_path,
                                                          capsys):
        path = tmp_path / "bad.obs.jsonl"
        path.write_text(
            json.dumps({"format": OBS_SCHEMA, "meta": None})
            + '\n{"round": 0, "trunc\n'
        )
        code = main(["stats", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDispatchOnHeaderTag:
    """Both commands read the header once and branch on its tag."""

    def _record(self, tmp_path, flag, name):
        path = str(tmp_path / name)
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", flag, path,
        ])
        return path

    def _one_line_error(self, capsys):
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        return err

    def test_stats_names_a_sweep_journal_tag(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.journal.jsonl")
        assert main([
            "sweep", "--workload", "asymmetric", "--n", "6",
            "--seeds", "2", "--journal", journal,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", journal]) == 2
        err = self._one_line_error(capsys)
        assert "repro-sweep-v1" in err
        assert "repro-obs-v1" in err  # what stats reads instead

    def test_trace_export_names_a_log_tag(self, tmp_path, capsys):
        path = tmp_path / "access.log.jsonl"
        path.write_text("".join(
            json.dumps(line) + "\n"
            for line in (
                {"format": "repro-log-v1", "meta": {"source": "unit"}},
                {"ts": 1.0, "level": "info", "event": "http.access"},
                {"ts": 2.0, "level": "info", "event": "http.access"},
            )
        ))
        code = main(["trace-export", str(path), "-o", str(tmp_path / "o")])
        assert code == 2
        err = self._one_line_error(capsys)
        assert "repro-log-v1" in err
        assert "repro-spans-v1" in err  # what trace-export reads instead

    @pytest.mark.parametrize("command", ["stats", "trace-export"])
    def test_missing_file_is_one_line(self, tmp_path, capsys, command):
        path = str(tmp_path / "missing.jsonl")
        assert main([command, path]) == 2
        assert "cannot read" in self._one_line_error(capsys)

    @pytest.mark.parametrize("flag,name", [
        ("--spans-jsonl", "run.spans.jsonl"),
        ("--obs-jsonl", "run.obs.jsonl"),
    ])
    @pytest.mark.parametrize("command", ["stats", "trace-export"])
    def test_binary_garbage_is_blamed_on_its_line(self, tmp_path, capsys,
                                                  flag, name, command):
        path = self._record(tmp_path, flag, name)
        with open(path, "ab") as handle:
            handle.write(b"\x00\xff\xfe binary garbage \x81\n")
        with open(path, "rb") as handle:
            last_line = handle.read().count(b"\n")
        capsys.readouterr()
        argv = [command, path]
        if command == "trace-export":
            argv += ["-o", str(tmp_path / "o.json")]
        assert main(argv) == 2
        err = self._one_line_error(capsys)
        assert path in err
        assert f"line {last_line}:" in err


class TestUnwritableOutputPath:
    """A telemetry path in a missing directory is one ``error:`` line
    naming the path and exit 2, not a FileNotFoundError traceback from
    opening ``<path>.partial``."""

    @pytest.mark.parametrize("command", ["simulate", "profile"])
    @pytest.mark.parametrize("flag", ["--obs-jsonl", "--spans-jsonl"])
    def test_missing_directory_is_one_line(self, tmp_path, capsys,
                                           command, flag):
        path = str(tmp_path / "missing" / "x.jsonl")
        assert main([command, "--n", "5", flag, path]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, err
        assert err.startswith("error: ") and path in err

    def test_nothing_stays_hooked_when_the_second_path_fails(self, tmp_path,
                                                           capsys):
        from repro.obs import hooks

        events = str(tmp_path / "ok.obs.jsonl")
        spans = str(tmp_path / "missing" / "x.spans.jsonl")
        assert main(["simulate", "--n", "5", "--obs-jsonl", events,
                     "--spans-jsonl", spans]) == 2
        # The stream that did open is closed, and no hook points at it.
        assert read_stream(events).records == []
        assert hooks._round_hooks == [] and hooks._run_end_hooks == []
