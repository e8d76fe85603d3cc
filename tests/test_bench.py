"""Smoke tests for the JSON benchmark harness (not a benchmark run)."""

import json
import os

import pytest

from repro.bench import (
    HISTORY_SCHEMA,
    SCHEMA,
    load_history,
    run_bench,
    write_bench,
)


class TestBenchDocument:
    def test_schema_and_sections(self, tmp_path):
        document = run_bench(sizes=[8])
        assert document["schema"] == SCHEMA
        assert document["sizes"] == [8]
        # Only the sections a published number is read from.
        assert set(document) == {
            "schema", "generated_at", "python_version", "numpy_version",
            "platform", "cpu_count", "workload", "sizes",
            "round_throughput", "batch_round_throughput",
            "serve_request_latency", "serve_shed_latency", "speedups",
        }
        assert document["cpu_count"] == os.cpu_count()
        assert [entry["n"] for entry in document["round_throughput"]] == [8]
        for entry in document["round_throughput"]:
            assert entry["robots_per_s"] > 0.0
        # Serve latency section: present, and the warm cache hit is
        # strictly cheaper than the cold simulating request.
        for entry in document["serve_request_latency"]:
            assert entry["endpoint"] == "run"
            assert 0.0 < entry["warm_s"] < entry["cold_s"]

        path = tmp_path / "bench.json"
        write_bench(document, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == HISTORY_SCHEMA
        assert payload["latest"]["schema"] == SCHEMA

    def test_two_writes_keep_both_history_entries(self, tmp_path):
        path = tmp_path / "bench.json"
        first = {"schema": SCHEMA, "generated_at": "2026-01-01T00:00:00"}
        second = {"schema": SCHEMA, "generated_at": "2026-01-02T00:00:00"}
        write_bench(first, str(path))
        write_bench(second, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == HISTORY_SCHEMA
        assert len(payload["runs"]) == 2
        assert payload["latest"] == second
        stamps = [run["recorded_at"] for run in payload["runs"]]
        assert stamps == ["2026-01-01T00:00:00", "2026-01-02T00:00:00"]

    def test_foreign_file_fails_loudly(self, tmp_path):
        path = tmp_path / "bench.json"
        # A bare run document, with no history around it, is foreign too.
        for schema in ("something-else", SCHEMA):
            path.write_text(json.dumps({"schema": schema}))
            with pytest.raises(ValueError):
                load_history(str(path))
            with pytest.raises(ValueError):
                write_bench({"schema": SCHEMA}, str(path))

    def test_speedups_present_when_numpy_available(self):
        pytest.importorskip("numpy")
        document = run_bench(sizes=[16])
        # One ratio: the batched engine's per-seed round over the
        # scalar (pure-Python) round at the same size.
        (entry,) = document["speedups"]
        assert entry["metric"] == "batch_round_throughput"
        assert entry["n"] == 16
        (scalar,) = document["round_throughput"]
        (batched,) = document["batch_round_throughput"]
        assert entry["scalar_round_s"] == scalar["round_s"]
        assert entry["batched_per_seed_s"] == batched["per_seed_round_s"]
        assert entry["speedup"] == pytest.approx(
            scalar["round_s"] / batched["per_seed_round_s"]
        )
        assert batched["per_seed_round_s"] == pytest.approx(
            batched["round_s"] / batched["n_sims"]
        )
