"""End-to-end daemon tests over a real socket (ephemeral port).

Covers the acceptance properties of the serving layer: repeated
identical requests are cache hits with byte-identical bodies and
recorded counters, ``--no-cache`` and per-request opt-out recompute,
the sweep stream is deterministic and shares cache entries with
``/run``, failures arrive as structured taxonomy-mapped JSON, and
``/metrics`` exposes per-endpoint latency histograms plus the sweep
aggregate.
"""

import json

from repro.resilience import RunPolicy

from .client import serving

SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5000,
}


class TestRunEndpoint:
    def test_repeat_run_is_byte_identical_cache_hit(self):
        with serving() as client:
            status, headers, cold = client.run(SCENARIO, seed=1)
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"

            hits_before = client.server.store.counters()["hits"]
            status, headers, warm = client.run(SCENARIO, seed=1)
            assert status == 200
            assert headers["X-Repro-Cache"] == "hit"
            assert warm == cold
            assert client.server.store.counters()["hits"] == hits_before + 1

    def test_run_body_shape(self):
        with serving() as client:
            status, _, raw = client.run(SCENARIO, seed=2)
            assert status == 200
            body = json.loads(raw)
            assert body["schema"] == "repro-serve-v1"
            assert body["kind"] == "run"
            assert body["seed"] == 2
            assert len(body["key"]) == 64
            assert body["scenario"]["workload"] == "random"
            assert body["context"]["engine"] == "atom"
            assert body["result"]["verdict"]
            assert body["result"]["rounds"] >= 0

    def test_per_request_cache_opt_out(self):
        with serving() as client:
            client.run(SCENARIO, seed=1)
            status, headers, body = client.run(SCENARIO, seed=1, cache=False)
            assert status == 200
            assert headers["X-Repro-Cache"] == "bypass"
            # Recomputed, yet byte-identical: determinism at work.
            _, _, cached = client.run(SCENARIO, seed=1)
            assert body == cached

    def test_server_wide_no_cache(self):
        with serving(cache_enabled=False) as client:
            _, headers, _ = client.run(SCENARIO, seed=1)
            assert headers["X-Repro-Cache"] == "bypass"
            _, headers, _ = client.run(SCENARIO, seed=1)
            assert headers["X-Repro-Cache"] == "bypass"
            assert client.server.store.counters()["stores"] == 0

    def test_different_seed_misses(self):
        with serving() as client:
            client.run(SCENARIO, seed=1)
            _, headers, _ = client.run(SCENARIO, seed=2)
            assert headers["X-Repro-Cache"] == "miss"


class TestSweepEndpoint:
    def test_sweep_streams_per_seed_lines_plus_summary(self):
        with serving() as client:
            status, headers, raw = client.sweep(
                SCENARIO, seed_start=0, seed_count=3
            )
            assert status == 200
            assert headers["Transfer-Encoding"] == "chunked"
            lines = [json.loads(l) for l in raw.decode().splitlines()]
            assert [l["kind"] for l in lines] == [
                "run", "run", "run", "sweep_summary",
            ]
            assert [l["seed"] for l in lines[:3]] == [0, 1, 2]
            summary = lines[-1]
            assert summary["seeds"] == 3
            assert sum(summary["verdicts"].values()) == 3

    def test_repeated_sweep_is_byte_identical(self):
        with serving() as client:
            _, _, first = client.sweep(SCENARIO, seed_start=0, seed_count=3)
            misses = client.server.store.counters()["misses"]
            _, _, second = client.sweep(SCENARIO, seed_start=0, seed_count=3)
            assert second == first
            # Second pass added no misses: fully served from cache.
            assert client.server.store.counters()["misses"] == misses

    def test_sweep_and_run_share_cache_entries(self):
        with serving() as client:
            client.sweep(SCENARIO, seed_start=0, seed_count=2)
            _, headers, _ = client.run(SCENARIO, seed=1)
            assert headers["X-Repro-Cache"] == "hit"


class TestErrorMapping:
    def test_malformed_json_is_400(self):
        with serving() as client:
            status, _, raw = client.request("POST", "/run", None)
            body = json.loads(raw)
            assert status == 400
            assert body["kind"] == "error"
            assert body["error"] == "TraceFormatError"

    def test_unknown_scenario_field_is_400(self):
        with serving() as client:
            status, _, raw = client.run(dict(SCENARIO, robots=9))
            assert status == 400
            assert json.loads(raw)["error"] == "TraceFormatError"

    def test_unknown_endpoint_is_404(self):
        with serving() as client:
            status, _, raw = client.request("GET", "/nope")
            assert status == 404
            assert json.loads(raw)["kind"] == "error"

    def test_failing_run_surfaces_as_structured_500(self):
        # Scenario.from_dict accepts any algorithm string; the registry
        # lookup fails at run time, is charged against the retry budget,
        # and surfaces as WorkerCrashError -> structured 500 JSON, never
        # a dead socket or a traceback.
        with serving(policy=RunPolicy(retries=0, backoff=0.0)) as client:
            status, _, raw = client.run(dict(SCENARIO, algorithm="nope"))
            body = json.loads(raw)
            assert status == 500
            assert body["kind"] == "error"
            assert body["error"] == "WorkerCrashError"


class TestOperationalEndpoints:
    def test_healthz(self):
        with serving() as client:
            status, _, raw = client.healthz()
            assert status == 200
            body = json.loads(raw)
            assert body["status"] == "ok"
            assert body["backend"] in ("python", "numpy")
            assert body["ready"] is True
            assert client.request("GET", "/readyz")[0] == 200

    def test_metrics_records_requests_cache_and_sweep_aggregate(self):
        with serving() as client:
            client.run(SCENARIO, seed=1)
            client.run(SCENARIO, seed=1)
            client.sweep(SCENARIO, seed_start=0, seed_count=2)
            document = client.metrics()
            assert document["schema"] == "repro-serve-metrics-v1"
            requests = document["requests"]
            assert requests["serve.run.requests"] == 2
            assert requests["serve.sweep.requests"] == 1
            assert requests["serve.cache.hit"] == 1
            assert document["cache"]["hits"] >= 2  # run + sweep seed 1
            latency = document["request_latency"]
            assert "serve.run.latency_seconds" in latency
            assert "serve.sweep.latency_seconds" in latency
            assert latency["serve.run.latency_seconds"]["count"] == 2
            # The sweep aggregate counted every computed seed and
            # namespaced its counters per endpoint.
            sweep = document["sweep"]
            assert sweep["schema"] == "repro-sweep-metrics-v1"
            # Only computed seeds reach the aggregate: seed 1 via /run,
            # then seed 0 via /sweep (the sweep's seed 1 was a cache
            # hit and never touched the simulator).
            assert sweep["seeds"]["done"] == 2
            assert any(
                name.startswith("serve.run.") or name.startswith("serve.sweep.")
                for name in sweep["counters"]
            )


class TestSharedDiskStore:
    def test_second_daemon_hits_first_daemons_results(self, tmp_path):
        root = str(tmp_path / "store")
        with serving(store_root=root) as client:
            _, _, cold = client.run(SCENARIO, seed=5)
        # Fresh daemon, same disk store: warm from request one.
        with serving(store_root=root) as client:
            _, headers, warm = client.run(SCENARIO, seed=5)
            assert headers["X-Repro-Cache"] == "hit"
            assert warm == cold
