"""End-to-end daemon tests over a real socket (ephemeral port).

Covers the acceptance properties of the serving layer: repeated
identical requests are cache hits with byte-identical bodies and
recorded counters, ``--no-cache`` and per-request opt-out recompute,
the sweep stream is deterministic and shares cache entries with
``/run``, failures arrive as structured taxonomy-mapped JSON, and
``/metrics`` exposes per-endpoint latency histograms plus the sweep
aggregate.  Kept-alive connections answer without a delayed-ACK stall.
"""

import json
import socket
import statistics
import time
from contextlib import closing
from http.client import HTTPConnection, parse_headers

import pytest

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

    def test_failing_run_surfaces_as_structured_500(self, monkeypatch):
        # The scenario is well formed, but an injected fault fails its
        # run in compute: the failure is charged against the retry
        # budget and surfaces as WorkerCrashError -> structured 500
        # JSON, never a dead socket or a traceback.
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,error=1.0,match=seed5")
        with serving(policy=RunPolicy(retries=0, backoff=0.0)) as client:
            status, _, raw = client.run(SCENARIO, seed=5)
            body = json.loads(raw)
            assert status == 500
            assert body["kind"] == "error"
            assert body["error"] == "WorkerCrashError"


#: Scenarios no engine can run, each refused when the request is parsed.
MALFORMED = {
    "n-zero": dict(SCENARIO, n=0),
    "unknown-workload": dict(SCENARIO, workload="spiral"),
    "unknown-scheduler": dict(SCENARIO, scheduler="eager"),
    "unknown-algorithm": dict(SCENARIO, algorithm="nope"),
    "negative-f": dict(SCENARIO, f=-1),
    "batched-visibility": dict(SCENARIO, engine="batched", visibility=5.0),
    "bivalent-odd-n": dict(SCENARIO, workload="bivalent", n=5),
}


class TestScenarioCheck:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_scenario_is_400(self, name):
        with serving() as client:
            status, _, raw = client.run(MALFORMED[name])
            body = json.loads(raw)
            assert status == 400
            assert body["error"] == "TraceFormatError"
            assert "bad scenario" in body["message"]

    def test_malformed_scenarios_never_reach_the_breaker(self):
        # Five crashes would open the breaker (the default threshold);
        # five refused scenarios are the client's fault and leave
        # readiness alone.
        with serving(breaker_threshold=5) as client:
            for name in sorted(MALFORMED)[:5]:
                assert client.run(MALFORMED[name])[0] == 400
            assert client.request("GET", "/readyz")[0] == 200
            breaker = client.metrics()["robustness"]["breaker"]
            assert breaker["recent_failures"] == 0
            assert client.server.aggregator.done == 0

    def test_integral_float_is_the_integer(self):
        # A cold 8.0 runs as 8: same key, same bytes as the integer
        # spelling computed afresh.
        with serving() as client:
            status, headers, cold = client.run(dict(SCENARIO, n=8.0))
            assert status == 200
            assert headers["X-Repro-Cache"] == "miss"
            status, headers, warm = client.run(dict(SCENARIO, n=8))
            assert (status, headers["X-Repro-Cache"]) == (200, "hit")
            assert warm == cold
            _, _, fresh = client.run(dict(SCENARIO, n=8), cache=False)
            assert fresh == cold


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


class TestKeepAlive:
    """Several requests over one connection.  A response written as
    headers, then body, on a Nagle socket waits about 40 ms for the
    client's delayed ACK before its body leaves."""

    HEADERS = {"Content-Type": "application/json"}

    def test_hits_are_byte_identical_and_fast(self):
        body = json.dumps({"scenario": SCENARIO, "seed": 3}).encode()
        with serving() as client, closing(
            HTTPConnection(client.host, client.port, timeout=60)
        ) as conn:
            conn.request("POST", "/run", body=body, headers=self.HEADERS)
            response = conn.getresponse()
            miss = response.read()
            assert response.getheader("X-Repro-Cache") == "miss"
            sock = conn.sock
            durations = []
            for _ in range(20):
                started = time.perf_counter()
                conn.request("POST", "/run", body=body, headers=self.HEADERS)
                response = conn.getresponse()
                hit = response.read()
                durations.append(time.perf_counter() - started)
                assert response.getheader("X-Repro-Cache") == "hit"
                assert hit == miss
            assert conn.sock is sock  # never reconnected
            assert statistics.median(durations) < 0.010, durations

    def test_sweep_then_get(self):
        body = json.dumps(
            {"scenario": SCENARIO, "seed_start": 0, "seed_count": 4}
        ).encode()
        with serving() as client, closing(
            HTTPConnection(client.host, client.port, timeout=60)
        ) as conn:
            conn.request("POST", "/sweep", body=body, headers=self.HEADERS)
            response = conn.getresponse()
            assert response.status == 200
            lines = response.read().decode().splitlines()
            assert len(lines) == 5
            assert json.loads(lines[-1])["kind"] == "sweep_summary"
            sock = conn.sock
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            assert conn.sock is sock

    def test_expect_100_continue_precedes_the_body(self):
        # The client sends its body only once the interim response has
        # arrived, so 100 Continue must not wait for the final response.
        body = json.dumps({"scenario": SCENARIO, "seed": 4}).encode()
        head = (
            "POST /run HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Expect: 100-continue\r\n"
            "\r\n"
        ).encode("ascii")
        with serving() as client, socket.create_connection(
            (client.host, client.port), timeout=5
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(head)
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.settimeout(60)
            sock.sendall(body)
            assert reader.readline() == b"HTTP/1.1 200 OK\r\n"
            headers = parse_headers(reader)
            payload = json.loads(reader.read(int(headers["Content-Length"])))
            assert payload["kind"] == "run"
            assert payload["seed"] == 4
