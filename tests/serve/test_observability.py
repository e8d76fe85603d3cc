"""Request IDs, per-request span trees, access log, and Prometheus.

The observability acceptance surface of the serve stack: every response
carries an ``X-Repro-Request-Id`` (client-supplied ids propagate
verbatim, malformed ones are replaced), a daemon given ``trace_jsonl``
records one joined span tree per request — HTTP-layer spans and the
grafted worker-side run/round/phase spans sharing the request id — and
``GET /metrics`` content-negotiates between the default JSON document
and the Prometheus text exposition derived from it.
"""

import errno
import json
import re

from repro.cli import main
from repro.obs import log_hub
from repro.obs.histogram import DEFAULT_BOUNDS
from repro.obs.sink import read_stream
from repro.serve.prometheus import exposition, wants_prometheus
from repro.serve.tracing import REQUEST_ID_HEADER, clean_request_id

from .client import serving

SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5000,
}

_HEX32 = re.compile(r"^[0-9a-f]{32}$")


class _FullDisk:
    """A file handle whose every write fails as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestRequestIds:
    def test_client_id_is_echoed_verbatim(self):
        with serving() as client:
            status, headers, _ = client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 1},
                headers={REQUEST_ID_HEADER: "my-req.01"},
            )
            assert status == 200
            assert headers[REQUEST_ID_HEADER] == "my-req.01"

    def test_missing_id_gets_generated(self):
        with serving() as client:
            status, headers, _ = client.run(SCENARIO, seed=1)
            assert status == 200
            assert _HEX32.match(headers[REQUEST_ID_HEADER])

    def test_malformed_id_is_replaced(self):
        with serving() as client:
            _, headers, _ = client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 1},
                headers={REQUEST_ID_HEADER: "bad id with spaces!"},
            )
            assert _HEX32.match(headers[REQUEST_ID_HEADER])

    def test_get_endpoints_carry_ids_too(self):
        with serving() as client:
            _, headers, _ = client.request(
                "GET", "/healthz", headers={REQUEST_ID_HEADER: "health-1"}
            )
            assert headers[REQUEST_ID_HEADER] == "health-1"

    def test_clean_request_id_rules(self):
        assert clean_request_id("ok-id_1.2") == "ok-id_1.2"
        assert _HEX32.match(clean_request_id(None))
        assert _HEX32.match(clean_request_id(""))
        assert _HEX32.match(clean_request_id("x" * 200))
        assert _HEX32.match(clean_request_id("bad\nid"))

    def test_body_bytes_unchanged_by_request_id(self):
        # Cache hits must stay byte-identical across different ids: the
        # id travels in headers only, never the body.
        with serving() as client:
            _, _, cold = client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 1},
                headers={REQUEST_ID_HEADER: "first-id"},
            )
            _, headers, warm = client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 1},
                headers={REQUEST_ID_HEADER: "second-id"},
            )
            assert headers["X-Repro-Cache"] == "hit"
            assert warm == cold


class TestRequestSpans:
    def test_run_produces_joined_span_tree(self, tmp_path):
        spans_path = str(tmp_path / "serve.spans.jsonl")
        with serving(workers=2, trace_jsonl=spans_path) as client:
            status, headers, _ = client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 3},
                headers={REQUEST_ID_HEADER: "joined-req-1"},
            )
            assert status == 200
        # close() promoted the .partial file.
        stream = read_stream(spans_path)
        meta, spans = stream.meta, stream.records
        assert meta["source"] == "repro-serve"
        mine = [
            s for s in spans
            if (s.get("attrs") or {}).get("request_id") == "joined-req-1"
        ]
        names = {s["name"] for s in mine}
        assert {"request", "admission_wait", "cache_lookup",
                "singleflight", "worker_run"} <= names
        kinds = {s["kind"] for s in mine}
        # Worker-side spans were grafted under the same request id.
        assert {"request", "serve", "run", "round", "phase"} <= kinds
        # The tree is closed: every parent id exists in the file.
        ids = {s["id"] for s in mine}
        assert all(
            s["parent"] in ids for s in mine if s["parent"] is not None
        )
        worker_run = [s for s in mine if s["name"] == "worker_run"]
        assert len(worker_run) == 1
        roots = [s for s in mine if s["kind"] == "run"]
        assert all(s["parent"] == worker_run[0]["id"] for s in roots)
        # Grafted spans sit inside the server's worker_run window.
        lo = worker_run[0]["start_ns"]
        hi = lo + worker_run[0]["dur_ns"]
        for span in roots:
            assert lo <= span["start_ns"] <= hi
        # The Perfetto export keeps the request id on every one of them.
        out_path = str(tmp_path / "serve.perfetto.json")
        assert main(["trace-export", spans_path, "-o", out_path]) == 0
        with open(out_path, "r", encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        joined = [
            e for e in events
            if e.get("args", {}).get("request_id") == "joined-req-1"
        ]
        assert len(joined) == len(mine)

    def test_cache_hit_skips_worker_spans(self, tmp_path):
        spans_path = str(tmp_path / "serve.spans.jsonl")
        with serving(workers=2, trace_jsonl=spans_path) as client:
            client.run(SCENARIO, seed=4)
            _, headers, _ = client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 4},
                headers={REQUEST_ID_HEADER: "warm-req"},
            )
            assert headers["X-Repro-Cache"] == "hit"
        spans = read_stream(spans_path).records
        warm = [
            s for s in spans
            if (s.get("attrs") or {}).get("request_id") == "warm-req"
        ]
        names = {s["name"] for s in warm}
        assert "cache_lookup" in names
        assert "worker_run" not in names
        lookup = next(s for s in warm if s["name"] == "cache_lookup")
        assert lookup["attrs"]["hit"] is True

    def test_failing_trace_writes_warn_once_and_promote_nothing(
        self, tmp_path
    ):
        spans_path = tmp_path / "serve.spans.jsonl"
        records = []
        log_hub.add_sink(records.append)
        try:
            with serving(trace_jsonl=str(spans_path)) as client:
                stream = client.server._trace_writer
                stream._handle = _FullDisk(stream._handle)
                for seed in range(5):
                    status, _, _ = client.run(SCENARIO, seed=seed)
                    assert status == 200
        finally:
            log_hub.remove_sink(records.append)
        warnings = [r for r in records if r["level"] == "warning"]
        assert [r["event"] for r in warnings] == ["telemetry.write_failed"]
        assert str(spans_path) in warnings[0]["msg"]
        # Never promoted: the partial file stays for inspection.
        assert not spans_path.exists()
        assert (tmp_path / "serve.spans.jsonl.partial").exists()

    def test_untraced_daemon_writes_no_spans_file(self, tmp_path):
        spans_path = tmp_path / "never.spans.jsonl"
        with serving() as client:
            client.run(SCENARIO, seed=1)
        assert not spans_path.exists()


class TestAccessLog:
    def test_requests_land_in_structured_access_log(self, tmp_path):
        log_path = str(tmp_path / "access.log.jsonl")
        with serving(access_log=log_path) as client:
            client.request(
                "POST", "/run", {"scenario": SCENARIO, "seed": 1},
                headers={REQUEST_ID_HEADER: "logged-req"},
            )
            client.request("GET", "/healthz")
        stream = read_stream(log_path)
        meta, records = stream.meta, stream.records
        assert meta["source"] == "repro-serve"
        access = [r for r in records if r["event"] == "http.access"]
        assert len(access) == 2
        run_rec = access[0]["fields"]
        assert run_rec["request_id"] == "logged-req"
        assert run_rec["method"] == "POST"
        assert run_rec["route"] == "run"
        assert run_rec["status"] == 200
        assert run_rec["cache"] == "miss"
        assert run_rec["admission"] == "admitted"
        assert run_rec["duration_s"] >= 0
        health_rec = access[1]["fields"]
        assert health_rec["route"] == "healthz"
        assert health_rec["status"] == 200

    def test_error_responses_are_logged_with_status(self, tmp_path):
        log_path = str(tmp_path / "access.log.jsonl")
        with serving(access_log=log_path) as client:
            status, _, _ = client.request("POST", "/run", {"seed": 1})
            assert status == 400
        records = read_stream(log_path).records
        access = [r for r in records if r["event"] == "http.access"]
        assert access[0]["fields"]["status"] == 400
        assert access[0]["fields"]["route"] == "run"


class TestPrometheusNegotiation:
    def test_default_stays_json(self):
        with serving() as client:
            client.run(SCENARIO, seed=1)
            status, headers, body = client.request("GET", "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert json.loads(body)["schema"] == "repro-serve-metrics-v1"

    def test_accept_text_plain_switches_to_prometheus(self):
        with serving() as client:
            client.run(SCENARIO, seed=1)
            status, headers, body = client.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            assert status == 200
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = body.decode()
            assert "repro_serve_run_requests_total 1" in text
            # Every sample line parses: name{labels} value.
            for line in text.strip().splitlines():
                if line.startswith("#"):
                    continue
                name_part, value = line.rsplit(" ", 1)
                assert re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*(\{.*\})?$",
                                name_part)
                float(value)  # must be numeric

    def test_wants_prometheus_rules(self):
        assert wants_prometheus("text/plain")
        assert wants_prometheus("text/plain; version=0.0.4")
        assert wants_prometheus("application/openmetrics-text, */*")
        assert not wants_prometheus("*/*")
        assert not wants_prometheus("")
        assert not wants_prometheus(None)
        assert not wants_prometheus("application/json")

    def test_prometheus_numbers_match_json(self):
        with serving() as client:
            client.run(SCENARIO, seed=1)
            client.run(SCENARIO, seed=1)  # warm: one hit
            _, _, json_body = client.request("GET", "/metrics")
            _, _, prom_body = client.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            document = json.loads(json_body)
            text = prom_body.decode()
            assert (
                f"repro_serve_run_requests_total "
                f"{document['requests']['serve.run.requests']}" in text
            )
            assert (
                f"repro_serve_cache_hit_total "
                f"{document['requests']['serve.cache.hit']}" in text
            )
