"""Server-level wiring of the self-protection layer, over real sockets.

The primitives are unit-tested in ``test_admission.py``; here we prove
the daemon actually threads them through the HTTP path: deadlines become
structured 504s that free their slot, an exhausted budget becomes a 429
with ``Retry-After``, draining and an open breaker flip ``/readyz``
while ``/healthz`` stays alive, a refusal sent before the body is read
never desyncs a keep-alive connection, and ``/metrics`` exposes it all.
"""

import json
import socket
import struct
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.obs import log_hub
from repro.resilience import ChaosPolicy
from repro.serve import server as server_module
from repro.serve.protocol import MAX_BODY_BYTES

from .client import serving

SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5000,
}


def _hold_budget(client):
    """Start a ``/run`` in a thread and return ``(thread, responses)``
    once it holds the admission budget."""
    responses = []
    thread = threading.Thread(
        target=lambda: responses.append(client.run(SCENARIO, seed=1))
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while (
        client.server.admission.inflight == 0
        and time.monotonic() < deadline
    ):
        time.sleep(0.005)
    return thread, responses


class TestDeadlines:
    def test_expired_deadline_is_structured_504(self):
        with serving() as client:
            status, _, raw = client.run(SCENARIO, seed=5, deadline_s=1e-6)
            body = json.loads(raw)
            assert status == 504
            assert body["kind"] == "error"
            assert body["error"] == "RequestDeadlineError"
            # The slot was freed: the same request without the
            # impossible budget computes normally.
            status, _, _ = client.run(SCENARIO, seed=5)
            assert status == 200
            assert client.metrics()["robustness"]["deadline_exceeded"] == 1

    def test_server_default_deadline_applies(self):
        with serving(request_deadline=1e-6) as client:
            status, _, raw = client.run(SCENARIO, seed=6)
            assert status == 504
            assert json.loads(raw)["error"] == "RequestDeadlineError"

    def test_request_override_beats_server_default(self):
        # A generous per-request deadline overrides an impossible
        # server default — the override is a real override, not a cap.
        with serving(request_deadline=1e-6) as client:
            status, _, _ = client.run(SCENARIO, seed=7, deadline_s=120.0)
            assert status == 200

    def test_deadline_rejects_nonsense(self):
        with serving() as client:
            status, _, raw = client.run(SCENARIO, seed=1, deadline_s=-1)
            assert status == 400
            assert json.loads(raw)["error"] == "TraceFormatError"

    def test_sweep_deadline_expired_before_stream_is_clean_504(self):
        # An already-expired budget is caught before the stream
        # commits its 200, so the client still gets a proper status
        # code (mid-stream expiry becomes the stream's structured
        # last line instead — see the chaos integration suite).
        with serving() as client:
            status, _, raw = client.sweep(
                SCENARIO, seed_start=0, seed_count=4, deadline_s=1e-6
            )
            assert status == 504
            assert json.loads(raw)["error"] == "RequestDeadlineError"


class TestLoadShedding:
    def test_busy_daemon_sheds_with_retry_after(self):
        # serve_slow=1.0 makes every handler sleep after admission —
        # a deterministic long-running request to race against.
        chaos = ChaosPolicy(seed=1, serve_slow=1.0, serve_slow_s=0.5)
        with serving(max_inflight=1, chaos=chaos) as client:
            blocker, blocked = _hold_budget(client)
            try:
                status, headers, raw = client.run(SCENARIO, seed=2)
            finally:
                blocker.join()
            body = json.loads(raw)
            assert status == 429
            assert body["error"] == "ServerOverloadedError"
            assert int(headers["Retry-After"]) >= 1
            assert blocked[0][0] == 200  # the request holding the budget
            # Shedding is not an outage: once the blocker finishes,
            # the same request is admitted and served.
            status, _, _ = client.run(SCENARIO, seed=2)
            assert status == 200
            robustness = client.metrics()["robustness"]
            assert robustness["rejected"] >= 1
            assert robustness["max_inflight"] == 1

    @pytest.mark.parametrize(
        "refusal, path, expected",
        [
            ("unknown-endpoint", "/nope", 404),
            ("shed", "/run", 429),
            ("draining", "/run", 503),
            ("oversized", "/run", 400),
            ("length-abc", "/run", 400),
            ("length-abc", "/sweep", 400),
            ("length-negative", "/run", 400),
            ("length-negative", "/sweep", 400),
        ],
    )
    def test_refused_post_keeps_connection_in_sync(
        self, refusal, path, expected
    ):
        # Each refusal answers before the request body is read.  The
        # next request on the same connection must get its own answer,
        # not one for the leftover body bytes, and no refused request
        # may keep its admission slot.
        chaos = ChaosPolicy(seed=1, serve_slow=1.0, serve_slow_s=0.5)
        lengths = {
            "oversized": str(MAX_BODY_BYTES + 1),
            "length-abc": "abc",
            "length-negative": "-1",
        }
        with serving(max_inflight=1, chaos=chaos) as client:
            headers = {"Content-Type": "application/json"}
            blocker = None
            if refusal in lengths:
                headers["Content-Length"] = lengths[refusal]
            elif refusal == "draining":
                client.server._draining = True
            elif refusal == "shed":
                blocker, _ = _hold_budget(client)
            conn = HTTPConnection(client.host, client.port, timeout=30)
            try:
                body = json.dumps({"scenario": SCENARIO, "seed": 2})
                conn.request("POST", path, body=body.encode(), headers=headers)
                response = conn.getresponse()
                response.read()
                assert response.status == expected
                # /healthz is neither admitted nor slowed, so it answers
                # while the daemon drains or the blocker holds the budget.
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            finally:
                client.server._draining = False
                conn.close()
                if blocker is not None:
                    blocker.join()
            assert client.server.admission.inflight == 0


class TestReadiness:
    def test_draining_daemon_rejects_new_work_but_stays_alive(self):
        with serving() as client:
            client.server._draining = True
            try:
                status, _, raw = client.run(SCENARIO, seed=1)
                assert status == 503
                assert json.loads(raw)["error"] == "ServerDrainingError"
                status, _, raw = client.healthz()
                health = json.loads(raw)
                assert status == 200  # alive...
                assert health["status"] == "ok"
                assert health["ready"] is False  # ...but not ready
                assert health["draining"] is True
                status, _, _ = client.request("GET", "/readyz")
                assert status == 503
            finally:
                client.server._draining = False
            assert client.run(SCENARIO, seed=1)[0] == 200

    def test_open_breaker_flips_readyz_not_healthz(self):
        with serving(breaker_threshold=2) as client:
            for _ in range(2):
                client.server.breaker.record_failure()
            assert client.request("GET", "/readyz")[0] == 503
            status, _, raw = client.healthz()
            assert status == 200
            assert json.loads(raw)["breaker"] == "open"
            robustness = client.metrics()["robustness"]
            assert robustness["breaker_state"] == "open"
            assert robustness["breaker"]["trips"] == 1
            # One successful computation is proof of recovery.
            assert client.run(SCENARIO, seed=1)[0] == 200
            assert client.request("GET", "/readyz")[0] == 200

    def test_metrics_robustness_block_shape(self):
        with serving(max_inflight=8, sweep_weight=3) as client:
            robustness = client.metrics()["robustness"]
            assert robustness["ready"] is True
            assert robustness["draining"] is False
            assert robustness["breaker_state"] == "closed"
            assert robustness["inflight"] == 0
            assert robustness["max_inflight"] == 8
            assert robustness["sweep_weight"] == 3
            assert robustness["rejected"] == 0
            assert robustness["deadline_exceeded"] == 0
            assert robustness["coalesced"] == 0
            assert robustness["quarantined"] == 0


class TestGracefulDrain:
    def test_close_waits_for_inflight_requests(self):
        chaos = ChaosPolicy(seed=1, serve_slow=1.0, serve_slow_s=0.3)
        with serving(chaos=chaos) as client:
            results = {}

            def slow_request():
                results["response"] = client.run(SCENARIO, seed=9)

            thread = threading.Thread(target=slow_request)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (
                client.server.admission.inflight == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            # close() must block until the admitted request finished —
            # its response arrives complete, not torn.
            client.server.close(drain_s=10.0)
            thread.join(timeout=10)
            status, _, raw = results["response"]
            assert status == 200
            assert json.loads(raw)["kind"] == "run"


class TestClientGone:
    def test_client_leaving_mid_sweep_is_not_a_server_failure(
        self, monkeypatch
    ):
        # A client that reads the response headers and then resets the
        # connection: the daemon must free its slot and log the leave,
        # not count a 500, log a failure or print a traceback.
        handle_errors = []
        monkeypatch.setattr(
            server_module._Server,
            "handle_error",
            lambda self, request, address: handle_errors.append(address),
        )
        closed = threading.Event()
        shutdown_request = server_module._Server.shutdown_request

        def shutdown_and_signal(self, request):
            shutdown_request(self, request)
            closed.set()

        monkeypatch.setattr(
            server_module._Server, "shutdown_request", shutdown_and_signal
        )
        records = []
        log_hub.add_sink(records.append)
        try:
            with serving() as client:
                body = json.dumps({
                    "scenario": dict(SCENARIO, n=8, f=2),
                    "seed_start": 0,
                    "seed_count": 48,
                }).encode()
                sock = socket.create_connection((client.host, client.port))
                try:
                    sock.sendall(
                        b"POST /sweep HTTP/1.1\r\nHost: test\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
                    head = b""
                    while b"\r\n\r\n" not in head:
                        data = sock.recv(4096)
                        assert data, "daemon closed before the headers"
                        head += data
                    assert head.startswith(b"HTTP/1.1 200")
                    # SO_LINGER 0: close() sends a reset, not a FIN.
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                finally:
                    sock.close()
                # The handler has left once its connection is shut down.
                assert closed.wait(timeout=120)
                assert client.server.admission.inflight == 0
                requests = client.metrics()["requests"]
        finally:
            log_hub.remove_sink(records.append)
        assert "serve.errors.status.500" not in requests
        assert "serve.sweep.errors" not in requests
        gone = [r for r in records if r["event"] == "http.client_gone"]
        assert len(gone) == 1
        assert gone[0]["fields"]["route"] == "sweep"
        assert gone[0]["fields"]["request_id"]
        assert handle_errors == []


def _raw_exchange(client, request: bytes) -> bytes:
    """Send raw request bytes, read until the daemon closes."""
    sock = socket.create_connection((client.host, client.port), timeout=30)
    try:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk
    finally:
        sock.close()


class TestStdlibRefusals:
    """Requests the stdlib refuses before any ``do_*`` method runs get
    a status line and the same JSON error body as every other serve
    failure, not the stdlib's HTML page (which has no status line at
    all when the request line is malformed)."""

    @pytest.mark.parametrize("request_bytes,status,phrase", [
        (b"PUT /run HTTP/1.1\r\nHost: test\r\n\r\n", 501,
         "Unsupported method"),
        (b"GET /healthz HTTP/9.9\r\n\r\n", 505, "Invalid HTTP version"),
        (b"GARBAGE\r\n\r\n", 400, "Bad request syntax"),
    ], ids=["method", "version", "request-line"])
    def test_structured_json_error(self, request_bytes, status, phrase):
        with serving() as client:
            raw = _raw_exchange(client, request_bytes)
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("iso-8859-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        document = json.loads(body)
        assert document["kind"] == "error"
        assert document["status"] == status
        assert phrase in document["message"]


class TestUnwritableTelemetryPath:
    """``repro serve`` with an access log or span trace in a missing
    directory is one ``error:`` line naming the path and exit 2, not a
    FileNotFoundError traceback."""

    @pytest.mark.parametrize("flag", ["--access-log", "--trace-jsonl"])
    def test_missing_directory_is_one_line(self, tmp_path, capsys, flag):
        from repro.cli import main

        path = str(tmp_path / "missing" / "out.jsonl")
        assert main(["serve", "--port", "0", flag, path]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, err
        assert err.startswith("error: ") and path in err

    def test_second_path_failing_closes_the_first(self, tmp_path, capsys):
        from repro.cli import main

        access = tmp_path / "access.jsonl"
        missing = str(tmp_path / "missing" / "spans.jsonl")
        assert main(["serve", "--port", "0", "--access-log", str(access),
                     "--trace-jsonl", missing]) == 2
        assert missing in capsys.readouterr().err
        # The access log that did open is closed, and the log hub does
        # not write to it.
        from repro.obs import read_stream
        from repro.obs.sink import JsonlStream

        assert read_stream(str(access)).records == []
        assert not any(
            isinstance(getattr(sink, "__self__", None), JsonlStream)
            for sink in log_hub._sinks
        )
