"""A real ``python -m repro serve`` process, driven over HTTP.

The in-process suites (``tests/serve``) run the daemon on a thread of
the test process; these tests start the CLI itself, so argument
parsing, the signal handlers, the SIGTERM drain, the exit status and
the telemetry files promoted on shutdown are covered too.

* The smoke: a cold and a warm ``/run`` and two ``/sweep`` s must be
  byte-identical cache hits, request ids are echoed or generated,
  ``/metrics`` parses in both formats, SIGTERM exits 0, and the span
  and access-log files it leaves are readable by ``repro trace-export``
  and ``repro stats``.
* Worker-kill chaos: one seed SIGKILLs its worker on every attempt.
  Its request is a structured 500 that opens the circuit breaker, a
  healthy ``/run`` sent while that seed is still being retried is a 200,
  a healthy seed afterwards closes the breaker, an expired deadline is a
  504, and SIGTERM drains to exit 0.  An offline ``repro serve-store``
  audit of the store the daemon leaves then finds every entry intact.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

from repro.cli import main

from ..serve.client import ServeClient
from .test_kill_resume import _env

SCENARIO = {
    "workload": "random",
    "n": 8,
    "f": 2,
    "crashes": "random",
    "max_rounds": 5000,
}


def _read(path):
    with open(path) as handle:
        return handle.read()


@contextmanager
def daemon(log_path, *flags, **env):
    """A ``repro serve --port 0`` process; yields ``(client, process)``.

    The process is killed on the way out if the test left it running.
    """
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=_env(**env),
        )
    try:
        for _ in range(300):
            match = re.search(
                r"listening on http://([\d.]+):(\d+)", _read(log_path)
            )
            if match:
                break
            assert process.poll() is None, _read(log_path)
            time.sleep(0.1)
        assert match, _read(log_path)
        yield ServeClient(match.group(1), int(match.group(2))), process
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)


def _stop(process, log_path):
    """SIGTERM the daemon; it must drain and exit 0."""
    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=60) == 0, _read(log_path)


def _serve_store(action, store, *flags):
    """``python -m repro serve-store ACTION STORE``; it must exit 0."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve-store", action, store, *flags],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


class TestDaemonProcess:
    def test_smoke_cache_request_ids_metrics_and_sigterm(
        self, tmp_path, capsys
    ):
        log = str(tmp_path / "serve.log")
        spans = str(tmp_path / "serve.spans.jsonl")
        access = str(tmp_path / "access.log.jsonl")
        with daemon(
            log, "--store", str(tmp_path / "store"),
            "--access-log", access, "--trace-jsonl", spans,
        ) as (client, process):
            run = {"scenario": SCENARIO, "seed": 1}
            status, headers, cold = client.request(
                "POST", "/run", run,
                headers={"X-Repro-Request-Id": "ci-smoke-run-1"},
            )
            assert status == 200, cold
            assert headers["X-Repro-Cache"] == "miss"
            assert headers["X-Repro-Request-Id"] == "ci-smoke-run-1"
            status, headers, warm = client.request("POST", "/run", run)
            assert headers["X-Repro-Cache"] == "hit"
            # No client id on the warm run: the daemon generated one.
            assert len(headers["X-Repro-Request-Id"]) == 32
            assert warm == cold, "cache hit was not byte-identical"

            _, _, first = client.sweep(SCENARIO, seed_start=0, seed_count=3)
            _, _, second = client.sweep(SCENARIO, seed_start=0, seed_count=3)
            assert second == first, "repeated sweep was not byte-identical"
            assert first.count(b"\n") == 4

            document = client.metrics()
            assert document["schema"] == "repro-serve-metrics-v1"
            assert document["requests"]["serve.run.requests"] == 2
            assert document["requests"]["serve.sweep.requests"] == 2
            assert document["cache"]["hits"] >= 4
            assert "serve.run.latency_seconds" in document["request_latency"]

            # Prometheus scrape: every sample line must parse.
            _, headers, raw = client.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            text = raw.decode()
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            samples = [
                line for line in text.strip().splitlines()
                if not line.startswith("#")
            ]
            assert samples
            for line in samples:
                float(line.rsplit(" ", 1)[1])
            assert "repro_serve_run_requests_total 2" in text
            assert "repro_serve_run_latency_seconds_bucket" in text
            _stop(process, log)

        # The spans file was promoted on shutdown and the access log is
        # readable; tests/serve/test_observability.py pins the joined
        # span tree and its export.
        capsys.readouterr()
        perfetto = str(tmp_path / "serve.perfetto.json")
        assert main(["trace-export", spans, "-o", perfetto]) == 0
        assert os.path.exists(perfetto)
        assert main(["stats", access]) == 0
        assert "http.access" in capsys.readouterr().out

    def test_worker_kill_chaos_then_sigterm_drain(self, tmp_path):
        log = str(tmp_path / "serve.log")
        store = str(tmp_path / "store")
        with daemon(
            log, "--store", store, "--workers", "2",
            "--retries", "1", "--breaker-threshold", "1",
            "--max-inflight", "8",
            # Seed 7's worker is SIGKILLed on every attempt.
            REPRO_CHAOS="seed=1,kill=1.0,match=seed7",
        ) as (client, process):
            killed = {}
            caller = threading.Thread(
                target=lambda: killed.update(
                    answer=client.run(SCENARIO, seed=7)
                )
            )
            caller.start()
            for _ in range(300):
                if "[chaos] killing worker" in _read(log):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError(_read(log))

            # A healthy seed sent while seed 7 is still being retried
            # computes on the same pool, across its rebuilds.
            status, _, body = client.run(SCENARIO, seed=10)
            assert status == 200, body
            assert json.loads(body)["kind"] == "run"
            assert caller.is_alive(), "seed 7 was no longer in flight"
            caller.join(timeout=120)
            assert not caller.is_alive()

            # Seed 7 exhausted its retries: the structured taxonomy
            # error, not a hang.
            status, _, body = killed["answer"]
            document = json.loads(body)
            assert status == 500, document
            assert document["error"] == "WorkerCrashError"
            status, _, _ = client.request("GET", "/readyz")
            assert status == 503, "breaker did not open readiness"

            # A healthy seed computes on the rebuilt pool and closes it.
            status, _, body = client.run(SCENARIO, seed=8)
            assert status == 200, body
            assert json.loads(body)["kind"] == "run"
            status, _, _ = client.request("GET", "/readyz")
            assert status == 200, "breaker did not close after recovery"

            # Deadline + shed mappings hold on the live daemon too.
            status, _, body = client.run(SCENARIO, seed=9, deadline_s=1e-6)
            assert status == 504, body
            assert json.loads(body)["error"] == "RequestDeadlineError"

            robustness = client.metrics()["robustness"]
            assert robustness["deadline_exceeded"] >= 1, robustness
            assert robustness["breaker"]["trips"] == 1, robustness
            _stop(process, log)

        # Offline store audit of the cache the chaos run populated.
        report = json.loads(_serve_store("verify", store, "--json"))
        assert report["checked"] >= 1, report
        assert report["corrupt"] == 0, report
        assert report["unreadable"] == 0, report
        _serve_store("stats", store)
        _serve_store("gc", store)
