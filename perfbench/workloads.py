"""The three closed-loop workloads.

Each workload has the same life cycle: :meth:`setup` builds the op list,
starts whatever the path needs (pool, daemon) and replays an untimed
warm-up slice; :meth:`timed` runs ops in a closed loop for a number of
seconds; :meth:`fixed` runs a fixed number of ops (the traced run, whose
counts must repeat exactly); :meth:`close` stops everything it started.

Every op is checked against the committed digests: a wrong verdict, a
digest mismatch, an exception or a non-200 response counts the op as
failed.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List, Optional

import ops as oplists


class Tally:
    """Op latencies (seconds), failures and unit runs of one phase.

    A *unit* is work the timed phase repeats identically: one op
    (``simulate``), one ``run_batch`` call (``sweep-batched``) or one
    window of SERVE_WINDOW requests per client (``serve-zipf``).
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.keys: List[object] = []
        self.by_state: Dict[str, List[float]] = {}
        self.ops = 0
        self.failed = 0
        self.wall = 0.0
        self.units: Dict[object, List[tuple]] = {}
        self._lock = threading.Lock()
        self._started = time.perf_counter()

    def unit(self, key, weight: int, seconds: float) -> None:
        """One run of a repeated unit of ``weight`` ops."""
        with self._lock:
            self.units.setdefault(key, []).append((weight, seconds))

    def fastest(self) -> tuple:
        """``(ops per second, median op latency)`` from the fastest run of
        each unit and of each keyed op.

        On a shared 2-vCPU host the CPU speed a process gets swings by up
        to 2x over seconds to minutes (other tenants' load), so a plain
        wall-clock mean mostly measures the host.  Every unit repeats
        identical work, so its fastest run is the program's speed with
        the host quiet; a slower program is slower in every run, fastest
        included.
        """
        best = [min(s for _, s in runs) for runs in self.units.values()]
        weight = sum(runs[0][0] for runs in self.units.values())
        fastest_op: Dict[object, float] = {}
        for key, latency in zip(self.keys, self.latencies):
            if key is not None:
                fastest_op[key] = min(fastest_op.get(key, latency), latency)
        latencies = list(fastest_op.values()) or self.latencies
        return weight / sum(best), statistics.median(latencies)

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def stop(self) -> "Tally":
        self.wall = self.elapsed()
        return self

    def add(self, latency: float, ok: bool, weight: int = 1,
            state: Optional[str] = None, key=None) -> None:
        with self._lock:
            self.latencies.append(latency)
            self.keys.append(key)
            if state is not None:
                self.by_state.setdefault(state, []).append(latency)
            self.ops += weight
            self.failed += 0 if ok else weight


class Workload:
    name = ""
    #: Kernel backend of the workload (fixed before ``repro`` is imported).
    backend = "python"
    #: Pool workers the workload runs (0: in-process only).
    pool_workers = 0
    #: Sims per vectorised chunk (batched engine only).
    chunk_size = 0

    def __init__(self, seed: int, scratch: str, digests: dict,
                 recorder=None) -> None:
        self.seed = seed
        self.scratch = scratch
        self.expected: Dict[str, str] = digests[self.name]
        self.recorder = recorder
        self._next_op = 0
        self._op_lock = threading.Lock()

    def _check(self, key: str, digest: str) -> bool:
        return self.expected.get(key) == digest

    def _op_id(self) -> int:
        with self._op_lock:
            self._next_op += 1
            return self._next_op

    @contextmanager
    def _op(self, op_id: int):
        """An ``op`` span around one op when the run is traced."""
        recorder = self.recorder
        if recorder is None:
            yield
            return
        recorder.op = op_id
        frame = recorder.begin("op")
        try:
            yield
        finally:
            recorder.end(frame)
            recorder.op = None

    def close(self) -> None:
        pass


class Simulate(Workload):
    """One caller running ``run_scenario`` in-process (scalar engine)."""

    name = "simulate"

    def setup(self) -> Tally:
        from repro.experiments.runner import Scenario

        self.ops = [
            (op["id"], Scenario(**op["scenario"]), op["seed"])
            for op in oplists.simulate_ops(self.seed)
        ]
        warm = Tally()
        self._run(
            [op for op in self.ops if op[0] % oplists.SIM_WARMUP_STRIDE == 0],
            warm,
        )
        return warm

    def _run(self, ops, tally: Tally) -> None:
        from repro.experiments.runner import run_scenario
        from repro.resilience.journal import result_to_dict

        for key, scenario, seed in ops:
            ok = False
            with self._op(self._op_id()):
                started = time.perf_counter()
                try:
                    result = run_scenario(scenario, seed)
                    latency = time.perf_counter() - started
                    data = result_to_dict(result)
                    ok = (
                        scenario.engine != "atom"
                        or data["verdict"] == "gathered"
                    ) and self._check(str(key), oplists.result_digest(data))
                except Exception:  # counted as a failed op
                    latency = time.perf_counter() - started
                    traceback.print_exc()
            tally.add(latency, ok, key=key)
            tally.unit(key, 1, latency)

    def timed(self, seconds: float) -> Tally:
        """Whole passes over the op list until ``seconds`` have passed,
        so every run does the same work multiset whatever its seed."""
        tally = Tally()
        while tally.elapsed() < seconds:
            self._run(self.ops, tally)
        return tally.stop()

    def fixed(self) -> Tally:
        tally = Tally()
        self._run(self.ops, tally)
        return tally.stop()


class SweepBatched(Workload):
    """One caller running one batched ``run_batch`` chunk at a time on a
    warm two-worker pool."""

    name = "sweep-batched"
    backend = "numpy"
    pool_workers = 2
    chunk_size = oplists.BATCH

    def setup(self) -> Tally:
        from repro.experiments.runner import Scenario, executor

        chunks = oplists.sweep_ops(self.seed)
        n = oplists.SWEEP_CHUNKS
        self.passes = [chunks[i : i + n] for i in range(0, len(chunks), n)]
        self.scenario = Scenario(**oplists.SWEEP_SCENARIO)
        self.journal = os.path.join(self.scratch, "sweep.jsonl")
        self._pool_cm = executor(self.pool_workers)
        self.pool = self._pool_cm.__enter__()
        warm = Tally()
        for chunk in self.passes[0]:
            if chunk["id"] in oplists.SWEEP_WARMUP:
                self._call(chunk, warm)
        return warm

    def _call(self, chunk, tally: Tally) -> None:
        from repro.experiments.runner import run_batch
        from repro.resilience.journal import result_to_dict

        seeds = chunk["seeds"]
        pending = [len(seeds)]
        done_at: List[Optional[float]] = [None]

        def on_seed(seed: int, result) -> None:
            pending[0] -= 1
            if pending[0] == 0:
                # The chunk's last record is journaled (fsynced) by now.
                done_at[0] = time.perf_counter()

        with self._op(self._op_id()):
            started = time.perf_counter()
            try:
                results = run_batch(
                    self.scenario,
                    seeds,
                    pool=self.pool,
                    batch_size=oplists.BATCH,
                    journal_path=self.journal,
                    on_seed_result=on_seed,
                )
            except Exception:  # counted as a failed chunk
                results = None
                traceback.print_exc()
            ended = time.perf_counter()
        ok = False
        if results is not None:
            data = [result_to_dict(r) for r in results]
            ok = all(d["verdict"] == "gathered" for d in data) and (
                self._check(str(chunk["id"]), oplists.chunk_digest(data))
            )
        latency = (done_at[0] or ended) - started
        tally.add(latency, ok, weight=len(seeds), key=chunk["id"])
        tally.unit(chunk["id"], len(seeds), ended - started)

    def timed(self, seconds: float) -> Tally:
        tally = Tally()
        done = 0
        while tally.elapsed() < seconds:
            for chunk in self.passes[done % len(self.passes)]:
                self._call(chunk, tally)
            done += 1
        return tally.stop()

    def fixed(self) -> Tally:
        tally = Tally()
        for chunk in self.passes[0]:
            self._call(chunk, tally)
        return tally.stop()

    def close(self) -> None:
        self._pool_cm.__exit__(None, None, None)


class _Client:
    """One keep-alive connection replaying one request sequence."""

    def __init__(self, owner: "ServeZipf", port: int, sequence) -> None:
        self.owner = owner
        self.port = port
        self.sequence = sequence
        self.position = 0
        self.bodies: Dict[int, bytes] = {}
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, tally: Tally) -> None:
        op = self.sequence[self.position]
        self.position += 1
        owner = self.owner
        op_id = owner._op_id()
        body = json.dumps(
            {"scenario": op["scenario"], "seed": op["seed"]}
        ).encode()
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Request-Id": f"pb-{op_id}",
        }
        ok, state = False, None
        with owner._op(op_id):
            started = time.perf_counter()
            try:
                self.conn.request("POST", "/run", body, headers)
                response = self.conn.getresponse()
                data = response.read()
                latency = time.perf_counter() - started
                state = response.getheader("X-Repro-Cache")
                ok = response.status == 200 and state == (
                    "miss" if op["fresh"] else "hit"
                )
            except (OSError, http.client.HTTPException):
                latency = time.perf_counter() - started
                self.conn.close()
        if ok and op["fresh"]:
            result = json.loads(data)["result"]
            ok = owner._check(str(op["id"]), oplists.result_digest(result))
            self.bodies[op["id"]] = data
        elif ok:
            # A hit must be the very bytes its key's miss returned.
            ok = data == self.bodies.get(op["id"])
        tally.add(latency, ok, state=state)

    def close(self) -> None:
        self.conn.close()


class ServeZipf(Workload):
    """Two clients sending ``POST /run`` to an in-process daemon."""

    name = "serve-zipf"
    pool_workers = 2

    def setup(self) -> Tally:
        from repro.serve.server import ReproServer

        sequences = oplists.serve_ops(self.seed)
        store_root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.server = ReproServer(
            port=0, workers=self.pool_workers, store_root=store_root
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.clients = [
            _Client(self, self.server.port, sequence) for sequence in sequences
        ]
        warm = Tally()
        self._drive(warm, oplists.SERVE_WARMUP)
        return warm

    def _drive(self, tally: Tally, count: int) -> None:
        """Each client sends its next ``count`` requests."""
        errors: List[BaseException] = []

        def loop(client: _Client) -> None:
            try:
                for _ in range(count):
                    client.request(tally)
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=loop, args=(client,))
            for client in self.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def timed(self, seconds: float) -> Tally:
        """Windows of SERVE_WINDOW requests per client (the same number
        of misses in each) until ``seconds`` have passed or the clients
        run out of fresh keys."""
        tally = Tally()
        window = oplists.SERVE_WINDOW
        while tally.elapsed() < seconds and all(
            c.position + window <= len(c.sequence) for c in self.clients
        ):
            started = time.perf_counter()
            self._drive(tally, window)
            tally.unit("window", window * len(self.clients),
                       time.perf_counter() - started)
        return tally.stop()

    def fixed(self) -> Tally:
        tally = Tally()
        self._drive(tally, oplists.SERVE_TRACE_REQUESTS)
        return tally.stop()

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close(drain_s=10.0)
        self.thread.join(timeout=30)


WORKLOADS = {w.name: w for w in (Simulate, SweepBatched, ServeZipf)}
