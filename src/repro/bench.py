"""Benchmark record — ``repro-gather bench``.

Measures the scaling numbers that README.md and EXPERIMENTS.md publish
and appends them, with the host they ran on, to ``BENCH_micro.json`` at
the repo root by default.  The file is a record, not a gate: timing
regressions are caught by ``perfbench/``, whose workloads also check
every result against committed digests.

Schema (``repro-bench/1``)
--------------------------
Each run document carries ``platform``, ``python_version``,
``numpy_version`` and ``cpu_count``, then these sections:

``round_throughput``
    One entry per n: seconds for one fully-synchronous ATOM round of
    ``wait-free-gather`` on a random workload on the scalar engine, and
    the derived ``robots_per_s``.
``batch_round_throughput``
    One entry per n: seconds for one vectorized
    :class:`~repro.sim.BatchedSimulation` round stepping ``n_sims``
    seeds at once, plus the derived ``per_seed_round_s`` and
    ``seed_rounds_per_s``.  Empty when NumPy is not installed, which
    the batched engine needs.
``serve_request_latency``
    Cold-vs-warm ``POST /run`` latency against an in-process
    ``repro serve`` daemon on an ephemeral port: ``cold_s`` is the
    first request (cache miss, full simulation), ``warm_s`` the best of
    five cache hits (recorded as ``repeats``).  Skipped (empty) when the
    loopback socket cannot bind.
``serve_shed_latency``
    Response latency under synthetic overload (all clients firing at
    once), once with ``--max-inflight`` admission control and once
    unbounded: p50/p99/max plus the shed count per mode.
``speedups``
    Batched-over-scalar per-seed-round ratios per size
    (``metric: "batch_round_throughput"``): ``scalar_round_s`` over
    ``batched_per_seed_s``, when the batched rounds ran.

Timing methodology: wall-clock ``time.perf_counter`` around the call.
One round is seconds to minutes of work at the larger sizes, so rounds
are timed once; warm serve requests take the best of five.

History (``repro-bench/2``)
---------------------------
The file on disk is a *history*, not a single run: ``latest`` holds the
most recent run document and ``runs`` an append-only array of
``{git_sha, recorded_at, document}`` entries, one per ``repro bench``
invocation — the perf trajectory across commits.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from http.client import HTTPConnection
from typing import Callable, Dict, List, Optional, Sequence

from .algorithms import WaitFreeGather
from .geometry import kernels
from .resilience import TraceFormatError, atomic_write
from .sim import BatchedSimulation, Simulation
from .sim.scheduler import FullySynchronous
from .workloads import generate

__all__ = [
    "run_bench",
    "write_bench",
    "load_history",
    "DEFAULT_SIZES",
    "QUICK_SIZES",
]

#: Schema of one benchmark run's document.
SCHEMA = "repro-bench/1"
#: Schema of the on-disk file: a history of run documents.
HISTORY_SCHEMA = "repro-bench/2"
DEFAULT_SIZES = [16, 64, 256]
QUICK_SIZES = [16, 64]

#: Workload seed shared by all benchmarks: timings are comparable across
#: runs and engines because everybody measures the same point set.
_SEED = 42

#: Sims stepped together per batched-round measurement, by team size:
#: large batches where rounds are cheap, small where one round is
#: already seconds of work.  Sizes outside the table fall back to
#: roughly 1024 robots per batch.
_BATCH_SIMS = {16: 256, 64: 64, 256: 8}


def _one_round_seconds(n: int) -> float:
    """One fully-synchronous round of the paper's algorithm, timed."""
    sim = Simulation(
        WaitFreeGather(),
        generate("random", n, _SEED),
        scheduler=FullySynchronous(),
        seed=1,
    )
    start = time.perf_counter()
    sim.step()
    return time.perf_counter() - start


def _batched_round_seconds(n: int, n_sims: int) -> float:
    """One vectorized batched round over ``n_sims`` seeds, timed.

    Mirrors :func:`_one_round_seconds` — same algorithm, workload
    family and fully-synchronous activation — so ``round_s / n_sims``
    compares directly against the scalar round time.
    """
    sims = BatchedSimulation(
        [WaitFreeGather() for _ in range(n_sims)],
        [generate("random", n, _SEED + i) for i in range(n_sims)],
        schedulers=[FullySynchronous() for _ in range(n_sims)],
        seeds=list(range(1, n_sims + 1)),
    )
    start = time.perf_counter()
    sims.step_round()
    return time.perf_counter() - start


def _post_run(host: str, port: int, payload: dict) -> int:
    """One ``POST /run`` round trip on a fresh connection -> status."""
    conn = HTTPConnection(host, port, timeout=120.0)
    try:
        conn.request(
            "POST",
            "/run",
            body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


#: Scenario served by the request-latency benchmark: small enough that
#: the cold request finishes in tens of milliseconds, deterministic so
#: every warm repetition hits the same cache entry.
_SERVE_SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5_000,
}
#: Warm cache hits timed per bench run.  Each is sub-millisecond, so
#: five cost nothing and make the best-of robust to scheduler noise.
_WARM_REPEATS = 5


def _serve_request_latency() -> List[Dict]:
    """Cold/warm ``POST /run`` timings against an in-process daemon.

    Returns a one-entry list (schema-wise a section like the others), or
    an empty list when the loopback socket cannot bind — bench must
    degrade, not die, in network-less sandboxes.
    """
    import threading

    from .serve.server import ReproServer

    try:
        server = ReproServer(port=0)
    except OSError:
        return []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        payload = {"scenario": _SERVE_SCENARIO, "seed": 0}

        start = time.perf_counter()
        status = _post_run(server.host, server.port, payload)
        cold_s = time.perf_counter() - start
        if status != 200:
            return []

        warm = []
        for _ in range(_WARM_REPEATS):
            start = time.perf_counter()
            _post_run(server.host, server.port, payload)
            warm.append(time.perf_counter() - start)
    finally:
        server.close()
        thread.join(timeout=30)
    warm_s = min(warm)
    return [
        {
            "endpoint": "run",
            "n": _SERVE_SCENARIO["n"],
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_mean_s": sum(warm) / len(warm),
            "repeats": _WARM_REPEATS,
            "speedup": cold_s / warm_s,
        }
    ]


def _serve_shed_latency(threads: int = 8, per_thread: int = 4) -> List[Dict]:
    """Response latency under real overload, with and without admission
    control.

    ``threads * per_thread`` uncacheable requests (``"cache": false`` —
    every one computes) arrive at once and serialize behind the daemon's
    single simulation slot.  With ``--max-inflight`` the daemon sheds
    the excess as instant 429s, so the latency distribution stays flat;
    unbounded, every request queues behind the slot and the tail grows
    linearly with the offered load.  Recorded (p50/p99/shed per mode)
    for the load-shed table in EXPERIMENTS.md.
    """
    import threading as _threading

    from .serve.server import ReproServer

    entries: List[Dict] = []
    for mode, max_inflight in (("admission", 2), ("unbounded", None)):
        try:
            server = ReproServer(port=0, max_inflight=max_inflight)
        except OSError:
            return entries
        thread = _threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            payload = {
                "scenario": _SERVE_SCENARIO,
                "seed": 0,
                "cache": False,
            }
            status = _post_run(server.host, server.port, payload)
            if status != 200:
                return entries
            latencies: List[float] = []
            shed = [0]
            lock = _threading.Lock()
            barrier = _threading.Barrier(threads)

            def client_thread():
                barrier.wait()
                for _ in range(per_thread):
                    start = time.perf_counter()
                    response_status = _post_run(
                        server.host, server.port, payload
                    )
                    elapsed = time.perf_counter() - start
                    with lock:
                        latencies.append(elapsed)
                        if response_status == 429:
                            shed[0] += 1

            workers = [
                _threading.Thread(target=client_thread)
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            server.close()
            thread.join(timeout=30)
        latencies.sort()
        offered = len(latencies)
        entries.append(
            {
                "mode": mode,
                "max_inflight": max_inflight,
                "offered": offered,
                "ok": offered - shed[0],
                "shed": shed[0],
                "p50_s": latencies[offered // 2],
                "p99_s": latencies[min(offered - 1, (offered * 99) // 100)],
                "max_s": latencies[-1],
            }
        )
    return entries


def run_bench(
    sizes: Optional[Sequence[int]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the full benchmark matrix and return the JSON-ready document."""
    sizes = list(sizes if sizes is not None else DEFAULT_SIZES)
    say = progress or (lambda message: None)
    numpy = kernels.numpy_module()

    round_throughput: List[Dict] = []
    for n in sizes:
        say(f"round n={n}")
        round_s = _one_round_seconds(n)
        round_throughput.append(
            {"n": n, "round_s": round_s, "robots_per_s": n / round_s}
        )

    batch_round_throughput: List[Dict] = []
    if numpy is not None:
        for n in sizes:
            n_sims = _BATCH_SIMS.get(n, max(2, 1024 // max(n, 1)))
            say(f"batched round n={n} sims={n_sims}")
            round_s = _batched_round_seconds(n, n_sims)
            batch_round_throughput.append(
                {
                    "n": n,
                    "n_sims": n_sims,
                    "round_s": round_s,
                    "per_seed_round_s": round_s / n_sims,
                    "seed_rounds_per_s": n_sims / round_s,
                }
            )

    say("serve request latency (cold vs warm)")
    serve_request_latency = _serve_request_latency()

    say("serve shed latency (overload, admission on/off)")
    serve_shed_latency = _serve_shed_latency()

    speedups = [
        {
            "metric": "batch_round_throughput",
            "n": batch["n"],
            "scalar_round_s": scalar["round_s"],
            "batched_per_seed_s": batch["per_seed_round_s"],
            "speedup": scalar["round_s"] / batch["per_seed_round_s"],
        }
        for scalar, batch in zip(round_throughput, batch_round_throughput)
    ]

    return {
        "schema": SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python_version": sys.version.split()[0],
        "numpy_version": numpy.__version__ if numpy is not None else None,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": {"kind": "random", "seed": _SEED},
        "sizes": sizes,
        "round_throughput": round_throughput,
        "batch_round_throughput": batch_round_throughput,
        "serve_request_latency": serve_request_latency,
        "serve_shed_latency": serve_shed_latency,
        "speedups": speedups,
    }


def _git_sha() -> Optional[str]:
    """HEAD commit of the working directory's repo, or ``None``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def load_history(path: str) -> Dict:
    """Read a ``repro-bench/2`` history file.

    Corrupted JSON or any other schema raises
    :class:`~repro.resilience.errors.TraceFormatError` (a
    :class:`ValueError`) carrying the path and, for syntax errors,
    the line/offset — so a stale or truncated file fails loudly rather
    than being silently clobbered by the next bench run.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"{path}: corrupted bench history: invalid JSON at line "
            f"{exc.lineno} column {exc.colno}: {exc.msg}",
            path=path,
            line=exc.lineno,
            offset=exc.pos,
        ) from exc
    except OSError as exc:
        raise TraceFormatError(
            f"{path}: cannot read bench history: {exc}", path=path
        ) from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: not a text file (binary garbage at byte "
            f"{exc.start})",
            path=path,
            offset=exc.start,
        ) from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema == HISTORY_SCHEMA:
        return data
    raise TraceFormatError(
        f"{path!r} is not a {HISTORY_SCHEMA} file (schema={schema!r})",
        path=path,
    )


def write_bench(document: Dict, path: str) -> None:
    """Append ``document`` to the bench history at ``path``.

    ``latest`` always mirrors the newest run; the ``runs`` array keeps every prior run (keyed by git SHA
    and timestamp), which is what makes the performance trajectory
    across commits recoverable from the file alone.

    The history is written atomically (temp file + fsync + rename): an
    interrupt mid-append leaves the previous history intact instead of
    a truncated JSON that poisons every later ``load_history``.
    """
    if os.path.exists(path):
        history = load_history(path)
    else:
        history = {"schema": HISTORY_SCHEMA, "latest": None, "runs": []}
    history["runs"].append(
        {
            "git_sha": _git_sha(),
            "recorded_at": document.get("generated_at"),
            "document": document,
        }
    )
    history["latest"] = document
    atomic_write(path, json.dumps(history, indent=2, sort_keys=False) + "\n")
