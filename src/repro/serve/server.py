"""The ``repro serve`` daemon: gathering-as-a-service over HTTP/JSON.

Stdlib only (:class:`http.server.ThreadingHTTPServer`), one process,
five endpoints:

* ``POST /run`` — one ``(scenario, seed)`` simulation; body is the
  deterministic JSON of :func:`~repro.serve.protocol.run_body`.
* ``POST /sweep`` — a seed range, streamed as newline-delimited JSON in
  a chunked response: one run body per seed in seed order, then one
  deterministic summary line.  Per-seed lines share cache entries with
  ``/run``.
* ``GET /healthz`` — liveness (never touches the simulator or store),
  plus the readiness fields for humans.
* ``GET /readyz`` — readiness as a status code: 200 while the daemon
  should receive traffic, 503 while draining or while the circuit
  breaker is open (the worker pool keeps crashing).
* ``GET /metrics`` — request counters and latency histograms, cache
  counters, the robustness block (in-flight budget, breaker state,
  shed/deadline/coalesce/quarantine counters), and a
  ``repro-sweep-metrics-v1`` aggregate of everything the simulations
  recorded, namespaced per endpoint.

The daemon amortizes exactly the two costs the CLI pays per invocation:
interpreter + import startup (the process is long-lived) and worker-pool
construction (one shared :class:`~repro.resilience.ResilientExecutor`
survives across requests, rebuilding itself after breakage like any
sweep).  On top of that, determinism makes results cacheable forever:
repeated traffic is answered from the content-addressed
:class:`~repro.serve.store.ResultStore` at memory speed with
byte-identical bodies.

Self-protection (PR 9) mirrors the paper's wait-freedom at the HTTP
layer: a weighted in-flight budget sheds excess load as structured 429s
(``Retry-After`` included) instead of growing unbounded handler threads;
every request runs under a wall-clock deadline
(:class:`~repro.serve.admission.Deadline`) so a wedged seed becomes a
taxonomy-mapped 504 that frees its slot; concurrent duplicate ``/run``\\ s
coalesce onto one computation (:class:`~repro.serve.admission
.SingleFlight`); and a rolling-window circuit breaker flips ``/readyz``
when the worker pool keeps dying.  ``close()`` drains in-flight requests
gracefully before tearing the pool down.

Threading model: the HTTP layer is a thread per connection, and
simulation work runs in *slots*
(:class:`~repro.serve.admission.SimulationSlots`), one per process that
can compute.  A daemon with a warm pool has one slot per pool worker: a
dispatch of ``k`` seeds takes ``min(k, workers)`` of them, so misses for
different keys compute on every worker at once, while a sweep block,
which fills every worker, makes a concurrent ``/run`` wait for a slot
(against its deadline) rather than inside the pool.  The shared
:class:`~repro.resilience.ResilientExecutor` survives concurrent
callers: a breakage seen by one request rebuilds the pool once, and the
other requests' attempts are re-dispatched without a strike.  A daemon
without a pool computes in its own process and keeps one slot, because
each run's obs payload is a delta of the process-global registry, which
concurrent in-process runs would interleave.  Cache hits, ``/healthz``,
``/readyz`` and ``/metrics`` take no slot, so the daemon stays
responsive while cold requests compute.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from dataclasses import replace
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from .. import __version__
from .. import obs as _obs
from ..experiments.runner import Scenario, run_scenario, executor
from ..obs.aggregate import Aggregator
from ..obs.histogram import Histogram
from ..obs.log import LOG_SCHEMA, get_logger
from ..obs.log import hub as log_hub
from ..obs.metrics import Metrics
from ..obs.sink import JsonlStream
from ..obs.spans import SPANS_SCHEMA
from ..resilience import (
    ChaosPolicy,
    ListenError,
    OutputPathError,
    ReproError,
    RequestDeadlineError,
    RunPolicy,
    SeedTimeoutError,
    ServerDrainingError,
    ServerOverloadedError,
    TraceFormatError,
    WorkerCrashError,
)
from ..sim.trace import BACKEND
from . import protocol
from .admission import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    SimulationSlots,
    SingleFlight,
)
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .prometheus import exposition, wants_prometheus
from .protocol import SERVE_SCHEMA
from .store import ResultStore, result_key
from .tracing import REQUEST_ID_HEADER, RequestTrace, clean_request_id

__all__ = ["ReproServer"]

logger = logging.getLogger("repro.serve")
slog = get_logger(logger.name)

#: Seeds resolved (cache + compute) per flushed block of a sweep
#: stream — small enough for live progress, large enough to amortize
#: pool dispatch.  Also the deadline-check granularity of a sweep.
SWEEP_BLOCK = 16


def _key(scenario: Scenario, seed: int) -> str:
    """The store key of one run on this daemon's backend and code."""
    return result_key(
        scenario.to_dict(),
        seed,
        backend=BACKEND,
        engine=scenario.engine,
        code_version=__version__,
    )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: socketserver's default listen backlog is 5 — under a connection
    #: burst the excess lands in SYN retransmit (~1s stalls) before the
    #: admission controller ever sees it.  Load shedding must happen
    #: in-protocol (a fast structured 429), so accept generously and
    #: let admission do the rejecting.
    request_queue_size = 128


class ReproServer:
    """One daemon instance: HTTP server + warm pool + result store.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after construction) — what ``repro bench`` and the test suite use
    so parallel CI runs never collide.

    ``max_inflight`` bounds concurrently admitted work in weighted
    units (``/run`` = 1, ``/sweep`` = ``sweep_weight``); ``None``
    admits everything (in-flight work is still counted for drain and
    ``/metrics``).  ``request_deadline`` is the default wall-clock
    budget per request (overridable per request via ``"deadline_s"``).
    ``chaos`` defaults to ``REPRO_CHAOS`` from the environment; only
    its serve-scoped faults act here (worker-side faults reach the
    pool through the normal sweep machinery).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: Optional[int] = None,
        store_root: Optional[str] = None,
        cache_enabled: bool = True,
        memory_entries: int = 4096,
        policy: Optional[RunPolicy] = None,
        max_inflight: Optional[int] = None,
        sweep_weight: int = 4,
        request_deadline: Optional[float] = None,
        drain_timeout: float = 10.0,
        breaker_threshold: int = 5,
        breaker_window: float = 30.0,
        breaker_cooldown: float = 10.0,
        chaos: Optional[ChaosPolicy] = None,
        access_log: Optional[str] = None,
        trace_jsonl: Optional[str] = None,
    ) -> None:
        # In-memory state first (its argument checks acquire nothing);
        # then the telemetry files open and the socket binds, so a path
        # that cannot be written, or a port already taken, fails before
        # any pool, log sink or obs state exists.
        self.policy = policy or RunPolicy()
        if chaos is None:
            chaos = ChaosPolicy.from_env()
        self.chaos = chaos if chaos is not None and chaos.serve_enabled else None
        self.store = ResultStore(
            store_root, memory_entries=memory_entries, chaos=self.chaos
        )
        self.cache_enabled = cache_enabled
        self.request_deadline = request_deadline
        self.drain_timeout = drain_timeout
        self.admission = AdmissionController(
            max_inflight, sweep_weight=sweep_weight
        )
        self.flights = SingleFlight()
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            window_s=breaker_window,
            cooldown_s=breaker_cooldown,
        )
        self.aggregator = Aggregator()
        #: Request-level registry (latency histograms, request/cache
        #: counters), separate from the process-global simulation
        #: registry so request accounting never leaks into per-seed
        #: obs payloads.
        self.request_metrics = Metrics()
        #: Guards ``aggregator`` (see :meth:`_account`).
        self._account_lock = threading.Lock()
        self._draining = False
        self._chaos_lock = threading.Lock()
        self._chaos_seq: Dict[str, int] = {}
        meta = {"source": "repro-serve", "version": __version__}
        self._access_sink: Optional[JsonlStream] = None
        if access_log:
            self._access_sink = JsonlStream(access_log, LOG_SCHEMA, meta)
        #: Per-request span trees stream here (one repro-spans-v1 file
        #: shared by all handler threads); ``None`` disables request
        #: tracing entirely — no span objects are built.
        self._trace_writer: Optional[JsonlStream] = None
        if trace_jsonl:
            try:
                self._trace_writer = JsonlStream(
                    trace_jsonl, SPANS_SCHEMA, meta
                )
            except OutputPathError:
                self._close_telemetry()
                raise
        try:
            self.httpd = _Server((host, port), _Handler)
        except OSError as exc:
            self._close_telemetry()
            raise ListenError(
                f"cannot listen on {host}:{port}: {exc.strerror or exc}"
            ) from exc
        self._pool = None
        self._pool_cm = None
        if workers and workers > 1:
            # The warm pool: built once, shared by every request,
            # rebuilt transparently by the resilience layer on breakage.
            self._pool_cm = executor(workers, policy=self.policy)
            self._pool = self._pool_cm.__enter__()
        #: The simulation slots (see the threading model above): one
        #: per pool worker, or one for the daemon's own process.
        self._slots = SimulationSlots(
            self._pool.workers if self._pool is not None else 1
        )
        # Per-seed obs payloads (what /metrics aggregates) only exist
        # while the obs layer is on; the daemon is its natural owner.
        _obs.enable()
        #: Structured access logger; every request emits one
        #: ``http.access`` record through it (and any registered log
        #: sinks), carrying the request id end to end.
        self.access_logger = get_logger("repro.serve.access")
        # An access log is complete by contract — one record per
        # request, never rate-limited (the hub's limiter is for hot
        # failure paths; ``http.line``/``http.error`` stay capped).
        log_hub.rate_exempt.add("http.access")
        if self._access_sink is not None:
            log_hub.add_sink(self._access_sink.write)
        self.started = time.monotonic()
        self._serving = threading.Event()
        self.httpd.app = self

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Should a load balancer send this daemon traffic *now*?

        Liveness and readiness are different questions: a draining
        daemon and one whose worker pool keeps crashing are both alive
        (they answer ``/healthz``, they finish what they accepted) but
        neither should receive new work.
        """
        return not self._draining and self.breaker.state != CircuitBreaker.OPEN

    def serve_forever(self) -> None:
        self._serving.set()
        try:
            self.httpd.serve_forever()
        finally:
            self._serving.clear()

    def close(self, drain_s: Optional[float] = None) -> None:
        """Graceful shutdown: stop admitting, drain in-flight requests
        (up to ``drain_s`` seconds, default ``drain_timeout``), then
        close the socket and tear the pool down.  Idempotent (SIGTERM
        handler and ``finally`` both call it).
        """
        if drain_s is None:
            drain_s = self.drain_timeout
        # Flip readiness first: every new POST from here on is a 503,
        # and /readyz tells the balancer to look elsewhere.
        self._draining = True
        if self._serving.is_set():
            # shutdown() blocks on the serve loop exiting; calling it
            # when serve_forever never ran would wait forever.  Handler
            # threads for already-accepted connections keep running.
            self.httpd.shutdown()
        if not self.admission.drain(drain_s):
            inflight = self.admission.inflight
            slog.warning(
                "serve.drain_expired",
                f"drain deadline of {drain_s:.1f}s expired with "
                f"{inflight} unit(s) still in flight; closing anyway",
                drain_s=drain_s,
                inflight=inflight,
            )
        self.httpd.server_close()
        if self._pool_cm is not None:
            self._pool_cm.__exit__(None, None, None)
            self._pool_cm = self._pool = None
        self._close_telemetry()

    def _close_telemetry(self) -> None:
        """Close the span trace and the access log.  Closing promotes
        ``<path>.partial`` of the spans file to its final name, so it
        becomes whole exactly when the daemon finishes draining."""
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None
        if self._access_sink is not None:
            log_hub.remove_sink(self._access_sink.write)
            self._access_sink.close()
            self._access_sink = None

    # -- request tracing ---------------------------------------------------

    def start_trace(
        self, request_id: str, route: str, method: str
    ) -> Optional[RequestTrace]:
        """Open a per-request span tree, or ``None`` when tracing is
        off (no ``--trace-jsonl`` sink, or ``REPRO_SPANS`` vetoed).

        The ``None`` path is the zero-overhead guard: every tracing
        call site on the request path checks it with one comparison and
        builds nothing.
        """
        if self._trace_writer is None or not _obs.tracer.active:
            return None
        return RequestTrace(request_id, route, method, self._trace_writer)

    # -- admission / chaos -------------------------------------------------

    def admit(self, endpoint: str, weight: int) -> None:
        """Admission gate of every POST: draining beats overloaded."""
        if self._draining:
            raise ServerDrainingError(
                f"{endpoint}: daemon is draining for shutdown; "
                "no new work is admitted"
            )
        self.admission.acquire(weight, endpoint=endpoint)

    def chaos_slow(self, endpoint: str) -> None:
        """Deterministic slow-handler fault (serve-scoped chaos)."""
        if self.chaos is None or self.chaos.serve_slow <= 0.0:
            return
        with self._chaos_lock:
            attempt = self._chaos_seq.get(endpoint, 0)
            self._chaos_seq[endpoint] = attempt + 1
        if self.chaos.decide_serve("serve_slow", f"serve.{endpoint}", attempt):
            time.sleep(self.chaos.serve_slow_s)

    def deadline_for(self, requested: Optional[float]) -> Deadline:
        """The request's deadline: its own override, else the server's."""
        return Deadline(
            requested if requested is not None else self.request_deadline
        )

    # -- execution ---------------------------------------------------------

    def resolve_one(
        self,
        scenario: Scenario,
        seed: int,
        *,
        use_cache: bool,
        deadline: Deadline,
        prefix: str = "serve.run",
        trace: Optional[RequestTrace] = None,
    ) -> Tuple[str, str]:
        """The ``POST /run`` path: cache, then single-flight, then
        compute.

        Concurrent duplicates for the same content address coalesce
        onto one computation: the first becomes the leader, the rest
        wait for its bytes (state ``"coalesced"``) — determinism makes
        the leader's body *the* body, so followers lose nothing but the
        redundant work.
        """
        key = _key(scenario, seed)
        if not use_cache:
            [body] = self._bodies(
                scenario, [seed], [key], prefix, deadline, trace
            )
            return body, "bypass"
        lookup = None if trace is None else trace.begin("cache_lookup")
        body = self.store.get(key)
        if lookup is not None:
            trace.end(lookup, hit=body is not None)
        if body is not None:
            return body, "hit"
        flight_span = None if trace is None else trace.begin("singleflight")
        leader, flight = self.flights.lead_or_follow(key)
        if not leader:
            try:
                body = SingleFlight.wait(flight, deadline)
            finally:
                if flight_span is not None:
                    trace.end(flight_span, role="follower")
            return body, "coalesced"
        try:
            # Re-check under leadership: another leader (or daemon
            # sharing the disk layer) may have landed the entry between
            # our miss and winning the flight.
            body = self.store.get(key, count=False)
            state = "hit"
            if body is None:
                [body] = self._bodies(
                    scenario, [seed], [key], prefix, deadline, trace
                )
                self.store.put(key, body)
                state = "miss"
        except BaseException as exc:
            # Followers inherit the leader's failure — recomputing the
            # same pure function would fail the same way, and N copies
            # of one error must not become N computations.
            self.flights.finish(key, flight, error=exc)
            if flight_span is not None:
                trace.end(flight_span, role="leader", error=True)
            raise
        self.flights.finish(key, flight, body=body)
        if flight_span is not None:
            trace.end(flight_span, role="leader")
        return body, state

    def resolve(
        self,
        scenario: Scenario,
        seeds: Sequence[int],
        *,
        use_cache: bool,
        prefix: str,
        deadline: Optional[Deadline] = None,
        trace: Optional[RequestTrace] = None,
    ) -> List[Tuple[str, str]]:
        """``(body, cache_state)`` per seed, in seed order.

        The block execution path of ``/sweep``: look every seed up in
        the store, compute the misses in one (pooled) map, fill the
        store, and return deterministic bodies.  ``cache_state`` is
        ``"hit"`` / ``"miss"`` / ``"bypass"`` per seed.
        """
        if deadline is not None:
            deadline.check("before resolving a seed block")
        keys = [_key(scenario, seed) for seed in seeds]
        resolved: dict = {}
        todo: List[int] = []
        todo_keys: List[str] = []
        lookup = None
        if trace is not None and use_cache:
            lookup = trace.begin("cache_lookup", {"seeds": len(seeds)})
        for seed, key in zip(seeds, keys):
            body = self.store.get(key) if use_cache else None
            if body is not None:
                resolved[seed] = (body, "hit")
            else:
                todo.append(seed)
                todo_keys.append(key)
        if lookup is not None:
            trace.end(lookup, hits=len(seeds) - len(todo))
        if todo:
            bodies = self._bodies(
                scenario, todo, todo_keys, prefix, deadline, trace
            )
            state = "miss" if use_cache else "bypass"
            for seed, key, body in zip(todo, todo_keys, bodies):
                if use_cache:
                    self.store.put(key, body)
                resolved[seed] = (body, state)
        return [resolved[seed] for seed in seeds]

    def _bodies(
        self,
        scenario: Scenario,
        seeds: Sequence[int],
        keys: Sequence[str],
        prefix: str,
        deadline: Optional[Deadline],
        trace: Optional[RequestTrace],
    ) -> List[str]:
        """The run bodies of seeds the store missed (or was told to
        skip), computed in one dispatch."""
        results = self._execute(
            scenario, seeds, prefix=prefix, deadline=deadline, trace=trace
        )
        return [
            protocol.run_body(
                key,
                scenario,
                seed,
                result,
                backend=BACKEND,
                code_version=__version__,
            )
            for seed, key, result in zip(seeds, keys, results)
        ]

    def _deadline_policy(self, deadline: Optional[Deadline]) -> RunPolicy:
        """The run policy for one dispatch, deadline threaded in.

        When the request deadline is the binding constraint (tighter
        than the per-attempt ``--timeout``), the pooled attempt timeout
        is clamped to the remaining budget *and retries are disabled* —
        an attempt that consumed the whole request budget leaves
        nothing for a retry to run in, so retrying would only hold the
        admission slot past its deadline.
        """
        if deadline is None:
            return self.policy
        remaining = deadline.remaining()
        if remaining is None:
            return self.policy
        remaining = max(remaining, 0.001)
        if self.policy.timeout is None or remaining < self.policy.timeout:
            return replace(self.policy, timeout=remaining, retries=0)
        return self.policy

    def _execute(
        self,
        scenario: Scenario,
        seeds: Sequence[int],
        *,
        prefix: str,
        deadline: Optional[Deadline] = None,
        trace: Optional[RequestTrace] = None,
    ) -> List:
        """Run the missing seeds in simulation slots — one per seed,
        at most one per pool worker — through the warm pool, or
        serially in-process, both under the retry machinery, and fold
        their obs payloads into the aggregator under the endpoint's
        namespace.

        The deadline covers the queue too: waiting for free simulation
        slots (busy with other requests) draws from the same budget as
        computing, so a request stuck behind slow ones 504s instead of
        queueing unboundedly.  Worker-crash outcomes feed the circuit
        breaker.

        With tracing on, the whole dispatch (slot wait + pool run) is
        one ``worker_run`` span, and each result's span tail — the
        worker-side run/round/phase/kernel hierarchy shipped home in
        the obs payload — is grafted under it, stamped with the request
        id, so the server and worker timelines join in one trace.
        """
        from ..experiments.runner import parallel_map

        label = scenario.label()
        worker_span = None
        if trace is not None:
            worker_span = trace.begin(
                "worker_run", {"seeds": len(seeds), "scenario": label}
            )
        try:
            remaining = None if deadline is None else deadline.remaining()
            if not self._slots.acquire(len(seeds), timeout=remaining):
                raise RequestDeadlineError(
                    f"request deadline of {deadline.seconds}s exceeded while "
                    "queued for a simulation slot"
                )
            try:
                if deadline is not None:
                    deadline.check("while queued for a simulation slot")
                try:
                    results = parallel_map(
                        partial(run_scenario, scenario),
                        list(seeds),
                        pool=self._pool,
                        policy=self._deadline_policy(deadline),
                        keys=[f"{label}#seed{seed}" for seed in seeds],
                    )
                except WorkerCrashError:
                    self.breaker.record_failure()
                    raise
                except SeedTimeoutError:
                    if deadline is not None and deadline.expired:
                        raise RequestDeadlineError(
                            f"request deadline of {deadline.seconds}s "
                            "exceeded while computing"
                        ) from None
                    raise
                self.breaker.record_success()
            finally:
                self._slots.release(len(seeds))
            self._account(results, prefix)
        except BaseException:
            if worker_span is not None:
                trace.end(worker_span, error=True)
            raise
        if worker_span is not None:
            trace.end(worker_span)
            for result in results:
                trace.attach_worker_spans(
                    getattr(result, "obs", None), worker_span
                )
        return results

    def _account(self, results: Sequence, prefix: str) -> None:
        """Fold one dispatch's results into the aggregator; dispatches
        in different simulation slots finish concurrently."""
        agg = self.aggregator
        with self._account_lock:
            for result in results:
                agg.total_seeds += 1
                agg.seed_done(result, prefix)

    # -- request accounting ------------------------------------------------

    def observe_request(
        self, endpoint: str, elapsed: float, cache_state: Optional[str]
    ) -> None:
        self.request_metrics.inc(f"serve.{endpoint}.requests")
        self.request_metrics.observe_hist(
            f"serve.{endpoint}.latency_seconds", elapsed
        )
        if cache_state is not None:
            self.request_metrics.inc(f"serve.cache.{cache_state}")

    def observe_error(self, endpoint: str, exc: BaseException) -> int:
        """Count one failed request; returns the HTTP status to send."""
        status = getattr(exc, "http_status", 500)
        self.request_metrics.inc(f"serve.{endpoint}.errors")
        self.request_metrics.inc(f"serve.errors.status.{status}")
        if isinstance(exc, ServerOverloadedError):
            self.request_metrics.inc("serve.rejected")
            self.request_metrics.inc(f"serve.{endpoint}.rejected")
        elif isinstance(exc, RequestDeadlineError):
            self.request_metrics.inc("serve.deadline_exceeded")
            self.request_metrics.inc(f"serve.{endpoint}.deadline_exceeded")
        return status

    def metrics_document(self) -> dict:
        """The ``GET /metrics`` body: request layer + cache +
        robustness + sweep aggregate (``repro-sweep-metrics-v1``), in
        one document."""
        snapshot = self.request_metrics.snapshot()
        counters = snapshot.get("counters", {})
        hists = {}
        for name, data in snapshot.get("hists", {}).items():
            hist = Histogram.from_dict(data)
            data = dict(data)
            data["mean"] = hist.mean
            data["p50"] = hist.quantile(0.5)
            data["p99"] = hist.quantile(0.99)
            hists[name] = data
        store_counters = self.store.counters()
        with self._account_lock:
            sweep = self.aggregator.to_dict()
        return {
            "schema": "repro-serve-metrics-v1",
            "version": __version__,
            "uptime_s": time.monotonic() - self.started,
            "backend": BACKEND,
            "requests": dict(sorted(counters.items())),
            "request_latency": hists,
            "cache": store_counters,
            "robustness": {
                "ready": self.ready,
                "draining": self._draining,
                "breaker_state": self.breaker.state,
                "breaker": self.breaker.snapshot(),
                "inflight": self.admission.inflight,
                "max_inflight": self.admission.max_inflight,
                "sweep_weight": self.admission.sweep_weight,
                "rejected": counters.get("serve.rejected", 0),
                "deadline_exceeded": counters.get(
                    "serve.deadline_exceeded", 0
                ),
                "coalesced": self.flights.coalesced,
                "quarantined": store_counters["quarantined"],
            },
            "sweep": sweep,
        }

    def healthz_document(self) -> dict:
        return {
            "schema": SERVE_SCHEMA,
            "status": "ok",
            "ready": self.ready,
            "draining": self._draining,
            "breaker": self.breaker.state,
            "version": __version__,
            "backend": BACKEND,
            "uptime_s": time.monotonic() - self.started,
        }


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; all state lives on ``self.server.app``.

    Every request carries an id (``X-Repro-Request-Id``: propagated
    when the client supplies one, generated otherwise), echoed in the
    response headers and stamped into one structured ``http.access``
    record per request — request id, route, status, cache state,
    admission outcome, and duration.  ``BaseHTTPRequestHandler``'s own
    log lines are not dropped: malformed requests that never reach a
    ``do_*`` method surface as structured ``http.error`` /
    ``http.access`` records through the same logger.
    """

    server_version = f"repro-serve/{__version__}"
    # HTTP/1.1 for chunked sweep streams and keep-alive clients.
    protocol_version = "HTTP/1.1"
    # One write per response: with Nagle's algorithm on, a body written
    # after its headers waits for the client's delayed ACK (~40 ms on
    # every keep-alive request).  So the socket is TCP_NODELAY and wfile
    # is buffered.  Each response, sweep chunk and interim 100 Continue
    # is flushed once complete; the stdlib's own error responses are
    # flushed by handle_one_request or finish().
    disable_nagle_algorithm = True
    wbufsize = -1

    # Per-request bookkeeping; class-level defaults cover the stdlib
    # code paths (malformed request lines) that fire before any do_*
    # method initializes them.
    _in_request = False
    _rid: Optional[str] = None
    _route: Optional[str] = None
    _status: Optional[int] = None
    _cache_state: Optional[str] = None
    _admission: Optional[str] = None
    _trace: Optional[RequestTrace] = None
    _t0: float = 0.0
    _body_read = False

    # -- structured access log ---------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # The stdlib catch-all; anything not covered by log_request /
        # log_error below still lands in the structured stream.
        self.server.app.access_logger.debug(
            "http.line",
            format % args,
            remote=self.address_string(),
        )

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        # send_error()'s explanation line — including requests so
        # malformed they never reach a handler (bad request line,
        # unsupported HTTP version).
        self.server.app.access_logger.warning(
            "http.error",
            format % args,
            remote=self.address_string(),
        )

    def log_request(self, code="-", size="-") -> None:
        # Inside a handled request the rich access record from
        # _finish_access supersedes this line; outside one (send_error
        # before dispatch) it is the only trace the request leaves.
        if self._in_request:
            return
        self.server.app.access_logger.info(
            "http.access",
            f"{getattr(self, 'requestline', '-')} -> {code}",
            status=int(code) if str(code).isdigit() else None,
            request=getattr(self, "requestline", None),
            remote=self.address_string(),
        )

    def _begin_access(self, route: str) -> None:
        self._in_request = True
        self._t0 = time.perf_counter()
        self._rid = clean_request_id(self.headers.get(REQUEST_ID_HEADER))
        self._route = route
        self._status = None
        self._cache_state = None
        self._admission = None
        self._trace = None
        self._body_read = False

    def _finish_access(self) -> None:
        app = self.server.app
        elapsed = time.perf_counter() - self._t0
        if self._trace is not None:
            self._trace.finish(self._status or 0, self._cache_state)
            self._trace = None
        app.access_logger.info(
            "http.access",
            f"{self.command} {self.path} -> {self._status}",
            request_id=self._rid,
            method=self.command,
            route=self._route,
            path=self.path,
            status=self._status,
            cache=self._cache_state,
            admission=self._admission,
            duration_s=round(elapsed, 6),
            remote=self.address_string(),
        )
        self._in_request = False

    def send_response(self, code, message=None) -> None:
        self._status = code
        super().send_response(code, message)

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own refusals (a malformed request line, an
        unsupported HTTP version or method) as structured JSON errors.

        ``parse_request`` refuses some request lines before it has read
        their version, while ``request_version`` still says HTTP/0.9,
        which would suppress the status line and every header; those
        are answered in this server's HTTP version instead.
        """
        message = message or self.responses.get(code, ("???",))[0]
        self.log_error("code %d, message %s", code, message)
        if self.request_version == "HTTP/0.9":
            self.request_version = self.protocol_version
        data = protocol.error_body(
            ReproError(message), status=code
        ).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Repro-Schema", SERVE_SCHEMA)
        self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError:
            # The client left mid-request or mid-response: nothing more
            # can reach it, and that is no server error.  (After a sweep
            # logged http.client_gone, the stdlib's own flush of the
            # response re-raises here.)
            self.close_connection = True

    def finish(self) -> None:
        try:
            super().finish()
        except ConnectionError:
            # wfile.close() re-raised the flush a departed client
            # refused, after closing the socket file; the read side
            # still needs its close.
            self.rfile.close()

    def handle_expect_100(self) -> bool:
        # The client holds its body back until 100 Continue arrives, so
        # the interim response cannot wait in the buffer for the final one.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # -- plumbing ----------------------------------------------------------

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            # int() would accept "-1" (read until the client leaves,
            # holding the admission slot) or raise a bare ValueError.
            raise TraceFormatError(
                f"invalid Content-Length {raw!r}: expected a "
                "non-negative integer",
                path="<request>",
            )
        length = int(raw)
        if length > protocol.MAX_BODY_BYTES:
            # Refuse before reading: don't buffer an oversized body
            # just to reject it.
            raise TraceFormatError(
                f"request body of {length} bytes exceeds the "
                f"{protocol.MAX_BODY_BYTES}-byte limit",
                path="<request>",
            )
        self._body_read = True
        return self.rfile.read(length) if length else b""

    def _send_json(
        self,
        status: int,
        body: str,
        *,
        cache_state: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Repro-Schema", SERVE_SCHEMA)
        if self._rid is not None:
            self.send_header(REQUEST_ID_HEADER, self._rid)
        if cache_state is not None:
            self._cache_state = cache_state
            self.send_header("X-Repro-Cache", cache_state)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.command == "POST" and not self._body_read:
            # Refused before its body was read (unknown endpoint, shed,
            # draining, oversized): the unread bytes would be parsed as
            # the next request, so the connection ends with this
            # response.  Draining the body instead would make shedding
            # cost as much as the request it refuses.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def _send_error_json(self, endpoint: str, exc: BaseException) -> None:
        status = self.server.app.observe_error(endpoint, exc)
        extra = None
        retry_after = getattr(exc, "retry_after_s", None)
        if retry_after is not None:
            # The standard shed-and-back-off contract: an integer
            # Retry-After plus the structured 429 body.
            extra = {"Retry-After": str(max(1, math.ceil(retry_after)))}
        self._send_json(
            status,
            protocol.error_body(exc, status=status),
            extra_headers=extra,
        )

    def _write_chunk(self, data: bytes) -> None:
        # Size line, data and CRLF leave in one send, right away: the
        # stream stays live chunk by chunk.
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _end_chunks(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -- endpoints ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._begin_access(self.path.lstrip("/") or "/")
        try:
            self._do_get()
        finally:
            self._finish_access()

    def _do_get(self) -> None:
        app = self.server.app
        started = self._t0
        if self.path == "/healthz":
            body = json.dumps(app.healthz_document(), sort_keys=True) + "\n"
            self._send_json(200, body)
            app.observe_request("healthz", time.perf_counter() - started, None)
            return
        if self.path == "/readyz":
            # Readiness as a status code, for load balancers that only
            # look there; the JSON carries the reason for humans.
            ready = app.ready
            body = json.dumps(
                {
                    "schema": SERVE_SCHEMA,
                    "ready": ready,
                    "draining": app.draining,
                    "breaker": app.breaker.state,
                },
                sort_keys=True,
            ) + "\n"
            self._send_json(200 if ready else 503, body)
            app.observe_request("readyz", time.perf_counter() - started, None)
            return
        if self.path == "/metrics":
            # Content negotiation: the JSON document is the default;
            # an Accept asking for text/plain (or openmetrics) gets the
            # Prometheus exposition rendered *from* that same document.
            document = app.metrics_document()
            if wants_prometheus(self.headers.get("Accept", "")):
                self._send_json(
                    200,
                    exposition(document),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            else:
                body = json.dumps(document, sort_keys=True) + "\n"
                self._send_json(200, body)
            app.observe_request("metrics", time.perf_counter() - started, None)
            return
        self._send_json(
            404,
            protocol.error_body(
                ReproError(f"no such endpoint: GET {self.path}"), status=404
            ),
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        app = self.server.app
        if self.path == "/run":
            endpoint = "run"
        elif self.path == "/sweep":
            endpoint = "sweep"
        else:
            self._begin_access(self.path.lstrip("/") or "/")
            try:
                self._send_json(
                    404,
                    protocol.error_body(
                        ReproError(f"no such endpoint: POST {self.path}"),
                        status=404,
                    ),
                )
            finally:
                self._finish_access()
            return
        self._begin_access(endpoint)
        try:
            self._do_post(endpoint)
        finally:
            self._finish_access()

    def _do_post(self, endpoint: str) -> None:
        app = self.server.app
        self._trace = app.start_trace(self._rid, endpoint, "POST")
        # Admission before parsing: shedding must stay cheap, and a
        # draining daemon must not start new work of any size.
        weight = app.admission.weight_for(endpoint)
        wait_span = None
        if self._trace is not None:
            wait_span = self._trace.begin(
                "admission_wait", {"weight": weight}
            )
        try:
            app.admit(endpoint, weight)
        except ReproError as exc:
            self._admission = (
                "draining" if isinstance(exc, ServerDrainingError) else "shed"
            )
            if wait_span is not None:
                self._trace.end(wait_span, outcome=self._admission)
            self._send_error_json(endpoint, exc)
            return
        self._admission = "admitted"
        if wait_span is not None:
            self._trace.end(wait_span, outcome="admitted")
        # The slot is released *before* the terminal bytes go out (the
        # work they describe is already done): a sequential client whose
        # next request races the handler's epilogue must never be shed
        # by its own previous request.  Idempotent; the finally is the
        # backstop for handler crashes.
        released = [False]

        def release() -> None:
            if not released[0]:
                released[0] = True
                app.admission.release(weight)

        try:
            if endpoint == "run":
                self._handle_run(self._t0, release)
            else:
                self._handle_sweep(self._t0, release)
        finally:
            release()

    def _handle_run(self, started: float, release) -> None:
        app = self.server.app
        try:
            request = protocol.parse_run_request(
                protocol.parse_json_body(
                    self._read_body(), where="POST /run"
                )
            )
            use_cache = app.cache_enabled and request.use_cache
            deadline = app.deadline_for(request.deadline_s)
            # The chaos slow-handler fault sleeps *inside* the deadline
            # window — a slow handler is precisely what deadlines must
            # bound, so the fault draws from the request's budget.
            app.chaos_slow("run")
            deadline.check("in the request handler")
            body, cache_state = app.resolve_one(
                request.scenario,
                request.seed,
                use_cache=use_cache,
                deadline=deadline,
                trace=self._trace,
            )
        except ReproError as exc:
            release()
            self._send_error_json("run", exc)
            return
        except Exception as exc:
            # The HTTP boundary: anything unanticipated becomes a
            # structured 500, never a dead connection + traceback.
            logger.exception("POST /run failed")
            release()
            self._send_error_json(
                "run",
                ReproError(
                    f"internal error: {type(exc).__name__}: {exc}"
                ),
            )
            return
        # Account *before* the last byte goes out: a client may
        # read the response and immediately scrape /metrics, and
        # its own request must already be there.
        app.observe_request(
            "run", time.perf_counter() - started, cache_state
        )
        release()
        self._send_json(200, body, cache_state=cache_state)

    def _handle_sweep(self, started: float, release) -> None:
        app = self.server.app
        try:
            request = protocol.parse_sweep_request(
                protocol.parse_json_body(
                    self._read_body(), where="POST /sweep"
                )
            )
        except ReproError as exc:
            release()
            self._send_error_json("sweep", exc)
            return
        use_cache = app.cache_enabled and request.use_cache
        deadline = app.deadline_for(request.deadline_s)
        app.chaos_slow("sweep")
        try:
            # Expired before streaming began: a clean structured 504 is
            # still possible (after the first chunk it no longer is).
            deadline.check("in the request handler")
        except ReproError as exc:
            release()
            self._send_error_json("sweep", exc)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Repro-Schema", SERVE_SCHEMA)
        if self._rid is not None:
            self.send_header(REQUEST_ID_HEADER, self._rid)
        self.end_headers()
        verdicts: dict = {}
        misses = chunks = 0
        try:
            # The status line goes out before the first block computes.
            self.wfile.flush()
            # Stream block by block, in seed order: progress is live,
            # but the byte stream is a pure function of the request.
            # The deadline is checked per block — an expired budget
            # turns into the stream's (structured) last line.
            for i in range(0, len(request.seeds), SWEEP_BLOCK):
                try:
                    resolved = app.resolve(
                        request.scenario,
                        request.seeds[i : i + SWEEP_BLOCK],
                        use_cache=use_cache,
                        prefix="serve.sweep",
                        deadline=deadline,
                        trace=self._trace,
                    )
                except Exception as exc:
                    # Headers are gone; the error becomes the stream's
                    # last line, and the chunked coding still
                    # terminates cleanly.
                    if not isinstance(exc, ReproError):
                        logger.exception("POST /sweep failed mid-stream")
                    app.observe_error("sweep", exc)
                    release()
                    if not isinstance(exc, ReproError):
                        exc = ReproError(
                            f"internal error: {type(exc).__name__}: {exc}"
                        )
                    self._write_chunk(protocol.error_body(exc).encode("utf-8"))
                    self._end_chunks()
                    return
                for body, cache_state in resolved:
                    verdict = json.loads(body)["result"]["verdict"]
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1
                    misses += cache_state != "hit"
                    self._write_chunk(body.encode("utf-8"))
                    chunks += 1
            cache_state = None
            if use_cache:
                cache_state = "hit" if misses == 0 else "miss"
            self._cache_state = cache_state
            # Account before the terminating chunk: once the client's
            # read completes, this request is visible in /metrics.
            app.observe_request(
                "sweep", time.perf_counter() - started, cache_state
            )
            release()
            self._write_chunk(
                protocol.sweep_summary_line(
                    request.scenario, request.seeds, verdicts
                ).encode("utf-8")
            )
            self._end_chunks()
        except ConnectionError:
            # The client left mid-stream.  Nothing more can reach it,
            # and its leaving is no server failure: free the slot, end
            # the connection, count nothing, and say so once.
            release()
            self.close_connection = True
            app.access_logger.info(
                "http.client_gone",
                f"POST /sweep client left after {chunks} chunk(s)",
                request_id=self._rid,
                route=self._route,
                chunks=chunks,
            )
