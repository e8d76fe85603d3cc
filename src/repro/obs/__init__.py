"""Observability: structured events, counters/timers, profiling hooks.

A single process-wide toggle gates the whole subsystem.  When **off**
(the default) nothing is allocated, recorded or dispatched: call sites
guard on one attribute read (``state.enabled``), so the simulation hot
loop pays a few nanoseconds per round and the kernels one branch per
call.  When **on** (``REPRO_OBS=1`` in the environment, ``--obs`` on the
CLI, or :func:`enable` / :func:`observability` in code) these signals
light up:

events
    Both engines emit one :class:`~repro.obs.events.RoundEvent` per
    round/tick — the Section IV configuration class, multiplicity and
    spread, the elected target and whether it was a safe point, and the
    activated / crashed / moved sets.  Events flow to the registered
    ``on_round`` hooks and to per-class round counters in
    :data:`metrics`.

metrics
    A process-wide registry of counters and running aggregates
    (:mod:`repro.obs.metrics`).  The geometry kernels record per-kernel
    call counts and wall time with the active backend label, the Weber
    solver records Weiszfeld iteration counts and convergence residuals,
    and the experiment runner records per-worker throughput.

hooks
    :func:`~repro.obs.hooks.on_round` / ``on_kernel`` / ``on_run_end``
    registration (:mod:`repro.obs.hooks`); a hook that raises is warned
    about once and removed.

spans
    A span tracer (:mod:`repro.obs.spans`): run -> round -> phase
    (look/compute/move) -> kernel time ranges with explicit
    parent/child ids and monotonic timestamps, kept in a bounded ring.
    Tracing rides the same enabled guard (veto with ``REPRO_SPANS=0``).

streams
    One telemetry JSONL writer and one reader (:mod:`repro.obs.sink`)
    for three schemas: ``repro-obs-v1`` round events, ``repro-spans-v1``
    spans and ``repro-log-v1`` structured log records
    (:mod:`repro.obs.log`).  The events and spans header carries the
    same meta block as a ``repro-trace-v2`` archive, so a stream joins
    to its trace by seed and scenario.  ``repro stats`` and ``repro
    trace-export`` read the header tag and dispatch on it.

For sweep-scale runs, :mod:`repro.obs.aggregate` ships each worker's
registry snapshot and span tail home inside the per-seed result payload
and merges them — counters, stats, kernel timers and the fixed-bucket
histograms of :mod:`repro.obs.histogram` — into one ``sweep-metrics``
document; :mod:`repro.obs.dashboard` renders the merge live.

Layering: from the rest of ``repro`` this package imports only
``repro.resilience`` (the error taxonomy and the crash-safe file
helpers the stream writer and the sweep aggregate use), which in turn
imports nothing from ``repro.obs`` at import time — the pool reaches
the log hub through a deferred import.  So the engines, kernels and
runner can all import ``repro.obs`` without cycles.
``RoundEvent.from_record`` defers its ``repro.core`` / ``repro.sim``
imports to call time for the same reason.

The toggle is exported to ``REPRO_OBS`` in the environment on
:func:`enable`, mirroring the kernel-backend pinning of the experiment
runner: worker subprocesses resolve the flag at import time, so a sweep
profiled with ``--workers N`` instruments every worker.

Instrumentation never changes results: events and metrics are derived
from values the simulation already computed, and the CI ``obs`` job
replays the committed corpus with ``REPRO_OBS=1`` to prove instrumented
executions stay bit-identical to uninstrumented ones.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .aggregate import (
    SWEEP_METRICS_SCHEMA,
    Aggregator,
    write_sweep_metrics,
)
from .dashboard import SweepDashboard
from .events import OBS_SCHEMA, RoundEvent
from .histogram import Histogram
from .hooks import (
    clear_hooks,
    emit_kernel,
    emit_round,
    emit_run_end,
    on_kernel,
    on_round,
    on_run_end,
    remove_hook,
)
from .log import (
    LOG_SCHEMA,
    StructuredLogger,
    get_logger,
    summarize_log,
)
from .log import hub as log_hub
from .metrics import Metrics, metrics
from .sink import (
    Collector,
    ForeignHeaderError,
    JsonlStream,
    Stream,
    read_events,
    read_stream,
    round_events,
)
from .spans import (
    SPANS_SCHEMA,
    Span,
    Tracer,
    chrome_trace_events,
    tracer,
)

__all__ = [
    "OBS_SCHEMA",
    "SPANS_SCHEMA",
    "SWEEP_METRICS_SCHEMA",
    "LOG_SCHEMA",
    "StructuredLogger",
    "get_logger",
    "log_hub",
    "summarize_log",
    "Aggregator",
    "SweepDashboard",
    "write_sweep_metrics",
    "RoundEvent",
    "Metrics",
    "metrics",
    "Histogram",
    "Collector",
    "JsonlStream",
    "Stream",
    "ForeignHeaderError",
    "read_stream",
    "round_events",
    "read_events",
    "Span",
    "Tracer",
    "tracer",
    "chrome_trace_events",
    "on_round",
    "on_kernel",
    "on_run_end",
    "remove_hook",
    "clear_hooks",
    "emit_round",
    "emit_kernel",
    "emit_run_end",
    "state",
    "is_enabled",
    "enable",
    "disable",
    "observability",
    "record_round",
    "record_kernel",
    "record_run_end",
]


class _ObsState:
    """The toggle, as one attribute read on a slotted singleton.

    Call sites in per-round and per-kernel-call paths check
    ``state.enabled`` directly rather than calling :func:`is_enabled`:
    an attribute read is the cheapest guard Python offers, which is what
    makes the disabled path genuinely free.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


def _env_truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


#: The process-wide toggle; seeded from ``REPRO_OBS`` at import time.
state = _ObsState(_env_truthy(os.environ.get("REPRO_OBS")))


def is_enabled() -> bool:
    """Is the observability layer currently recording?"""
    return state.enabled


def enable() -> None:
    """Turn observability on, process-wide.

    Also exports ``REPRO_OBS=1`` so worker subprocesses started after
    this call (the experiment runner's pool, the differential checker's
    recorders) come up instrumented too.
    """
    state.enabled = True
    os.environ["REPRO_OBS"] = "1"


def disable() -> None:
    """Turn observability off and clear the environment export."""
    state.enabled = False
    os.environ.pop("REPRO_OBS", None)


@contextmanager
def observability(
    jsonl: Optional[str] = None,
    meta: Optional[dict] = None,
    spans_jsonl: Optional[str] = None,
) -> Iterator[Metrics]:
    """Enable observability for a block, optionally sinking to JSONL.

    Yields the process-wide :data:`metrics` registry.  With ``jsonl`` a
    ``repro-obs-v1`` :class:`JsonlStream` at that path records every
    round event and run-end summary; with ``spans_jsonl`` a
    ``repro-spans-v1`` one records every finished span.  Both are
    closed (and promoted) on exit.  ``meta`` (a ``repro-trace-v2`` meta
    dict) becomes their join header.  The previous toggle value is
    restored on exit.
    """
    hooks = []
    streams = []
    if jsonl:
        events = JsonlStream(jsonl, OBS_SCHEMA, meta)
        streams.append(events)
        hooks.append(on_round(lambda event: events.write(event.to_dict())))
        hooks.append(
            on_run_end(lambda summary: events.write({"run_end": summary}))
        )
    write_span = None
    if spans_jsonl:
        spans = JsonlStream(spans_jsonl, SPANS_SCHEMA, meta)
        streams.append(spans)
        write_span = tracer.add_sink(
            lambda span: spans.write(span.to_dict())
        )
    previous = state.enabled
    enable()
    try:
        yield metrics
    finally:
        if not previous:
            disable()
        for hook in hooks:
            remove_hook(hook)
        if write_span is not None:
            tracer.remove_sink(write_span)
        for stream in streams:
            stream.close()


# -- recording entry points (callers guard on ``state.enabled``) -------------


def record_round(event: RoundEvent, seconds: Optional[float] = None) -> None:
    """Account a round event in the metrics and dispatch round hooks.

    ``seconds`` (wall time of the round, when the engine measured it)
    feeds the fixed-bucket ``round_seconds`` latency histogram that the
    sweep aggregator merges across workers.
    """
    metrics.inc("rounds.total")
    metrics.inc(f"rounds.class.{event.config_class}")
    if event.crashed:
        metrics.inc("rounds.crashes", len(event.crashed))
    if seconds is not None:
        metrics.observe_hist("round_seconds", seconds)
    emit_round(event)


def record_kernel(name: str, seconds: float, backend: str) -> None:
    """Account one kernel call and dispatch kernel hooks.

    Also bins the latency into the ``kernel_seconds`` histogram and,
    when tracing is active, records a leaf ``kernel`` span attributed
    to the innermost open span (the phase that issued the call).
    """
    metrics.record_kernel(name, seconds, backend)
    metrics.observe_hist("kernel_seconds", seconds)
    if tracer.active:
        duration_ns = int(seconds * 1e9)
        tracer.complete(
            name,
            "kernel",
            time.perf_counter_ns() - duration_ns,
            duration_ns,
            attrs={"backend": backend},
        )
    emit_kernel(name, seconds, backend)


def record_run_end(summary: dict) -> None:
    """Account a finished run and dispatch run-end hooks."""
    metrics.inc("runs.total")
    verdict = summary.get("verdict")
    if verdict:
        metrics.inc(f"runs.verdict.{verdict}")
    emit_run_end(summary)
