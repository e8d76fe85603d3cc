"""Span tracing: run -> round -> phase -> kernel on one timeline.

Round events (:mod:`repro.obs.events`) say *what* each round did;
spans say *when* and *inside what*.  A :class:`Span` is a named time
range with an explicit parent/child id link and monotonic nanosecond
timestamps (``time.perf_counter_ns``), forming the hierarchy

* ``run`` — one span per engine run;
* ``round`` — one child per ATOM round / ASYNC tick;
* ``phase`` — the LOOK / COMPUTE / MOVE decomposition.  In ATOM the
  phases are round-global barriers, so each round carries three phase
  children; in ASYNC each *activation* is its own phase span (that
  interleaving is the whole point of the CORDA model);
* ``kernel`` — one leaf per instrumented geometry-kernel call,
  attributed to whatever phase was open when it ran.

Recording goes through the process-wide :data:`tracer` and is guarded
exactly like every other obs signal: call sites check
``obs.state.enabled`` first, so a disabled process allocates no span
objects (the no-alloc regression test covers this).  With observability
on, tracing defaults on too and can be vetoed with ``REPRO_SPANS=0``.

The tracer keeps a bounded in-memory tail (ring buffer) — enough for a
sweep worker to ship its recent spans home in the per-seed result
payload — and optionally streams every finished span to sinks, e.g. a
:class:`~repro.obs.sink.JsonlStream` writing the ``repro-spans-v1``
JSONL format:

* line 1 — header ``{"format": "repro-spans-v1", "meta": {...}}`` with
  the same ``repro-trace-v2`` meta block the event stream embeds;
* one line per finished span.

:func:`chrome_trace_events` converts serialized spans into the Chrome
trace-event JSON format (``ph: "X"`` complete events, microsecond
timestamps), which both ``chrome://tracing`` and Perfetto open
directly — that is what ``repro trace-export`` emits.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .hooks import call_each

__all__ = [
    "SPANS_SCHEMA",
    "Span",
    "Tracer",
    "tracer",
    "chrome_trace_events",
]

#: Schema identifier of the spans JSONL stream.
SPANS_SCHEMA = "repro-spans-v1"

#: Finished spans the tracer retains in memory (ring buffer).
DEFAULT_TAIL_CAPACITY = 8192


class Span:
    """One named time range on the trace timeline.

    ``span_id`` / ``parent_id`` encode the hierarchy explicitly (no
    reliance on emission order); ``start_ns`` is monotonic
    (``perf_counter_ns``), comparable within a process only.  ``seq``
    is the tracer-assigned completion number, used to slice per-seed
    tails out of a worker's ring buffer.
    """

    __slots__ = ("span_id", "parent_id", "name", "kind", "start_ns",
                 "duration_ns", "attrs", "seq")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 kind: str, start_ns: int,
                 attrs: Optional[dict] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start_ns = start_ns
        self.duration_ns = 0
        self.attrs = attrs
        self.seq = -1

    def to_dict(self) -> dict:
        payload = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "dur_ns": self.duration_ns,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


def _env_vetoed(value: Optional[str]) -> bool:
    return (value or "").strip().lower() in ("0", "false", "no", "off")


class Tracer:
    """The process-wide span recorder.

    Single-threaded by design (both engines are): the open-span stack
    *is* the current parent chain, so ``begin``/``end`` pairs nest
    without any caller-side bookkeeping.  ``active`` is a plain
    attribute so the hot-path guard stays one attribute read — call
    sites check ``obs.state.enabled and tracer.active``.
    """

    def __init__(self, capacity: int = DEFAULT_TAIL_CAPACITY) -> None:
        self.active = not _env_vetoed(os.environ.get("REPRO_SPANS"))
        self._next_id = 1
        self._stack: List[Span] = []
        self._tail: Deque[Span] = deque(maxlen=capacity)
        self._sinks: List[Callable[[Span], None]] = []
        #: Completion counter; per-seed payloads slice the tail on it.
        self.seq = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, kind: str,
              attrs: Optional[dict] = None) -> Span:
        """Open a span as a child of the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, kind,
                    time.perf_counter_ns(), attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span``, stamp its duration, and emit it."""
        span.duration_ns = time.perf_counter_ns() - span.start_ns
        # Normal callers close in LIFO order; tolerate a missed end()
        # higher up (an engine exception path) by unwinding to the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._emit(span)
        return span

    def complete(self, name: str, kind: str, start_ns: int, duration_ns: int,
                 attrs: Optional[dict] = None) -> Span:
        """Record an already-finished leaf span (kernel attribution:
        the timing wrapper only knows the duration after the call)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, kind, start_ns, attrs)
        self._next_id += 1
        span.duration_ns = duration_ns
        self._emit(span)
        return span

    def next_id(self) -> int:
        """Allocate a span id without opening a span.

        Used when grafting externally-recorded spans (a worker's span
        tail shipped home in a result payload) onto this tracer's tree:
        the grafted spans need ids that cannot collide with locally
        recorded ones.
        """
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def adopt(self, span: Span) -> Span:
        """Emit an externally-constructed, already-finished span.

        The span must carry ids from :meth:`next_id`; it gets a
        completion number and flows to the tail and sinks like any
        locally recorded span.
        """
        self._emit(span)
        return span

    def _emit(self, span: Span) -> None:
        self.seq += 1
        span.seq = self.seq
        self._tail.append(span)
        if self._sinks:
            # A broken sink is warned about once and removed; it never
            # takes the simulation down with it.
            call_each(self._sinks, (span,), "span_sink.quarantined",
                      "span sink", self.remove_sink)

    # -- sinks & tail ------------------------------------------------------

    def add_sink(self, sink: Callable[[Span], None]) -> Callable[[Span], None]:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Callable[[Span], None]) -> None:
        while sink in self._sinks:
            self._sinks.remove(sink)

    def tail(self, since_seq: int = 0) -> List[Span]:
        """Finished spans with completion number > ``since_seq`` that
        are still in the ring buffer (oldest first)."""
        return [s for s in self._tail if s.seq > since_seq]

    def reset(self) -> None:
        """Drop all state (test isolation); keeps ``active`` as is."""
        self._next_id = 1
        self._stack.clear()
        self._tail.clear()
        self._sinks.clear()
        self.seq = 0


#: The process-wide tracer all span instrumentation records into.
tracer = Tracer()


def chrome_trace_events(
    spans: List[dict],
    pid: int = 0,
    process_name: Optional[str] = None,
) -> List[dict]:
    """Serialized spans -> Chrome trace-event ``traceEvents`` entries.

    Every span becomes one complete event (``ph: "X"``) with
    microsecond timestamps; ``pid`` groups spans from one process onto
    one Perfetto track group (sweep exports use the worker pid).  Span
    and parent ids travel in ``args`` so the hierarchy survives even
    though the viewer nests by time containment.
    """
    events: List[dict] = []
    if process_name is not None:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        })
    for span in spans:
        args: Dict[str, object] = {
            "span_id": span["id"],
            "parent_id": span["parent"],
        }
        args.update(span.get("attrs") or {})
        events.append({
            "name": span["name"],
            "cat": span["kind"],
            "ph": "X",
            "ts": span["start_ns"] / 1000.0,
            "dur": span["dur_ns"] / 1000.0,
            "pid": pid,
            "tid": 0,
            "args": args,
        })
    return events
