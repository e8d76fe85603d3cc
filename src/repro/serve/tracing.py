"""Per-request span trees for the serve stack (``X-Repro-Request-Id``).

The worker-side span hierarchy (run → round → phase → kernel, PR 5)
stops at the process boundary: a slow ``POST /run`` is invisible between
socket accept and the first worker span.  This module extends the same
``repro-spans-v1`` machinery across the HTTP layer:

* every request gets an id — client-supplied ``X-Repro-Request-Id``
  propagated verbatim, otherwise server-generated — echoed in the
  response headers and stamped into every span and access-log record it
  touches;
* a :class:`RequestTrace` records the server-side tree ``request →
  admission_wait / cache_lookup / singleflight / worker_run`` on a
  *per-request* :class:`~repro.obs.spans.Tracer` (the process-global
  tracer is single-threaded by design; HTTP handlers are concurrent, so
  each request isolates its parent-chain stack on its own instance);
* the worker span tails shipped home in result payloads
  (``result.obs["spans"]``, the PR 5 attachment path) are grafted under
  the request's ``worker_run`` span: ids are re-allocated to the
  request tracer, timestamps are rebased from the worker's
  ``perf_counter_ns`` timeline onto the server's (the two clocks share
  no epoch), and every span is stamped with the request id — so one
  spans file joins HTTP-layer and simulation-layer timelines.

Tracing is wired only when the daemon is given a ``--trace-jsonl`` sink
and ``REPRO_SPANS`` is not vetoed; otherwise no span objects are built
anywhere on the request path (the serve counterpart of the engines'
no-alloc contract).
"""

from __future__ import annotations

import re
import uuid
from typing import List, Optional

from ..obs.sink import JsonlStream
from ..obs.spans import Span, Tracer

__all__ = [
    "REQUEST_ID_HEADER",
    "new_request_id",
    "clean_request_id",
    "RequestTrace",
]

#: The request-id header, both directions: propagated when the client
#: supplies it, generated and returned when it does not.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Accepted shape of a client-supplied id; anything else is replaced
#: (a response header must never echo arbitrary bytes back).
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def new_request_id() -> str:
    """A fresh server-generated request id (32 hex chars)."""
    return uuid.uuid4().hex


def clean_request_id(supplied: Optional[str]) -> str:
    """The request's id: the client's when well-formed, else a new one."""
    if supplied and _ID_PATTERN.match(supplied):
        return supplied
    return new_request_id()


class RequestTrace:
    """The span tree of one in-flight request.

    Opened at admission, closed by :meth:`finish` just before the
    response epilogue.  All methods run on the request's handler
    thread; the only shared state is the daemon's spans stream, which
    takes its own lock per line.
    """

    def __init__(
        self,
        request_id: str,
        route: str,
        method: str,
        stream: Optional[JsonlStream],
    ) -> None:
        self.request_id = request_id
        self.tracer = Tracer()
        self.tracer.active = True
        if stream is not None:
            self.tracer.add_sink(lambda span: stream.write(span.to_dict()))
        self.root = self.tracer.begin(
            "request",
            "request",
            attrs={
                "request_id": request_id,
                "route": route,
                "method": method,
            },
        )

    # -- server-side spans ---------------------------------------------------

    def begin(self, name: str, attrs: Optional[dict] = None) -> Span:
        merged = {"request_id": self.request_id}
        if attrs:
            merged.update(attrs)
        return self.tracer.begin(name, "serve", attrs=merged)

    def end(self, span: Span, **attrs) -> None:
        if attrs:
            span.attrs.update(attrs)
        self.tracer.end(span)

    def finish(self, status: int, cache_state: Optional[str] = None) -> None:
        """Close the root span, stamping the request's outcome."""
        self.root.attrs["status"] = status
        if cache_state is not None:
            self.root.attrs["cache"] = cache_state
        self.tracer.end(self.root)

    # -- worker-span grafting ------------------------------------------------

    def attach_worker_spans(
        self, payload: Optional[dict], worker_run: Span
    ) -> int:
        """Graft one result payload's span tail under ``worker_run``.

        Worker timestamps are ``perf_counter_ns`` of *that worker
        process* — meaningless on the server's timeline — so they are
        rebased: the earliest worker span start maps onto the server's
        ``worker_run`` start, preserving every in-worker interval.  Ids
        are re-allocated from the request tracer (worker ids restart at
        1 and would collide); internal parent links are remapped, and
        payload roots become children of ``worker_run``.  Every grafted
        span carries ``request_id`` and the worker ``pid``.

        Returns the number of spans grafted.
        """
        if not payload:
            return 0
        span_dicts: List[dict] = payload.get("spans") or []
        if not span_dicts:
            return 0
        pid = payload.get("pid")
        offset = worker_run.start_ns - min(
            d["start_ns"] for d in span_dicts
        )
        id_map = {
            d["id"]: self.tracer.next_id() for d in span_dicts
        }
        for d in span_dicts:
            attrs = dict(d.get("attrs") or {})
            attrs["request_id"] = self.request_id
            if pid is not None:
                attrs["worker_pid"] = pid
            span = Span(
                id_map[d["id"]],
                id_map.get(d["parent"], worker_run.span_id),
                d["name"],
                d["kind"],
                d["start_ns"] + offset,
                attrs,
            )
            span.duration_ns = d["dur_ns"]
            self.tracer.adopt(span)
        return len(span_dicts)
