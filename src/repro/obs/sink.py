"""Telemetry JSONL streams: the one writer, the one reader, and events.

Three record streams explain a run, and all three share one layout:

* line 1 — header ``{"format": <schema>, "meta": {...}}``;
* one JSON object per line after it.

==================  =========================================  ========
schema              one line per                               on disk
==================  =========================================  ========
``repro-obs-v1``    :class:`~repro.obs.events.RoundEvent`,     artifact
                    then ``{"run_end": {...}}`` summaries
``repro-spans-v1``  finished :class:`~repro.obs.spans.Span`    artifact
``repro-log-v1``    structured log record (:mod:`.log`)        live
==================  =========================================  ========

The events and spans header carries the *same* meta dict a
``repro-trace-v2`` archive embeds (scenario, seeds, backend, tolerance,
engine), so a stream and a trace recorded from the same run join on
``meta["seed"]`` / ``meta["scenario"]``.  Python floats serialize via
``repr``, which round-trips float64 exactly.

How a stream lands on disk is a property of its schema (:data:`SCHEMAS`),
not a caller's flag:

* an **artifact** streams into ``<path>.partial`` and is fsynced and
  atomically renamed to ``path`` on close, so the final path only ever
  holds a whole file — a run killed mid-stream leaves only the
  ``.partial`` (whose eager header still identifies it), never a
  truncated file where corpus globs would pick it up;
* a **live** stream (the log) is written at its final path and flushed
  per line, so it can be tailed while the process runs.

:class:`JsonlStream` writes all three; :func:`read_stream` reads all
three with one rule for a bad line; :func:`read_events` builds the
:class:`~repro.obs.events.RoundEvent` objects of an event stream.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..resilience import TraceFormatError, fsync_handle, promote
from .events import OBS_SCHEMA, RoundEvent
from .log import LOG_SCHEMA, get_logger
from .spans import SPANS_SCHEMA

__all__ = [
    "SCHEMAS",
    "Collector",
    "JsonlStream",
    "Stream",
    "ForeignHeaderError",
    "read_stream",
    "round_events",
    "read_events",
]

#: Every telemetry schema -> (what one record is, is the stream live?).
#: A live stream is written in place and flushed per line; the others
#: are artifacts, promoted from ``<path>.partial`` on a clean close.
SCHEMAS: Dict[str, Tuple[str, bool]] = {
    OBS_SCHEMA: ("event", False),
    SPANS_SCHEMA: ("span", False),
    LOG_SCHEMA: ("log", True),
}


class Collector:
    """In-memory ``on_round`` hook: keeps events and per-class counts.

    The CLI ``profile`` command registers one to turn the event stream
    into the per-class round-count table without a file in between.
    """

    def __init__(self) -> None:
        self.events: List[RoundEvent] = []
        self.class_counts: Dict[str, int] = {}

    def __call__(self, event: RoundEvent) -> None:
        self.events.append(event)
        self.class_counts[event.config_class] = (
            self.class_counts.get(event.config_class, 0) + 1
        )

    def __len__(self) -> int:
        return len(self.events)


class JsonlStream:
    """Thread-safe writer of one telemetry stream (see the module
    docstring for the layout and the artifact/live rule).

    The header is written eagerly, so even a stream cut short
    identifies itself.  :meth:`write` takes one JSON-ready dict; callers
    holding a ``RoundEvent`` or a ``Span`` pass its ``to_dict()``.

    A failed write (a full or vanished disk) quarantines the stream:
    one ``telemetry.write_failed`` warning names the path and the
    error, every later record is dropped, and an artifact is never
    promoted — its ``.partial`` stays for inspection.
    """

    def __init__(self, path: str, schema: str,
                 meta: Optional[dict] = None) -> None:
        self.path = path
        self.schema = schema
        self._live = SCHEMAS[schema][1]
        self._target = path if self._live else path + ".partial"
        self._lock = threading.Lock()
        #: ``"<ExceptionType>: <message>"`` of the failure that
        #: quarantined the stream, or ``None`` while it is healthy.
        self._error: Optional[str] = None
        self._handle = open(self._target, "w", encoding="utf-8")
        self.write({"format": schema, "meta": meta})

    def write(self, record: dict) -> None:
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            if self._handle is None or self._error is not None:
                return
            try:
                self._handle.write(line)
                if self._live:
                    self._handle.flush()
                return
            except OSError as exc:
                self._error = f"{type(exc).__name__}: {exc}"
        self._report()

    def close(self) -> None:
        """Flush and close; promote an artifact that never failed."""
        with self._lock:
            handle, self._handle = self._handle, None
            if handle is None:
                return
            healthy = self._error is None
            try:
                try:
                    if healthy and not self._live:
                        fsync_handle(handle)
                finally:
                    handle.close()
                if healthy and not self._live:
                    promote(self._target, self.path)
            except OSError as exc:
                if healthy:
                    self._error = f"{type(exc).__name__}: {exc}"
        if healthy and self._error is not None:
            self._report()

    def _report(self) -> None:
        # Outside the lock: when this is the log stream, the warning
        # comes straight back to write(), which drops it.
        kept = "" if self._live else f"; {self._target} is kept, not promoted"
        get_logger("repro.obs.sink").warning(
            "telemetry.write_failed",
            f"{self.schema} stream {self.path} failed ({self._error}); "
            f"dropping every later record{kept}",
            path=self.path,
            schema=self.schema,
            error=self._error,
        )


class Stream(NamedTuple):
    """One telemetry stream read back by :func:`read_stream`."""

    path: str
    schema: str
    meta: Optional[dict]
    records: List[dict]
    #: The 1-based file line of each record, for error messages.
    lines: List[int]


class ForeignHeaderError(ValueError):
    """Line 1 is not a telemetry stream header.

    ``tag`` is the ``format`` that line names (a sweep journal, a
    one-line trace archive), or ``None`` when it names none.
    """

    def __init__(self, message: str, tag: Optional[str]) -> None:
        super().__init__(message)
        self.tag = tag


def read_stream(path: str) -> Stream:
    """Read any telemetry stream (:data:`SCHEMAS`) back.

    Raises :class:`ForeignHeaderError` (a plain :class:`ValueError`)
    when line 1 is not a telemetry header.  Every other line must be a
    UTF-8 JSON object (blank lines are skipped); a bad one raises
    :class:`~repro.resilience.errors.TraceFormatError` with the path,
    its 1-based line and the offset within it.  The one exception is a
    final line without its newline in a live stream: that is a torn
    write of a process that died mid-line, and it is dropped.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        try:
            header = json.loads(first.decode("utf-8"))
        except ValueError:  # undecodable bytes or JSON alike
            header = None
        tag = header.get("format") if isinstance(header, dict) else None
        if not isinstance(tag, str):
            tag = None
        if tag not in SCHEMAS:
            found = "no JSONL header" if tag is None else f"format {tag!r}"
            raise ForeignHeaderError(
                f"{path!r} is not a telemetry stream ({found})", tag
            )
        body = handle.read()
    noun, live = SCHEMAS[tag]
    chunks = body.split(b"\n")
    if live:
        chunks.pop()  # b"" after the last newline, or a torn write
    records: List[dict] = []
    lines: List[int] = []
    for line_no, chunk in enumerate(chunks, start=2):
        if not chunk.strip():
            continue
        try:
            record = json.loads(chunk.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{path}: undecodable {noun} line {line_no}: binary "
                f"garbage at byte {exc.start}",
                path=path,
                line=line_no,
                offset=exc.start,
            ) from exc
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}: undecodable {noun} line {line_no}: {exc.msg} "
                f"(stream truncated or corrupted)",
                path=path,
                line=line_no,
                offset=exc.pos,
            ) from exc
        if not isinstance(record, dict):
            raise TraceFormatError(
                f"{path}: {noun} line {line_no} is not an object",
                path=path,
                line=line_no,
            )
        records.append(record)
        lines.append(line_no)
    return Stream(path, tag, header.get("meta"), records, lines)


def round_events(stream: Stream) -> Tuple[List[RoundEvent], List[dict]]:
    """An event stream's ``(events, run_end_summaries)``.

    Raises :class:`ValueError` for any other schema, and
    :class:`~repro.resilience.errors.TraceFormatError` naming the line
    of a record that is not a round event.
    """
    path = stream.path
    if stream.schema != OBS_SCHEMA:
        raise ValueError(f"{path!r} is not a {OBS_SCHEMA} event stream")
    events: List[RoundEvent] = []
    run_ends: List[dict] = []
    for record, line_no in zip(stream.records, stream.lines):
        if "run_end" in record:
            run_ends.append(record["run_end"])
            continue
        try:
            events.append(RoundEvent.from_dict(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{path}: malformed event line {line_no}: {exc}",
                path=path,
                line=line_no,
            ) from exc
    return events, run_ends


def read_events(
    path: str,
) -> Tuple[Optional[dict], List[RoundEvent], List[dict]]:
    """Read a JSONL event stream: ``(meta, events, run_end_summaries)``.

    A missing or foreign header is a plain :class:`ValueError`; a
    corrupted or malformed line is a
    :class:`~repro.resilience.errors.TraceFormatError` with its line.
    """
    stream = read_stream(path)
    events, run_ends = round_events(stream)
    return stream.meta, events, run_ends
