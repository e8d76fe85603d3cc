"""Structured, process-wide JSONL logging (``repro-log-v1``).

The repo's other observability streams — events, spans, metrics — are
machine-first: schema-versioned JSONL with a header line, readable by the
same CLI that wrote them.  Operational logging historically was not: a
handful of ad-hoc ``logging.warning(... "(warning once)")`` and
``warnings.warn`` sites scattered across the pool, the hook dispatcher,
and the result store, none of which land anywhere a tool can read.  This
module gives those sites one structured hub:

* **leveled records** — ``debug/info/warning/error``, each a JSON dict
  with ``ts`` (wall clock), ``level``, ``logger``, ``event`` (a stable
  machine key like ``store.write_error``), ``msg`` (human text), and
  free-form ``fields``;
* **warn-once dedup** — :meth:`StructuredLogger.warn_once` emits the
  first record for a key and counts the rest, replacing the scattered
  module-level ``_warned`` sets;
* **rate limiting** — per ``(logger, event)`` token budget per interval;
  suppressed records are counted and surface as one ``log.suppressed``
  notice when the window rolls, so a hot failure path cannot flood disk;
* **quarantining sinks** — a sink that raises is removed after one
  complaint on stdlib logging (the hub cannot log through itself).

Records always mirror to the stdlib :mod:`logging` tree (logger name =
record's ``logger``), so existing handlers, ``caplog``, and operator
habits keep working; attached sinks additionally get the dict.  The
``repro-log-v1`` file is one more sink: the telemetry writer
:class:`~repro.obs.sink.JsonlStream` writes it in place, flushed per
line so it can be tailed, and :func:`~repro.obs.sink.read_stream`
reads it back.

The module is intentionally **stdlib-only with no intra-repo imports**:
``repro.obs`` imports from ``repro.resilience``, and the pool needs to
log — keeping this leaf module dependency-free lets every layer use it
(the pool imports it lazily to stay clear of the package cycle).
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Dict, List, Tuple

__all__ = [
    "LOG_SCHEMA",
    "LEVELS",
    "LogHub",
    "StructuredLogger",
    "get_logger",
    "hub",
    "summarize_log",
]

LOG_SCHEMA = "repro-log-v1"

#: Level names in severity order; records carry the name, not a number.
LEVELS = ("debug", "info", "warning", "error")

_STDLIB_LEVEL = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

#: Default rate limit: at most this many records per (logger, event) key
#: per interval; the first overflow in a window is announced once.
RATE_LIMIT_BURST = 50
RATE_LIMIT_INTERVAL_S = 60.0


class LogHub:
    """Process-wide fan-out point for structured log records.

    One instance (:data:`hub`) serves the whole process.  It owns the
    sink list, the warn-once registry, and the rate limiter; loggers
    obtained via :func:`get_logger` are thin named fronts over it.
    Thread-safe: serve handlers log from concurrent threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: List[Callable[[dict], None]] = []
        self._warned: Dict[str, int] = {}
        self._windows: Dict[Tuple[str, str], Tuple[float, int]] = {}
        self.rate_burst = RATE_LIMIT_BURST
        self.rate_interval_s = RATE_LIMIT_INTERVAL_S
        self.mirror_stdlib = True
        #: Events never rate-limited.  The limiter protects against hot
        #: *failure* paths flooding disk; per-request records like an
        #: access log are complete by contract, so their emitters opt
        #: out here (survives :meth:`reset`, like the rate knobs).
        self.rate_exempt: set = set()

    # -- wiring --------------------------------------------------------------

    def add_sink(self, sink: Callable[[dict], None]) -> None:
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[dict], None]) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def reset(self) -> None:
        """Drop sinks, warn-once memory, and rate windows (tests)."""
        with self._lock:
            self._sinks.clear()
            self._warned.clear()
            self._windows.clear()

    def warned_keys(self) -> Dict[str, int]:
        """Copy of the warn-once registry: key → times seen."""
        with self._lock:
            return dict(self._warned)

    # -- emission ------------------------------------------------------------

    def emit(self, logger: str, level: str, event: str, msg: str, fields: dict) -> None:
        """Build, rate-limit, mirror, and fan out one record."""
        now = time.time()
        suppressed_notice = None
        if event not in self.rate_exempt:
            with self._lock:
                key = (logger, event)
                start, count = self._windows.get(key, (now, 0))
                if now - start >= self.rate_interval_s:
                    if count > self.rate_burst:
                        suppressed_notice = (key, count - self.rate_burst, start)
                    start, count = now, 0
                count += 1
                self._windows[key] = (start, count)
                if count > self.rate_burst:
                    return
        if suppressed_notice is not None:
            (s_logger, s_event), dropped, since = suppressed_notice
            self._fan_out(
                {
                    "ts": now,
                    "level": "warning",
                    "logger": s_logger,
                    "event": "log.suppressed",
                    "msg": f"rate limit: suppressed {dropped} {s_event!r} records",
                    "fields": {
                        "suppressed_event": s_event,
                        "dropped": dropped,
                        "window_s": round(now - since, 3),
                    },
                }
            )
        record = {
            "ts": now,
            "level": level,
            "logger": logger,
            "event": event,
            "msg": msg,
        }
        if fields:
            record["fields"] = fields
        self._fan_out(record)

    def warn_once(self, logger: str, key: str, event: str, msg: str, fields: dict) -> bool:
        """Emit a warning for ``key`` the first time only; count repeats.

        Returns True when the record was emitted (first sighting).
        """
        with self._lock:
            seen = self._warned.get(key, 0)
            self._warned[key] = seen + 1
            if seen:
                return False
        merged = dict(fields)
        merged["warn_once_key"] = key
        self.emit(logger, "warning", event, msg + " (warning once)", merged)
        return True

    def _fan_out(self, record: dict) -> None:
        if self.mirror_stdlib:
            logging.getLogger(record["logger"]).log(
                _STDLIB_LEVEL.get(record["level"], logging.INFO),
                "%s: %s",
                record["event"],
                record["msg"],
            )
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(record)
            except Exception as exc:  # noqa: BLE001 - sink bugs must not kill callers
                # Quarantine by removal.  The complaint goes to stdlib
                # logging: the hub cannot log through itself.
                self.remove_sink(sink)
                logging.getLogger("repro.obs.log").warning(
                    "log sink %r raised %s: %s; quarantining it", sink, type(exc).__name__, exc
                )


#: The process-wide hub all structured loggers emit through.
hub = LogHub()


class StructuredLogger:
    """Named front over the hub; create via :func:`get_logger`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def debug(self, event: str, msg: str, **fields) -> None:
        hub.emit(self.name, "debug", event, msg, fields)

    def info(self, event: str, msg: str, **fields) -> None:
        hub.emit(self.name, "info", event, msg, fields)

    def warning(self, event: str, msg: str, **fields) -> None:
        hub.emit(self.name, "warning", event, msg, fields)

    def error(self, event: str, msg: str, **fields) -> None:
        hub.emit(self.name, "error", event, msg, fields)

    def warn_once(self, key: str, event: str, msg: str, **fields) -> bool:
        """Warn for ``key`` exactly once per process; count repeats."""
        return hub.warn_once(self.name, key, event, msg, fields)


_loggers: Dict[str, StructuredLogger] = {}
_loggers_lock = threading.Lock()


def get_logger(name: str) -> StructuredLogger:
    """Return the process-wide structured logger called ``name``."""
    with _loggers_lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = _loggers[name] = StructuredLogger(name)
        return logger


def summarize_log(records: List[dict]) -> dict:
    """Aggregate counts the ``repro stats`` CLI prints for a log file."""
    by_level: Dict[str, int] = {}
    by_event: Dict[str, int] = {}
    warn_once: Dict[str, int] = {}
    for record in records:
        level = record.get("level", "?")
        by_level[level] = by_level.get(level, 0) + 1
        event = record.get("event", "?")
        by_event[event] = by_event.get(event, 0) + 1
        fields = record.get("fields") or {}
        key = fields.get("warn_once_key")
        if key:
            warn_once[key] = warn_once.get(key, 0) + 1
    return {"levels": by_level, "events": by_event, "warn_once": warn_once}
