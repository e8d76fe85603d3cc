"""Structured error taxonomy of the reproduction tooling.

Everything the harness can fail with derives from :class:`ReproError`,
so the CLI has exactly one catch site: it prints the message and exits
with the error's ``exit_code`` — a user (or CI log) always sees a
structured one-liner, never a traceback, for anticipated failure modes
(corrupted archives, crashed workers, hung seeds).

The hierarchy deliberately multiple-inherits from the closest builtin:
:class:`TraceFormatError` *is a* :class:`ValueError` and
:class:`SeedTimeoutError` *is a* :class:`TimeoutError`, so pre-existing
callers (and tests) that catch the builtin keep working unchanged.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "WorkerCrashError",
    "SeedTimeoutError",
    "ChaosInjectedError",
    "TraceFormatError",
    "ServerOverloadedError",
    "ServerDrainingError",
    "RequestDeadlineError",
    "OutputPathError",
    "ListenError",
]


class ReproError(Exception):
    """Base class of every structured harness error.

    ``exit_code`` is what the CLI returns when the error escapes a
    subcommand; subclasses override it where a different code is
    conventional (2 for bad input data, matching argparse usage errors).
    ``http_status`` is the matching HTTP response code when the same
    error escapes a ``repro serve`` request handler: the taxonomy maps
    onto the wire once, here, so the daemon and the CLI never disagree
    about what kind of failure something was.
    """

    exit_code = 1
    http_status = 500


class WorkerCrashError(ReproError):
    """A worker process died (or kept raising) and the retry budget for
    one or more items is exhausted.

    Raised *after* every other item has been driven to completion — a
    crashing seed never blocks the rest of the sweep (wait-freedom).
    ``failures`` maps item keys to the final exception per failed item.
    """

    def __init__(self, message: str, failures: Optional[dict] = None) -> None:
        super().__init__(message)
        self.failures = failures or {}


class SeedTimeoutError(ReproError, TimeoutError):
    """An attempt exceeded its wall-clock timeout and the retry budget
    is exhausted (also used per-attempt internally before aggregation).

    Like :class:`WorkerCrashError` this surfaces only after the rest of
    the batch finished; ``failures`` maps item keys to final errors.
    """

    http_status = 504  # the request ran out of wall clock, not the server

    def __init__(self, message: str, failures: Optional[dict] = None) -> None:
        super().__init__(message)
        self.failures = failures or {}


class ChaosInjectedError(ReproError):
    """The deterministic fault the chaos harness injects.

    Never raised in production runs — only when ``REPRO_CHAOS`` (or an
    explicit :class:`~repro.resilience.chaos.ChaosPolicy`) is active.
    Distinct from real errors so a chaos test can assert that every
    failure it saw was one it injected.
    """


class ServerOverloadedError(ReproError):
    """``repro serve`` shed this request: the weighted in-flight budget
    (``--max-inflight``) is spent.

    Deliberately cheap to raise and map — load shedding only protects
    the daemon if rejecting costs microseconds while computing costs
    seconds.  ``retry_after_s`` becomes the ``Retry-After`` header, the
    standard signal for a well-behaved client's backoff loop.
    """

    http_status = 429

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServerDrainingError(ReproError):
    """``repro serve`` is shutting down gracefully: in-flight requests
    are being drained and no new work is admitted.

    503 (not 429): the condition is not load-dependent — the client
    should fail over to another instance, not back off and retry here.
    """

    http_status = 503


class RequestDeadlineError(ReproError, TimeoutError):
    """A ``repro serve`` request exceeded its deadline (the server's
    ``--request-deadline`` or the request's own ``"deadline_s"``).

    Distinct from :class:`SeedTimeoutError` (one attempt of one seed ran
    long) — this is the *request-level* budget: queue wait, cache
    lookups and every seed's compute all draw from the same clock, and
    when it runs out the slot is freed whether or not any single
    attempt was slow.
    """

    http_status = 504


class OutputPathError(ReproError, OSError):
    """An output file the user named (a telemetry stream, an access
    log) cannot be created, e.g. because its directory does not exist.

    Exit code 2, like an argparse usage error: the path was wrong, not
    the computation.
    """

    exit_code = 2


class ListenError(ReproError, OSError):
    """``repro serve`` cannot listen on the address it was given, e.g.
    because another process holds the port.

    Exit code 2, like :class:`OutputPathError`: the address was wrong,
    not the computation.
    """

    exit_code = 2


class TraceFormatError(ReproError, ValueError):
    """A trace / bench / obs / journal file — or a ``repro serve``
    request body — failed to parse.

    Carries the offending ``path`` plus, when known, the 1-based
    ``line`` and character ``offset`` of the corruption, so "repro
    check --corpus" failures point at the byte that poisoned them.
    """

    exit_code = 2
    http_status = 400  # the input was malformed, not the computation

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        line: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line
        self.offset = offset

    def __reduce__(self):
        # Keyword-only attributes break the default Exception pickling;
        # errors must survive a trip back from a worker process.
        return (_rebuild_trace_format_error,
                (str(self), self.path, self.line, self.offset))


def _rebuild_trace_format_error(message, path, line, offset):
    return TraceFormatError(message, path=path, line=line, offset=offset)
