"""Self-protection primitives of the ``repro serve`` daemon.

The paper's algorithm is wait-free: ``f`` crashed robots cannot block
the correct ones.  The serving layer earns the same property with five
small, independently testable mechanisms, all here:

* :class:`AdmissionController` — a weighted in-flight budget.  A
  daemon that accepts unbounded concurrent requests converts overload
  into unbounded thread counts and unbounded queueing delay; one that
  sheds load keeps every *admitted* request fast and every rejected one
  cheap (a structured 429 costs microseconds).
* :class:`Deadline` — one wall-clock budget per request.  Queue wait,
  cache lookups and compute all draw from the same clock, so a wedged
  seed cannot hold its admission slot forever.
* :class:`SimulationSlots` — one slot per process that computes,
  taken one per seed a dispatch runs at once, so a request waits for a
  free worker here, against its deadline, and never inside the pool.
* :class:`SingleFlight` — duplicate coalescing.  ``N`` concurrent
  ``POST /run``\\ s for the same content address are one computation and
  ``N`` byte-identical responses; determinism makes the leader's bytes
  *the* answer for every follower.
* :class:`CircuitBreaker` — a rolling-window crash counter that flips
  readiness when the worker pool keeps dying, so a load balancer stops
  routing to a daemon that cannot currently compute.

Everything is stdlib threading; nothing here imports the simulator.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from ..resilience import RequestDeadlineError, ServerOverloadedError

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "SimulationSlots",
    "SingleFlight",
]


class Deadline:
    """A monotonic wall-clock budget for one request.

    ``None`` seconds means unbounded: ``remaining()`` is ``None`` and
    :attr:`expired` never fires — callers thread one object through
    either way instead of branching on "has a deadline" everywhere.
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )

    @property
    def expired(self) -> bool:
        return (
            self._expires_at is not None
            and time.monotonic() >= self._expires_at
        )

    def remaining(self) -> Optional[float]:
        """Seconds left (``>= 0``), or ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def check(self, what: str) -> None:
        """Raise the taxonomy's 504 if the budget is spent."""
        if self.expired:
            raise RequestDeadlineError(
                f"request deadline of {self.seconds}s exceeded {what}"
            )


class AdmissionController:
    """Weighted in-flight budget with cheap rejection.

    ``max_inflight`` is a budget of abstract units, not a thread count:
    a ``/run`` costs ``1`` and a ``/sweep`` costs ``sweep_weight``
    (a sweep is up to thousands of seeds of work — admitting it must
    consume proportionally more of the budget).  ``max_inflight=None``
    disables shedding but still counts in-flight work, which the
    graceful drain and ``/metrics`` rely on.
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        *,
        sweep_weight: int = 4,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if sweep_weight < 1:
            raise ValueError("sweep_weight must be >= 1")
        self.max_inflight = max_inflight
        self.sweep_weight = sweep_weight
        self._inflight = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    def weight_for(self, endpoint: str) -> int:
        return self.sweep_weight if endpoint == "sweep" else 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def acquire(self, weight: int, *, endpoint: str = "request") -> None:
        """Take ``weight`` units or raise the taxonomy's 429 *now*.

        No queueing on purpose: a request waiting for budget is exactly
        the unbounded-latency failure mode admission control exists to
        prevent.  An over-budget weight (a sweep heavier than the whole
        budget) is still admitted when the daemon is otherwise idle —
        a budget must never make a legal request *impossible*.
        """
        with self._lock:
            over = (
                self.max_inflight is not None
                and self._inflight + weight > self.max_inflight
                and self._inflight > 0
            )
            if over:
                raise ServerOverloadedError(
                    f"{endpoint}: in-flight budget exhausted "
                    f"({self._inflight}/{self.max_inflight} units in "
                    f"flight, request needs {weight}); retry later",
                    retry_after_s=1.0,
                )
            self._inflight += weight

    def release(self, weight: int) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - weight)
            if self._inflight == 0:
                self._idle.notify_all()

    def drain(self, timeout: Optional[float]) -> bool:
        """Block until nothing is in flight (or ``timeout`` elapses).

        The graceful-shutdown primitive: the server stops admitting,
        then waits here for the requests it already accepted.  Returns
        ``True`` when the daemon drained completely.
        """
        deadline = Deadline(timeout)
        with self._lock:
            while self._inflight > 0:
                remaining = deadline.remaining()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(
                    remaining if remaining is not None else None
                )
            return True


class SimulationSlots:
    """The daemon's simulation slots, one per process that computes.

    A dispatch of ``k`` seeds takes ``min(k, total)`` slots at once, so
    the slots count busy workers, not dispatches: pooled work never
    queues inside the pool behind another request, and the wait here is
    the only queue, bounded by the request's deadline.  Waiters are
    served in arrival order, so a stream of one-seed dispatches cannot
    starve a wide one (a sweep block).
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self._free = total
        self._queue: Deque[object] = deque()
        self._changed = threading.Condition()

    def acquire(self, seeds: int = 1, timeout: Optional[float] = None) -> bool:
        """Take the slots of a dispatch of ``seeds`` seeds; ``False``
        when they did not come free within ``timeout`` seconds."""
        need = min(seeds, self.total)
        ticket = object()
        with self._changed:
            self._queue.append(ticket)
            try:
                taken = self._changed.wait_for(
                    lambda: self._queue[0] is ticket and self._free >= need,
                    timeout,
                )
                if taken:
                    self._free -= need
                return taken
            finally:
                self._queue.remove(ticket)
                self._changed.notify_all()

    def release(self, seeds: int = 1) -> None:
        """Return the slots :meth:`acquire` took for ``seeds`` seeds."""
        with self._changed:
            self._free += min(seeds, self.total)
            self._changed.notify_all()


class _Flight:
    """One in-progress computation other requests can latch onto."""

    __slots__ = ("done", "body", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.body: Optional[str] = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Per-key duplicate coalescing for concurrent identical requests.

    The first request for a key becomes the *leader* and computes; every
    concurrent duplicate becomes a *follower* that waits for the
    leader's bytes.  Sound for the same reason the result store is: the
    body is a pure function of the key, so the leader's answer is
    byte-for-byte the answer every follower would have computed.
    """

    def __init__(self) -> None:
        self._flights: Dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self.coalesced = 0

    def lead_or_follow(self, key: str):
        """-> ``(is_leader, flight)``, atomically."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self.coalesced += 1
                return False, flight
            flight = _Flight()
            self._flights[key] = flight
            return True, flight

    def finish(self, key: str, flight: _Flight, *, body=None, error=None):
        """Leader-side: publish the outcome and wake every follower."""
        flight.body = body
        flight.error = error
        with self._lock:
            self._flights.pop(key, None)
        flight.done.set()

    @staticmethod
    def wait(flight: _Flight, deadline: Deadline) -> str:
        """Follower-side: the leader's body, its error, or a 504."""
        if not flight.done.wait(timeout=deadline.remaining()):
            raise RequestDeadlineError(
                f"request deadline of {deadline.seconds}s exceeded while "
                "waiting for a coalesced duplicate computation"
            )
        if flight.error is not None:
            raise flight.error
        assert flight.body is not None
        return flight.body


class CircuitBreaker:
    """Rolling-window failure counter driving the readiness signal.

    ``threshold`` failures within ``window_s`` seconds open the breaker;
    it half-opens (readiness restored, probes allowed) after
    ``cooldown_s`` without the failure budget refilling, and one success
    closes it.  The breaker never *rejects* work itself — computing is
    how a half-open breaker discovers recovery — it only reports state,
    which ``/healthz`` turns into not-ready so load balancers route
    around a daemon whose worker pool keeps dying.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        threshold: int = 5,
        window_s: float = 30.0,
        cooldown_s: float = 10.0,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._failures: list = []  # monotonic timestamps
        self._opened_at: Optional[float] = None
        self._lock = threading.Lock()
        self.trips = 0

    def record_failure(self) -> None:
        now = time.monotonic()
        with self._lock:
            self._failures.append(now)
            self._prune(now)
            if (
                self._opened_at is None
                and len(self._failures) >= self.threshold
            ):
                self._opened_at = now
                self.trips += 1

    def record_success(self) -> None:
        with self._lock:
            if self._opened_at is not None:
                # A success is proof of recovery, whatever the phase.
                self._opened_at = None
                self._failures.clear()

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._failures and self._failures[0] < cutoff:
            self._failures.pop(0)

    @property
    def state(self) -> str:
        now = time.monotonic()
        with self._lock:
            if self._opened_at is None:
                return self.CLOSED
            if now - self._opened_at >= self.cooldown_s:
                return self.HALF_OPEN
            return self.OPEN

    def snapshot(self) -> dict:
        state = self.state
        with self._lock:
            self._prune(time.monotonic())
            return {
                "state": state,
                "recent_failures": len(self._failures),
                "threshold": self.threshold,
                "window_s": self.window_s,
                "cooldown_s": self.cooldown_s,
                "trips": self.trips,
            }
