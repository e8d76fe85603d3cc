"""Wait-free parallel execution: futures, timeouts, retries, rebuilds.

The paper proves that up to ``n - 1`` crashed robots cannot block the
correct ones; this module gives the sweep harness the same property.
``concurrent.futures.ProcessPoolExecutor.map`` is *not* wait-free: one
OOM-killed worker raises :class:`BrokenProcessPool` for the whole batch
and the pool is dead, and one hung item stalls the sweep forever.
:class:`ResilientExecutor` replaces it with per-item ``submit()``:

* per-attempt wall-clock **timeouts** (a hung worker is abandoned and
  its process terminated);
* bounded **retries** with exponential backoff per item;
* automatic **pool rebuild** when the pool breaks or a worker hangs —
  re-dispatching only the incomplete items — degrading to serial
  in-process execution after ``max_pool_rebuilds`` breakages;
* an ``on_result`` callback fired the moment each item completes, which
  is what the checkpoint journal hangs off.

Determinism under retry is free: every item is a pure function of its
own arguments, so however many times an attempt is killed, timed out or
re-dispatched, the value that finally lands is bit-identical to the one
a clean sequential run produces.

Failure accounting distinguishes *attempts* from *strikes*.  Every try
increments the attempt number (which re-rolls the chaos dice and grows
the backoff), but only failures attributable to the item itself — an
exception from the function, or its own timeout — count against the
``retries`` budget.  A pool breakage cannot be attributed (the executor
marks every in-flight future broken), so innocent items re-dispatched
after a crash keep their full budget; runaway breakage is bounded by
``max_pool_rebuilds`` and the serial fallback instead.
"""

from __future__ import annotations

import logging
import math
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from .chaos import ChaosPolicy
from .errors import SeedTimeoutError, WorkerCrashError

__all__ = ["RunPolicy", "ResilientExecutor", "DEFAULT_POLICY"]

logger = logging.getLogger("repro.resilience")


def _slog():
    """The pool's structured logger (:mod:`repro.obs.log`).

    Imported lazily: ``repro.obs`` itself imports from this package, so
    a module-level import would cycle.  Records mirror to the stdlib
    ``repro.resilience`` logger, preserving the pre-existing log lines.
    """
    from ..obs.log import get_logger

    return get_logger(logger.name)


def _warn_once(key: str, event: str, message: str, *args, **fields) -> None:
    """Emit one structured warning per ``key`` per process.

    Unexpected-but-tolerated conditions (a broken telemetry observer, a
    worker raising SystemExit) are worth one warning, not one per item
    per retry: a 10k-seed sweep with a bad observer must not bury the
    real failures under 10k identical log lines.  The registry is the
    log hub's, so ``hub.warned_keys()`` counts the repeats.
    """
    if fields.pop("exc_info", False):
        fields["traceback"] = traceback.format_exc()
    _slog().warn_once(key, event, message % args if args else message,
                      **fields)


def _as_charged_exception(exc: BaseException, key: str) -> Exception:
    """Map a worker-raised exception onto the structured taxonomy.

    Ordinary exceptions pass through untouched (chaos faults, timeouts
    and user errors already subclass the right things).  A
    non-``Exception`` ``BaseException`` — a worker calling
    ``sys.exit()``, a stray ``GeneratorExit`` — must *not* propagate
    into the orchestrator's retry loop, where it would abort the whole
    sweep and forfeit wait-freedom; it is wrapped as
    :class:`WorkerCrashError` and charged to its item like any crash.
    """
    if isinstance(exc, Exception):
        return exc
    _warn_once(
        f"base-exception:{type(exc).__name__}",
        "pool.worker_base_exception",
        "worker for %r raised %s; treating as a worker crash",
        key,
        type(exc).__name__,
        exception=type(exc).__name__,
    )
    return WorkerCrashError(
        f"{key}: worker raised {type(exc).__name__}: {exc}"
    )


@dataclass(frozen=True)
class RunPolicy:
    """Resilience knobs for one batch execution."""

    #: Wall-clock seconds per attempt (``None`` = unbounded).  Measured
    #: from submission; an attempt still queued at its deadline is
    #: requeued without charge.  Not enforced in serial execution
    #: (in-process work cannot be preempted).
    timeout: Optional[float] = None
    #: Attributable failures tolerated per item beyond the first try.
    retries: int = 2
    #: Base of the exponential backoff before a retry (seconds).
    backoff: float = 0.1
    #: Ceiling of the backoff (seconds).
    backoff_cap: float = 5.0
    #: Pool breakages/hangs tolerated before degrading to serial.
    max_pool_rebuilds: int = 3
    #: Granularity of the future-wait loop (seconds).
    tick: float = 0.05

    def backoff_for(self, attempt: int) -> float:
        if self.backoff <= 0.0:
            return 0.0
        return min(self.backoff * (2.0**attempt), self.backoff_cap)


DEFAULT_POLICY = RunPolicy()


def _worker_call(fn: Callable, chaos: Optional[ChaosPolicy], key: str,
                 attempt: int, item):
    """Worker-side entry point (module-level so it pickles): inject any
    scheduled chaos fault for this attempt, then compute."""
    if chaos is not None:
        chaos.inject(key, attempt, allow_kill=True)
    return fn(item)


class _PoolRestart(Exception):
    """Internal: the current pool must be torn down and rebuilt."""

    def __init__(self, reason: str, in_flight: Set[int]) -> None:
        super().__init__(reason)
        self.reason = reason
        self.in_flight = set(in_flight)


class _MapState:
    """Book-keeping of one :meth:`ResilientExecutor.map_resilient` call."""

    def __init__(self, items: List, keys: List[str], policy: RunPolicy,
                 on_result: Optional[Callable],
                 on_failure: Optional[Callable] = None) -> None:
        self.items = items
        self.keys = keys
        self.policy = policy
        self.on_result = on_result
        self.on_failure = on_failure
        self.results: List = [None] * len(items)
        self.attempts = [0] * len(items)
        self.strikes = [0] * len(items)
        self.not_before = [0.0] * len(items)
        self.failures: Dict[int, BaseException] = {}
        self.incomplete: Set[int] = set(range(len(items)))

    def finish(self, index: int, value) -> None:
        self.results[index] = value
        self.incomplete.discard(index)
        if self.on_result is not None:
            self.on_result(index, value)

    def charge(self, index: int, exc: BaseException, strike: bool = True) -> None:
        """Record a failed attempt; a *strike* counts against the retry
        budget, a chargeless failure (pool breakage) only re-rolls."""
        self.attempts[index] += 1
        if self.on_failure is not None:
            # Telemetry only (the sweep dashboard's retry/timeout
            # counters); a broken observer must never fail the sweep.
            try:
                self.on_failure(self.keys[index], exc, strike)
            except Exception:
                _warn_once(
                    "on_failure-observer",
                    "pool.on_failure_observer_raised",
                    "on_failure observer raised; ignoring",
                    exc_info=True,
                )
        if strike:
            self.strikes[index] += 1
            if self.strikes[index] > self.policy.retries:
                self.failures[index] = exc
                self.incomplete.discard(index)
                return
        self.not_before[index] = time.monotonic() + self.policy.backoff_for(
            self.attempts[index] - 1
        )

    def raise_if_failed(self) -> None:
        if not self.failures:
            return
        parts = [
            f"{self.keys[i]}: {type(e).__name__}: {e}"
            for i, e in sorted(self.failures.items())
        ]
        failures = {self.keys[i]: e for i, e in self.failures.items()}
        message = (
            f"{len(self.failures)} of {len(self.items)} item(s) failed "
            f"permanently after retries: " + "; ".join(parts)
        )
        if all(isinstance(e, SeedTimeoutError) for e in self.failures.values()):
            raise SeedTimeoutError(message, failures=failures)
        raise WorkerCrashError(message, failures=failures)


class ResilientExecutor:
    """A rebuildable process pool with wait-free map semantics.

    ``workers <= 1`` (or ``None``) runs everything serially in-process —
    same retry/chaos/checkpoint machinery, no pool.  The pool itself is
    created lazily and recreated transparently after breakage, so one
    executor can serve a whole series of batches (the experiment
    harness opens one per matrix and threads it through every cell).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        policy: Optional[RunPolicy] = None,
    ) -> None:
        self.workers = workers or 0
        self.policy = policy or DEFAULT_POLICY
        self._pool: Optional[ProcessPoolExecutor] = None
        self.rebuilds = 0

    @property
    def serial(self) -> bool:
        return self.workers <= 1

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down *now*: cancel queued work and terminate
        worker processes (a hung worker never exits on its own)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        finally:
            for process in processes:
                try:
                    process.terminate()
                except (OSError, ValueError):  # pragma: no cover
                    # Best-effort cleanup: the process may already be
                    # dead (OSError) or closed (ValueError); anything
                    # else is a bug worth surfacing, not swallowing.
                    pass

    def shutdown(self, cancel: bool = True) -> None:
        """Graceful teardown; ``cancel`` drops queued (not yet running)
        work so Ctrl-C never hangs behind a full queue."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "ResilientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(cancel=True)

    # -- execution ---------------------------------------------------------

    def map_resilient(
        self,
        fn: Callable,
        items: Sequence,
        *,
        keys: Optional[Sequence[str]] = None,
        chaos: Optional[ChaosPolicy] = None,
        on_result: Optional[Callable[[int, object], None]] = None,
        on_failure: Optional[Callable[[str, BaseException, bool], None]] = None,
        policy: Optional[RunPolicy] = None,
    ) -> List:
        """``[fn(x) for x in items]`` with crash recovery; input order.

        ``keys`` are stable human-readable item labels (error messages,
        chaos decisions, journal callbacks); they default to the item
        index.  ``on_result(index, value)`` fires as each item
        completes, in completion order.  ``on_failure(key, exc,
        strike)`` fires on every failed attempt (telemetry; exceptions
        from it are logged and swallowed).  Raises
        :class:`~repro.resilience.errors.WorkerCrashError` /
        :class:`~repro.resilience.errors.SeedTimeoutError` only after
        every other item has been driven to completion.
        """
        policy = policy or self.policy
        items = list(items)
        if keys is None:
            keys = [f"item{i}" for i in range(len(items))]
        keys = [str(k) for k in keys]
        if len(keys) != len(items):
            raise ValueError("keys must match items one to one")
        if chaos is not None and not chaos.enabled:
            chaos = None
        state = _MapState(items, keys, policy, on_result, on_failure)

        try:
            while state.incomplete:
                if self.serial or self.rebuilds > policy.max_pool_rebuilds:
                    if not self.serial:
                        _slog().warning(
                            "pool.serial_fallback",
                            f"pool broke {self.rebuilds} time(s); "
                            f"degrading to serial execution for "
                            f"{len(state.incomplete)} remaining item(s)",
                            rebuilds=self.rebuilds,
                            remaining=len(state.incomplete),
                        )
                    self._run_serial(fn, chaos, state)
                    break
                try:
                    self._run_pooled(fn, chaos, state)
                except _PoolRestart as restart:
                    self._kill_pool()
                    self.rebuilds += 1
                    # Unattributable: re-roll (attempt += 1) without a
                    # strike for everything that was in flight.
                    for index in restart.in_flight:
                        if index in state.incomplete:
                            state.charge(
                                index,
                                WorkerCrashError(
                                    f"{keys[index]}: in flight when "
                                    f"{restart.reason}"
                                ),
                                strike=False,
                            )
                    _slog().warning(
                        "pool.rebuilt",
                        f"rebuilding worker pool ({restart.reason}); "
                        f"re-dispatching {len(state.incomplete)} "
                        f"incomplete item(s)",
                        reason=restart.reason,
                        rebuilds=self.rebuilds,
                        remaining=len(state.incomplete),
                    )
        except KeyboardInterrupt:
            # Propagate cleanly: kill workers, drop queued futures, and
            # let the caller see KeyboardInterrupt — not a
            # BrokenProcessPool traceback from a half-dead pool.
            self._kill_pool()
            raise

        state.raise_if_failed()
        return state.results

    # -- pooled epoch ------------------------------------------------------

    def _run_pooled(self, fn: Callable, chaos: Optional[ChaosPolicy],
                    state: _MapState) -> None:
        """Submit every incomplete item once and resolve the attempts.

        Returns when all submitted attempts resolved (completed, struck,
        or requeued); raises :class:`_PoolRestart` when the pool died or
        a running attempt exceeded its deadline.
        """
        policy = state.policy
        pool = self._ensure_pool()
        futures: Dict[Future, int] = {}
        deadlines: Dict[Future, float] = {}
        in_flight: Set[int] = set()
        try:
            for index in sorted(state.incomplete):
                pause = state.not_before[index] - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                future = pool.submit(
                    _worker_call,
                    fn,
                    chaos,
                    state.keys[index],
                    state.attempts[index],
                    state.items[index],
                )
                futures[future] = index
                deadlines[future] = (
                    time.monotonic() + policy.timeout if policy.timeout else math.inf
                )
                in_flight.add(index)
        except BrokenProcessPool:
            raise _PoolRestart("pool broke during submission", in_flight)

        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=policy.tick, return_when=FIRST_COMPLETED
            )
            for future in done:
                index = futures[future]
                try:
                    value = future.result()
                except BrokenProcessPool:
                    raise _PoolRestart("a worker process died", in_flight)
                except KeyboardInterrupt:  # pragma: no cover - signal timing
                    raise
                except BaseException as exc:
                    # BaseException, not Exception: a worker raising
                    # SystemExit must charge its own item, not tear down
                    # the orchestrator mid-sweep (wait-freedom).
                    in_flight.discard(index)
                    state.charge(
                        index, _as_charged_exception(exc, state.keys[index])
                    )
                else:
                    in_flight.discard(index)
                    state.finish(index, value)
            if not policy.timeout:
                continue
            now = time.monotonic()
            for future in list(pending):
                if now < deadlines[future]:
                    continue
                index = futures[future]
                if future.cancel():
                    # Never started — the queue was backed up behind
                    # slower items.  Requeue without charging.
                    pending.discard(future)
                    in_flight.discard(index)
                    continue
                # Running past its deadline: the worker holding it
                # cannot be reclaimed; charge the item and rebuild.
                in_flight.discard(index)
                state.charge(
                    index,
                    SeedTimeoutError(
                        f"{state.keys[index]}: attempt "
                        f"{state.attempts[index]} exceeded "
                        f"{policy.timeout}s timeout"
                    ),
                )
                raise _PoolRestart(
                    f"hung attempt on {state.keys[index]!r}", in_flight
                )

    # -- serial fallback ---------------------------------------------------

    def _run_serial(self, fn: Callable, chaos: Optional[ChaosPolicy],
                    state: _MapState) -> None:
        """In-process execution of the incomplete items — the terminal
        fallback that cannot suffer pool breakage.  Chaos kills are
        converted to exceptions (never kill the orchestrator); timeouts
        are not enforced (in-process work cannot be preempted)."""
        for index in sorted(state.incomplete):
            while index in state.incomplete:
                try:
                    if chaos is not None:
                        chaos.inject(
                            state.keys[index],
                            state.attempts[index],
                            allow_kill=False,
                        )
                    value = fn(state.items[index])
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:
                    # Mirror the pooled path: SystemExit et al. from the
                    # item's own code count as that item's crash.
                    state.charge(
                        index, _as_charged_exception(exc, state.keys[index])
                    )
                    if index in state.incomplete:
                        time.sleep(
                            state.policy.backoff_for(state.attempts[index] - 1)
                        )
                else:
                    state.finish(index, value)
