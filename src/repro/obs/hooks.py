"""Profiling hook registration and dispatch.

Three hook points, each a plain list of callables dispatched in
registration order:

``on_round(fn)``
    ``fn(event: RoundEvent)`` after every instrumented engine round.
``on_kernel(fn)``
    ``fn(name: str, seconds: float, backend: str)`` after every
    instrumented geometry-kernel call.
``on_run_end(fn)``
    ``fn(summary: dict)`` when an instrumented run returns its result;
    the summary carries engine kind, verdict, rounds and seed.

Registration returns the callable, so the functions double as
decorators.  Dispatch happens only from the ``record_*`` entry points in
:mod:`repro.obs`, which the call sites guard behind the enabled flag —
a registered hook on a disabled process never fires and costs nothing.

A hook that raises is **quarantined**, not propagated: instrumentation
is derived state, so a broken profiling callback must never crash the
simulation mid-round.  The first failure of a hook emits one structured
``hook.quarantined`` warning (:mod:`repro.obs.log`) naming the hook and
the exception, and the hook is removed from every hook point — it will
not fire (or warn) again.  The warning keeps the failure *visible* (a
silently corrupted profiling session would be worse than a crash); the
removal keeps one bad hook from warning once per round for the rest of
a long sweep.  ``KeyboardInterrupt`` and other ``BaseException``s still
propagate.  The same loop (:func:`call_each`) serves the span tracer's
sinks, with one quarantine registry for the whole process.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .events import RoundEvent
from .log import get_logger

__all__ = [
    "on_round",
    "on_kernel",
    "on_run_end",
    "remove_hook",
    "clear_hooks",
    "emit_round",
    "emit_kernel",
    "emit_run_end",
    "call_each",
]

RoundHook = Callable[[RoundEvent], None]
KernelHook = Callable[[str, float, str], None]
RunEndHook = Callable[[dict], None]

_round_hooks: List[RoundHook] = []
_kernel_hooks: List[KernelHook] = []
_run_end_hooks: List[RunEndHook] = []


def on_round(fn: RoundHook) -> RoundHook:
    """Register a per-round hook (usable as a decorator)."""
    _round_hooks.append(fn)
    return fn


def on_kernel(fn: KernelHook) -> KernelHook:
    """Register a per-kernel-call hook (usable as a decorator)."""
    _kernel_hooks.append(fn)
    return fn


def on_run_end(fn: RunEndHook) -> RunEndHook:
    """Register a run-end hook (usable as a decorator)."""
    _run_end_hooks.append(fn)
    return fn


def remove_hook(fn: Callable) -> None:
    """Unregister ``fn`` from every hook point it appears in."""
    for hooks in (_round_hooks, _kernel_hooks, _run_end_hooks):
        while fn in hooks:
            hooks.remove(fn)


def clear_hooks() -> None:
    """Unregister everything (test isolation)."""
    _round_hooks.clear()
    _kernel_hooks.clear()
    _run_end_hooks.clear()
    _quarantined.clear()


#: The process-wide quarantine registry: id -> every hook or span sink
#: that raised, so each is warned about once however many hook points,
#: tracers or requests it was registered with.  Holding the callable
#: keeps its id from being reused by a new one.
_quarantined: Dict[int, Callable] = {}

_log = get_logger("repro.obs.hooks")


def call_each(fns: List[Callable], args: tuple, event: str, what: str,
              remove: Callable[[Callable], None]) -> None:
    """Call every ``fn(*args)``, quarantining any that raises.

    The first failure of a callable logs one ``event`` warning naming
    it (``what`` says what it is) and the exception; every failure
    unregisters it through ``remove``.  Iterates over a copy, so the
    rest of ``fns`` still fires after an offender is dropped.
    """
    for fn in list(fns):
        try:
            fn(*args)
        except Exception as exc:
            if id(fn) not in _quarantined:
                _quarantined[id(fn)] = fn
                _log.warning(
                    event,
                    f"{what} {fn!r} raised {type(exc).__name__}: {exc}; "
                    f"removing it",
                    callable=repr(fn),
                    error=f"{type(exc).__name__}: {exc}",
                )
            remove(fn)


def emit_round(event: RoundEvent) -> None:
    if _round_hooks:
        call_each(_round_hooks, (event,), "hook.quarantined",
                  "on_round hook", remove_hook)


def emit_kernel(name: str, seconds: float, backend: str) -> None:
    if _kernel_hooks:
        call_each(_kernel_hooks, (name, seconds, backend),
                  "hook.quarantined", "on_kernel hook", remove_hook)


def emit_run_end(summary: dict) -> None:
    if _run_end_hooks:
        call_each(_run_end_hooks, (summary,), "hook.quarantined",
                  "on_run_end hook", remove_hook)
