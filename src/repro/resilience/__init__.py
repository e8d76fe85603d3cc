"""Resilient execution layer — the harness's own wait-freedom.

The paper proves gathering tolerates up to ``n - 1`` crashed robots;
this package gives the *sweep infrastructure* the matching property:

* :mod:`~repro.resilience.errors` — the structured error taxonomy
  (:class:`ReproError` and friends) the CLI turns into clean exits;
* :mod:`~repro.resilience.atomic` — crash-safe file writes (temp file +
  fsync + atomic rename) for every one-shot document on disk;
* :mod:`~repro.resilience.pool` — :class:`ResilientExecutor`, the
  wait-free replacement for ``pool.map``: per-item futures, timeouts,
  bounded retries, automatic pool rebuild, serial degradation;
* :mod:`~repro.resilience.journal` — the ``repro-sweep-v1`` checkpoint
  journal that makes interrupted sweeps resumable;
* :mod:`~repro.resilience.chaos` — deterministic fault injection
  (``REPRO_CHAOS``) that the test suite uses to *prove* the recovery
  guarantees rather than assert them.
"""

from .atomic import atomic_write, fsync_handle, promote
from .chaos import CHAOS_ENV, KILL_EXIT_CODE, ChaosPolicy
from .errors import (
    ChaosInjectedError,
    OutputPathError,
    ReproError,
    RequestDeadlineError,
    SeedTimeoutError,
    ServerDrainingError,
    ServerOverloadedError,
    TraceFormatError,
    WorkerCrashError,
)
from .journal import JOURNAL_SCHEMA, SweepJournal, result_from_dict, result_to_dict
from .pool import DEFAULT_POLICY, ResilientExecutor, RunPolicy

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
    "atomic_write",
    "fsync_handle",
    "promote",
    "ChaosPolicy",
    "CHAOS_ENV",
    "KILL_EXIT_CODE",
    "SweepJournal",
    "JOURNAL_SCHEMA",
    "result_to_dict",
    "result_from_dict",
    "ResilientExecutor",
    "RunPolicy",
    "DEFAULT_POLICY",
]
