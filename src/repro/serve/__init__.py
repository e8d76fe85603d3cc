"""``repro serve``: the long-lived gathering-as-a-service daemon.

The simulator is a pure function of ``(scenario, seed, backend, engine,
code version)`` — the determinism contract the paper's crash-fault model
rests on and the replay suite enforces bit for bit.  This package turns
that contract into a service: a stdlib-only HTTP/JSON daemon
(:mod:`~repro.serve.server`) that keeps a warm worker pool alive across
requests and memoizes every result in a content-addressed store
(:mod:`~repro.serve.store`) whose entries are exact and permanent.
Request/response shapes live in :mod:`~repro.serve.protocol`; the
self-protection primitives — weighted admission control, per-request
deadlines, duplicate coalescing and the readiness circuit breaker —
live in :mod:`~repro.serve.admission`.
"""

from .admission import AdmissionController, CircuitBreaker, Deadline, SingleFlight
from .protocol import SERVE_SCHEMA
from .server import ReproServer
from .store import STORE_SCHEMA, ResultStore, result_key

__all__ = [
    "SERVE_SCHEMA",
    "STORE_SCHEMA",
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "SingleFlight",
    "ReproServer",
    "ResultStore",
    "result_key",
]
