"""Deterministic chaos injection — ``REPRO_CHAOS`` / :class:`ChaosPolicy`.

The recovery guarantees of the resilient runner (retry, pool rebuild,
checkpoint-resume) are *proved* by the test suite rather than asserted:
a chaos policy kills worker processes, raises injected exceptions and
inserts delays at deterministic points, and the tests then require the
sweep to finish with results bit-identical to a clean sequential run.

Determinism is the whole design: every decision is a pure function of
``(policy.seed, item key, attempt number)`` via SHA-256, so a chaos run
is exactly reproducible across processes and platforms — a fault that
fired once fires every time, and a retry (which increments the attempt
number) re-rolls the dice in a reproducible way.

Environment syntax (comma-separated ``key=value``)::

    REPRO_CHAOS="seed=7,kill=0.2,error=0.1,delay=0.3,delay_s=0.5,match=seed3"

``kill``/``error``/``delay``
    Probabilities (decided once per attempt, mutually exclusive in that
    order) of: hard-killing the worker process (``os._exit``), raising
    :class:`~repro.resilience.errors.ChaosInjectedError`, or sleeping
    ``delay_s`` seconds before computing.
``match``
    Optional substring filter — only item keys containing it are
    eligible, which lets a test target one seed of a sweep.
``seed``
    Decorrelates one chaos schedule from another.

``raise`` is accepted as an alias for ``error``.

Serve-scoped faults (``repro serve`` consults these; the worker-side
``inject`` ignores them, so one spec can drive both layers)::

    REPRO_CHAOS="seed=7,serve_slow=0.3,serve_slow_s=0.2,store_read=0.2,store_write=0.2"

``serve_slow``
    Probability that a request handler sleeps ``serve_slow_s`` before
    doing any work — a synthetic slow client/handler that holds its
    admission slot and trips deadlines.
``store_read``/``store_write``
    Probabilities that one :class:`~repro.serve.store.ResultStore` disk
    read / write raises ``OSError`` — exercising exactly the production
    degradation paths (a failed read is a miss, a failed write degrades
    to memory-only), never a bespoke test-only branch.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ChaosInjectedError, ReproError

__all__ = ["ChaosPolicy", "CHAOS_ENV", "KILL_EXIT_CODE"]

#: Environment variable holding the policy spec.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit status of a chaos-killed worker (distinctive in process tables).
KILL_EXIT_CODE = 86

_FIELD_ALIASES = {"raise": "error"}
_FLOAT_FIELDS = {
    "kill",
    "error",
    "delay",
    "delay_s",
    "serve_slow",
    "serve_slow_s",
    "store_read",
    "store_write",
}
_INT_FIELDS = {"seed"}
_STR_FIELDS = {"match"}


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault-injection schedule (picklable, crosses into workers)."""

    seed: int = 0
    kill: float = 0.0
    error: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.05
    serve_slow: float = 0.0
    serve_slow_s: float = 0.05
    store_read: float = 0.0
    store_write: float = 0.0
    match: Optional[str] = None

    @property
    def enabled(self) -> bool:
        """Worker-side faults present (what the executor consults)."""
        return (self.kill + self.error + self.delay) > 0.0

    @property
    def serve_enabled(self) -> bool:
        """Serve-scoped faults present (what the daemon consults)."""
        return (self.serve_slow + self.store_read + self.store_write) > 0.0

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> Optional["ChaosPolicy"]:
        """Parse ``REPRO_CHAOS``; ``None`` when unset or empty."""
        spec = (environ if environ is not None else os.environ).get(CHAOS_ENV, "")
        spec = spec.strip()
        if not spec:
            return None
        return cls.parse(spec)

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse a ``key=value,key=value`` spec string."""
        values: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ReproError(
                    f"bad {CHAOS_ENV} entry {part!r}: expected key=value"
                )
            key, _, raw = part.partition("=")
            key = _FIELD_ALIASES.get(key.strip(), key.strip())
            raw = raw.strip()
            try:
                if key in _FLOAT_FIELDS:
                    values[key] = float(raw)
                elif key in _INT_FIELDS:
                    values[key] = int(raw)
                elif key in _STR_FIELDS:
                    values[key] = raw
                else:
                    raise ReproError(
                        f"unknown {CHAOS_ENV} key {key!r}; known: "
                        f"{sorted(_FLOAT_FIELDS | _INT_FIELDS | _STR_FIELDS)}"
                    )
            except ValueError as exc:
                raise ReproError(
                    f"bad {CHAOS_ENV} value for {key!r}: {raw!r}"
                ) from exc
        return cls(**values)

    # -- decisions ---------------------------------------------------------

    def _uniform(self, key: str, attempt: int) -> float:
        digest = hashlib.sha256(
            f"repro-chaos:{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault (``"kill" | "error" | "delay" | None``) scheduled for
        one attempt of one item — a pure function of its arguments."""
        if self.match is not None and self.match not in key:
            return None
        u = self._uniform(key, attempt)
        if u < self.kill:
            return "kill"
        if u < self.kill + self.error:
            return "error"
        if u < self.kill + self.error + self.delay:
            return "delay"
        return None

    def inject(self, key: str, attempt: int, allow_kill: bool = True) -> None:
        """Execute the scheduled fault, if any, for this attempt.

        ``allow_kill=False`` (serial execution in the parent process)
        converts a scheduled kill into an injected exception — chaos
        must never take down the orchestrating process itself.
        """
        fault = self.decide(key, attempt)
        if fault is None:
            return
        if fault == "kill":
            if allow_kill:
                sys.stderr.write(
                    f"[chaos] killing worker pid={os.getpid()} "
                    f"({key!r}, attempt {attempt})\n"
                )
                sys.stderr.flush()
                os._exit(KILL_EXIT_CODE)
            raise ChaosInjectedError(
                f"chaos kill (converted to exception in-process) for "
                f"{key!r}, attempt {attempt}"
            )
        if fault == "error":
            raise ChaosInjectedError(
                f"chaos exception for {key!r}, attempt {attempt}"
            )
        time.sleep(self.delay_s)

    # -- serve-scoped decisions --------------------------------------------

    def decide_serve(self, kind: str, key: str, attempt: int) -> bool:
        """Whether serve-scoped fault ``kind`` fires for one attempt of
        one key — deterministic like :meth:`decide`, but each fault kind
        rolls its own independent dice (a slow handler and a store-read
        error are separate hazards, not mutually exclusive branches of
        one)."""
        probability = getattr(self, kind)
        if probability <= 0.0:
            return False
        if self.match is not None and self.match not in key:
            return False
        return self._uniform(f"{kind}:{key}", attempt) < probability
