"""Wire protocol of ``repro serve``: request parsing, response bodies.

One deliberate property runs through everything here: **response bodies
are deterministic**.  A ``POST /run`` body is a pure function of the
request's ``(scenario, seed)`` plus the server's backend / engine /
code version — no timestamps, no request ids, no counters.  That is
what lets the content-addressed store hand back the *exact bytes* of
the first computation on every later hit, and what lets a sweep
response (a concatenation of per-seed run bodies plus one deterministic
summary line) be compared byte for byte across requests and daemons.

Malformed requests raise
:class:`~repro.resilience.errors.TraceFormatError` (HTTP 400 via the
taxonomy's ``http_status``) — the same error a corrupted trace archive
raises, because both are "the input bytes were wrong" failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from ..experiments.runner import Scenario
from ..resilience import TraceFormatError
from ..resilience.journal import result_to_dict

__all__ = [
    "SERVE_SCHEMA",
    "MAX_BODY_BYTES",
    "MAX_SWEEP_SEEDS",
    "RunRequest",
    "SweepRequest",
    "parse_json_body",
    "parse_run_request",
    "parse_sweep_request",
    "run_body",
    "sweep_summary_line",
    "error_body",
]

#: Schema identifier carried by every response body.
SERVE_SCHEMA = "repro-serve-v1"

#: Request bodies larger than this are rejected up front (a scenario
#: plus a seed list is a few hundred bytes; anything bigger is abuse).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on seeds per sweep request — one request must stay a
#: bounded unit of work; bigger sweeps are split client-side.
MAX_SWEEP_SEEDS = 4096


@dataclass(frozen=True)
class RunRequest:
    """One parsed ``POST /run`` body."""

    scenario: Scenario
    seed: int
    use_cache: bool
    #: Per-request deadline override in seconds (``None``: the server's
    #: ``--request-deadline`` applies).
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class SweepRequest:
    """One parsed ``POST /sweep`` body."""

    scenario: Scenario
    seeds: List[int]
    use_cache: bool
    deadline_s: Optional[float] = None


def parse_json_body(raw: bytes, *, where: str = "request") -> dict:
    """Request bytes -> dict, or a taxonomy error the server maps to 400."""
    if len(raw) > MAX_BODY_BYTES:
        raise TraceFormatError(
            f"{where}: body of {len(raw)} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
            path=f"<{where}>",
        )
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(
            f"{where}: body is not valid JSON: {exc}", path=f"<{where}>"
        ) from exc
    if not isinstance(data, dict):
        raise TraceFormatError(
            f"{where}: body must be a JSON object, got "
            f"{type(data).__name__}",
            path=f"<{where}>",
        )
    return data


def _parse_scenario(data: dict, *, where: str) -> Scenario:
    raw = data.get("scenario")
    if not isinstance(raw, dict):
        raise TraceFormatError(
            f"{where}: missing or non-object 'scenario' field",
            path=f"<{where}>",
        )
    try:
        # from_dict rejects unknown keys loudly and the constructor
        # rejects missing required ones and every value no engine can
        # run — the same check the CLI and the trace archive go through,
        # so a bad scenario is a 400 here and never reaches the pool or
        # the circuit breaker.
        return Scenario.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"{where}: bad scenario: {exc}", path=f"<{where}>"
        ) from exc


def _parse_int(data: dict, field: str, default: int, *, where: str) -> int:
    value = data.get(field, default)
    # bool is an int subclass; a request saying "seed": true is a bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceFormatError(
            f"{where}: field {field!r} must be an integer, got "
            f"{type(value).__name__}",
            path=f"<{where}>",
        )
    return value


def _parse_use_cache(data: dict, *, where: str) -> bool:
    value = data.get("cache", True)
    if not isinstance(value, bool):
        raise TraceFormatError(
            f"{where}: field 'cache' must be a boolean",
            path=f"<{where}>",
        )
    return value


def _parse_deadline(data: dict, *, where: str) -> Optional[float]:
    """Optional ``"deadline_s"``: a positive number of seconds.

    The per-request form of the server's ``--request-deadline`` — a
    client that knows its own patience (an interactive UI vs. a batch
    crawler) says so here and the server frees the slot at that point.
    """
    value = data.get("deadline_s")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceFormatError(
            f"{where}: field 'deadline_s' must be a number of seconds",
            path=f"<{where}>",
        )
    if not value > 0:
        raise TraceFormatError(
            f"{where}: field 'deadline_s' must be > 0, got {value}",
            path=f"<{where}>",
        )
    return float(value)


def parse_run_request(data: dict) -> RunRequest:
    """Validated ``POST /run`` body: ``{"scenario": {...}, "seed": N}``.

    ``"cache": false`` opts this one request out of the result store
    (both lookup and fill) — the per-request form of ``--no-cache``.
    ``"deadline_s": 2.5`` bounds this request's wall clock.
    """
    where = "POST /run"
    return RunRequest(
        scenario=_parse_scenario(data, where=where),
        seed=_parse_int(data, "seed", 0, where=where),
        use_cache=_parse_use_cache(data, where=where),
        deadline_s=_parse_deadline(data, where=where),
    )


def parse_sweep_request(data: dict) -> SweepRequest:
    """Validated ``POST /sweep`` body.

    Seeds come either explicitly (``"seeds": [0, 1, 2]``) or as a range
    (``"seed_start"`` + ``"seed_count"``, mirroring the CLI's
    ``--seed-start``/``--seeds`` flags).
    """
    where = "POST /sweep"
    scenario = _parse_scenario(data, where=where)
    if "seeds" in data:
        raw = data["seeds"]
        if not isinstance(raw, list) or not raw:
            raise TraceFormatError(
                f"{where}: 'seeds' must be a non-empty list of integers",
                path=f"<{where}>",
            )
        seeds = []
        for value in raw:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TraceFormatError(
                    f"{where}: 'seeds' must contain only integers",
                    path=f"<{where}>",
                )
            seeds.append(value)
    else:
        start = _parse_int(data, "seed_start", 0, where=where)
        count = _parse_int(data, "seed_count", 16, where=where)
        if count < 1:
            raise TraceFormatError(
                f"{where}: 'seed_count' must be >= 1, got {count}",
                path=f"<{where}>",
            )
        seeds = list(range(start, start + count))
    if len(seeds) > MAX_SWEEP_SEEDS:
        raise TraceFormatError(
            f"{where}: {len(seeds)} seeds exceeds the per-request limit "
            f"of {MAX_SWEEP_SEEDS}; split the sweep client-side",
            path=f"<{where}>",
        )
    return SweepRequest(
        scenario=scenario,
        seeds=seeds,
        use_cache=_parse_use_cache(data, where=where),
        deadline_s=_parse_deadline(data, where=where),
    )


def _dump(payload: dict) -> str:
    # Compact, key-sorted, newline-terminated: the canonical one-line
    # form every cached body and every sweep stream line uses.
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def run_body(
    key: str,
    scenario: Scenario,
    seed: int,
    result,
    *,
    backend: str,
    code_version: str,
) -> str:
    """The deterministic ``POST /run`` response body (also one sweep
    stream line — ``/run`` and ``/sweep`` share cache entries)."""
    return _dump(
        {
            "schema": SERVE_SCHEMA,
            "kind": "run",
            "key": key,
            "scenario": scenario.to_dict(),
            "seed": seed,
            "context": {
                "backend": backend,
                "engine": scenario.engine,
                "code_version": code_version,
            },
            "result": result_to_dict(result),
        }
    )


def sweep_summary_line(
    scenario: Scenario, seeds: List[int], verdicts: dict
) -> str:
    """The deterministic trailer of a ``POST /sweep`` stream.

    Carries only request-derived facts (seed count, verdict tally) —
    cache and latency live in ``GET /metrics``, never in a body that
    must be byte-stable across repeats.
    """
    return _dump(
        {
            "schema": SERVE_SCHEMA,
            "kind": "sweep_summary",
            "scenario": scenario.to_dict(),
            "seeds": len(seeds),
            "seed_first": seeds[0],
            "seed_last": seeds[-1],
            "verdicts": {k: verdicts[k] for k in sorted(verdicts)},
        }
    )


def error_body(exc: BaseException, *, status: Optional[int] = None) -> str:
    """Structured error JSON for a failed request.

    The taxonomy's ``http_status`` picks the HTTP code; the body names
    the exception type so a client can branch on failure kind without
    parsing prose.
    """
    return _dump(
        {
            "schema": SERVE_SCHEMA,
            "kind": "error",
            "error": type(exc).__name__,
            "status": status
            if status is not None
            else getattr(exc, "http_status", 500),
            "message": str(exc),
        }
    )
