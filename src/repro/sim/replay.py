"""Trace replay.

This module is the offline half of the reproducibility story.  A v2
trace (see :mod:`repro.sim.trace`) embeds its scenario, seeds, backend
label and tolerance, which makes two checks possible without any
context beyond the JSON file:

* :func:`replay_trace` — rebuild the simulation from the embedded
  scenario and verify the re-execution is **bit-identical** round by
  round: positions, classes, activations, crashes, destinations, moves.
  Any drift means some piece of ambient state leaked into an execution
  that claims to be a pure function of the scenario and seed.
* :func:`repro.analysis.invariants.verify_trace` (re-exported by the
  CLI) — run the proof-obligation checkers over the archived rounds
  without re-simulating.

Divergences carry a shell command that reproduces them in isolation;
``repro check`` prints it, and CI surfaces it in the failing log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..resilience import TraceFormatError, atomic_write
from .trace import Trace, RoundRecord, TraceMeta

__all__ = [
    "Divergence",
    "ReplayReport",
    "load_trace",
    "save_trace",
    "rebuild_result",
    "replay_trace",
    "compare_records",
    "compare_traces",
]


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """First point where two executions of "the same run" disagree."""

    round_index: int
    field: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (
            f"round {self.round_index}: {self.field} diverged\n"
            f"  expected: {self.expected!r}\n"
            f"  actual:   {self.actual!r}"
        )


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-simulating an archived trace."""

    rounds_compared: int
    divergence: Optional[Divergence]
    command: str

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        if self.ok:
            return f"replay ok: {self.rounds_compared} rounds bit-identical"
        return (
            f"replay FAILED:\n"
            f"{self.divergence.describe()}\n"
            f"  reproduce: {self.command}"
        )


# -- trace files -------------------------------------------------------------


def load_trace(path: str) -> Trace:
    """Read an archived ``repro-trace-v2`` trace from ``path``.

    Corruption (truncated or garbage JSON, malformed records, foreign
    headers) raises :class:`~repro.resilience.errors.TraceFormatError`
    carrying the path and, for syntax errors, the line/offset.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(
            f"{path}: cannot read trace: {exc}", path=path
        ) from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: not a text file (binary garbage at byte "
            f"{exc.start})",
            path=path,
            offset=exc.start,
        ) from exc
    return Trace.from_json(text, source=path)


def save_trace(trace: Trace, path: str, indent: Optional[int] = 2) -> None:
    """Write ``trace`` to ``path`` atomically in the current (v2) schema.

    The write goes through :func:`~repro.resilience.atomic.atomic_write`
    (temp file + fsync + rename), so an interrupt can never leave a
    truncated archive that would later poison ``repro check --corpus``.
    """
    atomic_write(path, trace.to_json(indent=indent))


# -- replay ------------------------------------------------------------------


def _require_replayable(meta: Optional[TraceMeta]) -> TraceMeta:
    if meta is None:
        raise ValueError(
            "trace has no meta block; only traces recorded through "
            "the scenario runner can be replayed"
        )
    if meta.scenario is None or meta.seed is None:
        raise ValueError(
            "trace meta does not embed a scenario; re-record it via "
            "run_scenario(record_trace=True) or `repro simulate "
            "--save-trace`"
        )
    return meta


def rebuild_result(meta: TraceMeta):
    """Re-execute the run a meta block describes, recording its trace."""
    from ..experiments.runner import Scenario, run_scenario  # lazy: cycle

    meta = _require_replayable(meta)
    scenario = Scenario.from_dict(meta.scenario)
    return run_scenario(
        scenario,
        meta.seed,
        engine_seed=meta.engine_seed,
        record_trace=True,
    )


def compare_records(
    expected: RoundRecord, actual: RoundRecord
) -> Optional[Divergence]:
    """Bitwise comparison of two round records (``None`` when identical).

    Coordinates are compared exactly — the replay contract is
    *bit-identical*, not merely within tolerance: tolerant agreement
    already fails to guarantee identical classifications downstream.
    """
    checks = (
        ("class", expected.config_class.value, actual.config_class.value),
        ("active", expected.active, actual.active),
        ("crashed", expected.crashed_now, actual.crashed_now),
        ("moved", expected.moved, actual.moved),
        (
            "positions-before",
            tuple(p.as_tuple() for p in expected.config_before.points),
            tuple(p.as_tuple() for p in actual.config_before.points),
        ),
        (
            "destinations",
            {r: d.as_tuple() for r, d in sorted(expected.destinations.items())},
            {r: d.as_tuple() for r, d in sorted(actual.destinations.items())},
        ),
        (
            "positions-after",
            tuple(p.as_tuple() for p in expected.config_after.points),
            tuple(p.as_tuple() for p in actual.config_after.points),
        ),
    )
    for name, want, got in checks:
        if want != got:
            return Divergence(
                round_index=expected.round_index,
                field=name,
                expected=want,
                actual=got,
            )
    return None


def compare_traces(expected: Trace, actual: Trace) -> Optional[Divergence]:
    """First divergence between two traces, or ``None``."""
    for exp, act in zip(expected.records, actual.records):
        divergence = compare_records(exp, act)
        if divergence is not None:
            return divergence
    if len(expected) != len(actual):
        return Divergence(
            round_index=min(len(expected), len(actual)),
            field="rounds",
            expected=len(expected),
            actual=len(actual),
        )
    return None


def replay_trace(trace: Trace, path: str = "<trace>") -> ReplayReport:
    """Re-simulate an archived trace and verify bitwise identity."""
    meta = _require_replayable(trace.meta)
    result = rebuild_result(meta)
    divergence = compare_traces(trace, result.trace)
    return ReplayReport(
        rounds_compared=min(len(trace), len(result.trace)),
        divergence=divergence,
        command=f"python -m repro check --replay {path}",
    )
