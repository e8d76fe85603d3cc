"""Trace replay and differential backend verification.

This module is the offline half of the reproducibility story.  A v2
trace (see :mod:`repro.sim.trace`) embeds its scenario, seeds, backend
and tolerance, which makes three checks possible without any context
beyond the JSON file:

* :func:`replay_trace` — rebuild the simulation from the embedded
  scenario and verify the re-execution is **bit-identical** round by
  round: positions, classes, activations, crashes, destinations, moves.
  Any drift means some piece of ambient state leaked into an execution
  that claims to be a pure function of the scenario and seed.
* :func:`repro.analysis.invariants.verify_trace` (re-exported by the
  CLI) — run the proof-obligation checkers over the archived rounds
  without re-simulating.
* :func:`differential_check` — execute one scenario under both kernel
  backends in **subprocesses** (so each resolves ``REPRO_BACKEND`` from
  a clean import) and diff the executions round by round, reporting the
  first divergent round together with a minimized reproduction command.

Divergences carry a shell command that reproduces them in isolation;
``repro check`` prints it, and CI surfaces it in the failing log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..geometry import kernels
from ..resilience import TraceFormatError, atomic_write
from .trace import Trace, RoundRecord, TraceMeta

__all__ = [
    "Divergence",
    "ReplayReport",
    "DiffReport",
    "load_trace",
    "save_trace",
    "rebuild_result",
    "replay_trace",
    "compare_records",
    "compare_traces",
    "record_subprocess_trace",
    "differential_check",
    "diff_command",
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

    backend: str
    rounds_compared: int
    divergence: Optional[Divergence]
    command: str

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        if self.ok:
            return (
                f"replay ok: {self.rounds_compared} rounds bit-identical "
                f"on backend {self.backend!r}"
            )
        return (
            f"replay FAILED on backend {self.backend!r}:\n"
            f"{self.divergence.describe()}\n"
            f"  reproduce: {self.command}"
        )


@dataclass(frozen=True)
class DiffReport:
    """Outcome of a differential backend check for one (scenario, seed)."""

    seed: int
    backends: Tuple[str, str]
    rounds: Tuple[int, int]
    divergence: Optional[Divergence]
    command: str

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        a, b = self.backends
        if self.ok:
            return (
                f"seed {self.seed}: {a} and {b} agree "
                f"({self.rounds[0]} rounds bit-identical)"
            )
        return (
            f"seed {self.seed}: {a} vs {b} DIVERGED\n"
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


def replay_trace(
    trace: Trace,
    backend: Optional[str] = None,
    path: str = "<trace>",
) -> ReplayReport:
    """Re-simulate an archived trace and verify bitwise identity.

    ``backend`` defaults to the backend the trace was recorded on;
    passing another verifies cross-backend reproducibility (which holds
    whenever the kernels' combinatorial-equivalence contract extends to
    the numerical outputs the scenario actually exercises).
    """
    meta = _require_replayable(trace.meta)
    backend = backend or meta.backend
    command = f"REPRO_BACKEND={backend} python -m repro check --replay {path}"
    with kernels.backend(backend):
        result = rebuild_result(meta)
    divergence = compare_traces(trace, result.trace)
    return ReplayReport(
        backend=backend,
        rounds_compared=min(len(trace), len(result.trace)),
        divergence=divergence,
        command=command,
    )


# -- differential backend check ----------------------------------------------


def _child_env(backend: str) -> dict:
    """Environment for a recorder subprocess: explicit backend, and the
    parent's package location on ``PYTHONPATH`` so ``-m repro`` resolves
    even when the package is not installed."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["REPRO_BACKEND"] = backend
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


def record_subprocess_trace(
    scenario,
    seed: int,
    backend: str,
    out_path: str,
    timeout: float = 600.0,
) -> Trace:
    """Run one (scenario, seed) in a fresh subprocess pinned to ``backend``
    and return the recorded trace.

    A subprocess — not an in-process backend switch — is the point: the
    child resolves ``REPRO_BACKEND`` from the environment at import
    time, exactly the code path a user's sweep takes, so a divergence
    found here is a divergence a sweep would actually hit.
    """
    scenario_path = out_path + ".scenario.json"
    with open(scenario_path, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_dict(), handle)
    command = [
        sys.executable,
        "-m",
        "repro",
        "check",
        "--emit-trace",
        scenario_path,
        "--seed",
        str(seed),
        "--out",
        out_path,
    ]
    completed = subprocess.run(
        command,
        env=_child_env(backend),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"trace recorder failed (backend={backend}, seed={seed}):\n"
            f"{completed.stdout}{completed.stderr}"
        )
    return load_trace(out_path)


def diff_command(scenario, seed: int, max_rounds: Optional[int] = None) -> str:
    """The minimized shell command reproducing a differential divergence.

    ``max_rounds`` truncates the run just past the divergent round, so
    the reproduction is as small as the divergence allows.
    """
    parts = [
        "python -m repro check --diff",
        f"--workload {scenario.workload}",
        f"--n {scenario.n}",
        f"--algorithm {scenario.algorithm}",
        f"--scheduler {scenario.scheduler}",
        f"--crashes {scenario.crashes}",
        f"--f {scenario.f}",
        f"--movement {scenario.movement}",
        f"--seeds {seed}",
    ]
    if getattr(scenario, "visibility", None) is not None:
        parts.append(f"--visibility {scenario.visibility:g}")
    if max_rounds is not None:
        parts.append(f"--max-rounds {max_rounds}")
    return " ".join(parts)


def differential_check(
    scenario,
    seed: int,
    backends: Tuple[str, str] = ("python", "numpy"),
    timeout: float = 600.0,
) -> DiffReport:
    """Execute one (scenario, seed) under two backends and diff the runs."""
    with tempfile.TemporaryDirectory(prefix="repro-diff-") as tmp:
        traces: List[Trace] = []
        for backend in backends:
            out_path = os.path.join(tmp, f"{backend}-seed{seed}.json")
            traces.append(
                record_subprocess_trace(
                    scenario, seed, backend, out_path, timeout=timeout
                )
            )
    expected, actual = traces
    divergence = compare_traces(expected, actual)
    max_rounds = (
        min(divergence.round_index + 1, scenario.max_rounds)
        if divergence is not None
        else None
    )
    return DiffReport(
        seed=seed,
        backends=backends,
        rounds=(len(expected), len(actual)),
        divergence=divergence,
        command=diff_command(scenario, seed, max_rounds=max_rounds),
    )
