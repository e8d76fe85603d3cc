"""Execution traces — what happened, round by round.

Traces drive four consumers: the invariant checkers of
:mod:`repro.analysis` (which verify per-round proof obligations), the
experiment harness (which aggregates metrics), humans debugging a run
(``Trace.render`` prints a compact transcript), and offline tooling
(``Trace.to_json`` / ``Trace.from_json`` round-trip the full record so a
run can be archived, diffed, or re-analysed without re-simulating).

Schema
------
``repro-trace-v2`` carries a ``meta`` block embedding everything needed
to *re-simulate* the run — the canonical scenario dict, the sweep seed
and engine seed, the backend label, the package version, and the
:class:`~repro.geometry.tolerance.Tolerance` the run quantized space
with.  The tolerance matters for fidelity, not just provenance: the
per-round configurations are rebuilt on load, and rebuilding with the
wrong tolerance silently changes how near-coincident points merge into
support points.  A trace without meta (``"meta": null``) still loads,
rebuilt with the default tolerance, but cannot be replayed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import ConfigClass, Configuration
from ..geometry import DEFAULT_TOLERANCE, Point, Tolerance
from ..resilience.errors import TraceFormatError

__all__ = [
    "RoundRecord",
    "Trace",
    "TraceMeta",
    "SCHEMA_V2",
    "BACKEND",
    "canonical_scenario_json",
    "scenario_hash",
]

#: Schema identifier: ``meta`` block + records.
SCHEMA_V2 = "repro-trace-v2"

#: Backend label of every run, recorded in trace meta and hashed into
#: serve cache keys.  Scalar computations have one implementation, the
#: pure-Python one; the label stays so archived traces and stored
#: results keep their keys.
BACKEND = "python"


def _package_version() -> str:
    from .. import __version__  # deferred: repro/__init__ imports us

    return __version__


def _canonical_value(value):
    """Normalize a JSON value for content addressing.

    Two textual spellings of the same scenario must hash identically:
    object key order is irrelevant (sorted on dump) and so is float
    formatting — ``8``, ``8.0`` and ``8.00`` all denote the same team
    size, so integral floats collapse to ints before serialization.
    Non-integral floats serialize via ``repr`` (the json default), which
    round-trips float64 exactly.
    """
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def canonical_scenario_json(scenario: Optional[dict]) -> str:
    """The canonical JSON text of a scenario dict.

    Key-order and float-formatting invariant (see :func:`_canonical_value`),
    minimal separators, sorted keys — the exact byte string that feeds
    :func:`scenario_hash`, so any two requests describing the same
    scenario content-address to the same cache entry.
    """
    return json.dumps(
        _canonical_value(scenario), sort_keys=True, separators=(",", ":")
    )


def scenario_hash(
    scenario: Optional[dict],
    *,
    seed: int,
    backend: str,
    engine: str,
    code_version: str,
) -> str:
    """Content address of one deterministic run.

    A run is a pure function of ``(scenario, seed, backend, engine,
    code version)`` — the crash-fault model's determinism guarantee —
    so this sha256 names its result forever.  ``engine`` is hashed
    explicitly even though the canonical scenario dict carries it too:
    callers hashing partial scenario dicts (or ``None``) still get
    engine-distinct keys.
    """
    digest = hashlib.sha256()
    digest.update(canonical_scenario_json(scenario).encode("utf-8"))
    digest.update(f"|seed={seed}|backend={backend}|engine={engine}"
                  f"|version={code_version}".encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceMeta:
    """Provenance block of a v2 trace — enough to re-simulate the run.

    ``scenario`` is the canonical dict of an experiment
    :class:`~repro.experiments.runner.Scenario` (or ``None`` for traces
    recorded outside the scenario machinery); ``seed`` is the sweep seed
    the workload was generated from, ``engine_seed`` the seed actually
    handed to the engine (the CLI ``simulate`` command passes the raw
    user seed rather than the sweep-derived one, so both are recorded).
    """

    scenario: Optional[dict]
    seed: Optional[int]
    engine_seed: Optional[int]
    backend: str
    package_version: str
    tolerance: Optional[Tuple[float, float, float]]
    #: Which engine executed the run: ``"atom"`` (the paper's
    #: semi-synchronous rounds) or ``"async"`` (the CORDA-style tick
    #: engine).  Replay dispatches on it via the embedded scenario; it
    #: is recorded here too so tools can tell the scheduler model of an
    #: archive without parsing the scenario block.
    engine: str = "atom"

    @classmethod
    def for_run(
        cls,
        *,
        scenario: Optional[dict],
        seed: Optional[int],
        engine_seed: Optional[int],
        tol: Tolerance,
        engine: str = "atom",
    ) -> "TraceMeta":
        """Meta for a run recorded in this process, right now."""
        return cls(
            scenario=dict(scenario) if scenario is not None else None,
            seed=seed,
            engine_seed=engine_seed,
            backend=BACKEND,
            package_version=_package_version(),
            tolerance=(tol.eps_dist, tol.eps_angle, tol.eps_solver),
            engine=engine,
        )

    def tol(self) -> Tolerance:
        """The recorded tolerance (default when the block predates it)."""
        if self.tolerance is None:
            return DEFAULT_TOLERANCE
        eps_dist, eps_angle, eps_solver = self.tolerance
        return Tolerance(
            eps_dist=eps_dist, eps_angle=eps_angle, eps_solver=eps_solver
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "engine_seed": self.engine_seed,
            "backend": self.backend,
            "package_version": self.package_version,
            "tolerance": list(self.tolerance) if self.tolerance else None,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceMeta":
        tolerance = data.get("tolerance")
        return cls(
            scenario=data.get("scenario"),
            seed=data.get("seed"),
            engine_seed=data.get("engine_seed"),
            backend=data.get("backend", BACKEND),
            package_version=data.get("package_version", "unknown"),
            tolerance=tuple(tolerance) if tolerance else None,
            engine=data.get("engine", "atom"),
        )


@dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one simulation round."""

    round_index: int
    config_before: Configuration
    config_class: ConfigClass
    active: Tuple[int, ...]
    crashed_now: Tuple[int, ...]
    destinations: Dict[int, Point]
    config_after: Configuration
    moved: Tuple[int, ...]

    def summary(self) -> str:
        moves = ",".join(str(i) for i in self.moved) or "-"
        crash = ",".join(str(i) for i in self.crashed_now) or "-"
        return (
            f"r{self.round_index:>4} [{self.config_class}] "
            f"active={len(self.active)} moved={moves} crashed={crash}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float coordinates preserved)."""
        return {
            "round": self.round_index,
            "class": self.config_class.value,
            "before": [p.as_tuple() for p in self.config_before.points],
            "after": [p.as_tuple() for p in self.config_after.points],
            "active": list(self.active),
            "crashed": list(self.crashed_now),
            "moved": list(self.moved),
            "destinations": {
                str(rid): dest.as_tuple()
                for rid, dest in self.destinations.items()
            },
        }

    @classmethod
    def from_dict(
        cls, data: dict, tol: Tolerance = DEFAULT_TOLERANCE
    ) -> "RoundRecord":
        """Inverse of :meth:`to_dict`.

        ``tol`` must be the tolerance the run was recorded under (a v2
        trace carries it in its meta block): the configurations are
        rebuilt here, and the tolerance decides how near-coincident
        coordinates merge into support points.  JSON object keys are
        always strings, so ``destinations`` keys are restored to the
        robot-id integers they were serialized from.
        """
        return cls(
            round_index=data["round"],
            config_before=Configuration(
                [Point(x, y) for x, y in data["before"]], tol
            ),
            config_class=ConfigClass(data["class"]),
            active=tuple(data["active"]),
            crashed_now=tuple(data["crashed"]),
            destinations={
                int(rid): Point(x, y)
                for rid, (x, y) in data["destinations"].items()
            },
            config_after=Configuration(
                [Point(x, y) for x, y in data["after"]], tol
            ),
            moved=tuple(data["moved"]),
        )


@dataclass
class Trace:
    """Ordered list of :class:`RoundRecord` with rendering helpers.

    Recording full configurations costs memory linear in rounds x robots;
    the engine's ``record_trace`` flag turns it off for large sweeps,
    in which case only counters are kept by the result object.
    """

    records: List[RoundRecord] = field(default_factory=list)

    #: Provenance of the run (schema v2); ``None`` for legacy archives
    #: and hand-built traces.  The engine stamps a partial block (seeds,
    #: backend, tolerance) at construction; the scenario runner replaces
    #: it with a full one including the scenario dict.
    meta: Optional[TraceMeta] = None

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def class_sequence(self) -> List[ConfigClass]:
        """The sequence of configuration classes traversed."""
        return [r.config_class for r in self.records]

    def render(self, limit: Optional[int] = 50) -> str:
        """Human-readable transcript (truncated to ``limit`` rounds)."""
        rows = [r.summary() for r in self.records[: limit or None]]
        if limit is not None and len(self.records) > limit:
            rows.append(f"... ({len(self.records) - limit} more rounds)")
        return "\n".join(rows)

    def tol(self) -> Tolerance:
        """Tolerance the trace was recorded under (default if unknown)."""
        return self.meta.tol() if self.meta is not None else DEFAULT_TOLERANCE

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the whole trace (exact coordinates) to JSON.

        Python floats serialize via ``repr`` which round-trips ``float64``
        exactly, so coordinates survive the archive bit for bit.
        """
        return json.dumps(
            {
                "format": SCHEMA_V2,
                "meta": self.meta.to_dict() if self.meta else None,
                "records": [r.to_dict() for r in self.records],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str, source: str = "<trace>") -> "Trace":
        """Inverse of :meth:`to_json`.

        Raises :class:`~repro.resilience.errors.TraceFormatError` (a
        :class:`ValueError`) on any unrecognized or corrupted payload —
        carrying ``source`` plus the line/offset of a JSON syntax error
        — so a stale or truncated archive fails loudly and points at
        the byte that poisoned it rather than half-loading.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{source}: invalid trace JSON at line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}",
                path=source,
                line=exc.lineno,
                offset=exc.pos,
            ) from exc
        if not isinstance(data, dict) or data.get("format") != SCHEMA_V2:
            found = data.get("format") if isinstance(data, dict) else type(data).__name__
            raise TraceFormatError(
                f"{source}: not a {SCHEMA_V2} payload (format={found!r})",
                path=source,
            )
        meta_data = data.get("meta")
        try:
            meta = TraceMeta.from_dict(meta_data) if meta_data else None
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{source}: malformed trace meta block: {exc}", path=source
            ) from exc
        tol = meta.tol() if meta is not None else DEFAULT_TOLERANCE
        trace = cls(meta=meta)
        records = data.get("records")
        if not isinstance(records, list):
            raise TraceFormatError(
                f"{source}: trace payload has no records array", path=source
            )
        for index, record in enumerate(records):
            try:
                trace.append(RoundRecord.from_dict(record, tol))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise TraceFormatError(
                    f"{source}: malformed round record {index}: {exc}",
                    path=source,
                ) from exc
        return trace
