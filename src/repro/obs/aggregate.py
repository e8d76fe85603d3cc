"""Cross-worker metric aggregation for sweep-scale telemetry.

A parallel sweep runs every seed in whichever worker process the pool
hands it to, and each worker accumulates its *own* process-local
:class:`~repro.obs.metrics.Metrics` registry — none of which the parent
ever sees.  This module closes that gap without any shared memory or
side channels: the runner snapshots the worker's registry around each
unit of work — a scalar seed, or a batched chunk of seeds — attaches
the exact **delta** (what the unit contributed) plus its span tail to a
result object, and the parent folds every result into one
:class:`Aggregator` through :meth:`Aggregator.seed_done`, the one fold
``repro sweep --obs`` and ``repro serve``'s ``/metrics`` share.

Why deltas rather than resets: a worker's registry also feeds the
cumulative ``repro experiment --obs`` display, so the per-seed capture
must not clear it.  Counters, stat count/total and histogram buckets
subtract exactly; stat min/max are carried from the cumulative snapshot
(a min over a superset is still a lower bound, so the merged bounds stay
correct).

The merge is associative and order-independent for everything except
stat min/max (which are still correct bounds), so the aggregate of a
chaotic, retried, out-of-order parallel sweep equals the aggregate of a
clean serial one — the same determinism contract the result values
themselves carry.  Histograms merge by element-wise addition because
every process derives bit-identical bucket bounds
(:mod:`repro.obs.histogram`).

The aggregate serializes as a ``repro-sweep-metrics-v1`` document,
written atomically next to the sweep journal by ``repro sweep --obs``
and rendered live by :mod:`repro.obs.dashboard`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Tuple

from ..resilience import SeedTimeoutError, atomic_write
from .histogram import Histogram
from .metrics import metrics
from .spans import tracer

__all__ = [
    "SWEEP_METRICS_SCHEMA",
    "snapshot_delta",
    "capture_before",
    "seed_payload",
    "namespace_delta",
    "Aggregator",
    "write_sweep_metrics",
]

#: Schema identifier of the persisted sweep-metrics document.
SWEEP_METRICS_SCHEMA = "repro-sweep-metrics-v1"


# -- per-seed capture (worker side) -------------------------------------------


def capture_before() -> Tuple[dict, int]:
    """Worker-side capture point taken just before a seed (or a batched
    chunk) runs.

    Returns ``(registry snapshot, span completion seq)`` — the inputs
    :func:`seed_payload` needs to compute the seed's exact contribution
    afterwards.
    """
    return metrics.snapshot(), tracer.seq


def snapshot_delta(after: dict, before: dict) -> dict:
    """The exact contribution between two registry snapshots.

    Counters, stat count/total and histogram buckets are monotone, so
    ``after - before`` is the precise work of the window; entries that
    did not move are dropped.  Stat min/max come from ``after``
    (cumulative — still correct bounds under merge).
    """
    counters = {}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        moved = value - before_counters.get(name, 0)
        if moved:
            counters[name] = moved

    stats = {}
    before_stats = before.get("stats", {})
    for name, stat in after.get("stats", {}).items():
        prior = before_stats.get(name, {"count": 0, "total": 0.0})
        moved = stat["count"] - prior["count"]
        if moved:
            stats[name] = {
                "count": moved,
                "total": stat["total"] - prior["total"],
                "min": stat["min"],
                "max": stat["max"],
            }

    hists = {}
    before_hists = before.get("hists", {})
    for name, data in after.get("hists", {}).items():
        hist = Histogram.from_dict(data)
        prior = before_hists.get(name)
        if prior is not None:
            hist = hist.delta(Histogram.from_dict(prior))
        if hist.count:
            hists[name] = hist.to_dict()

    return {"counters": counters, "stats": stats, "hists": hists}


def seed_payload(before: Tuple[dict, int]) -> dict:
    """The observability payload one finished seed (or batched chunk)
    ships home.

    ``before`` is the :func:`capture_before` pair taken when the work
    started in this process.  The payload carries the worker pid (so
    the aggregate can report which processes contributed), the exact
    registry delta, and — when tracing is active — the seed's finished
    spans still in the tracer's ring buffer.
    """
    snapshot_before, seq_before = before
    payload = {
        "pid": os.getpid(),
        "metrics": snapshot_delta(metrics.snapshot(), snapshot_before),
    }
    if tracer.active:
        payload["spans"] = [
            span.to_dict() for span in tracer.tail(since_seq=seq_before)
        ]
    return payload


def namespace_delta(delta: dict, prefix: str) -> dict:
    """The same registry delta with every metric name prefixed.

    ``repro serve`` aggregates work from *many independent requests*
    into one long-lived registry; prefixing each request's delta with
    its endpoint (``serve.run.``, ``serve.sweep.``) keeps per-endpoint
    counters and latency histograms separable in the ``/metrics``
    document without teaching the registry itself about namespaces.
    """
    if not prefix.endswith("."):
        prefix += "."
    return {
        "counters": {
            prefix + name: value
            for name, value in delta.get("counters", {}).items()
        },
        "stats": {
            prefix + name: stat
            for name, stat in delta.get("stats", {}).items()
        },
        "hists": {
            prefix + name: data
            for name, data in delta.get("hists", {}).items()
        },
    }


# -- sweep-level merge (parent side) ------------------------------------------


class Aggregator:
    """Folds per-seed payloads into one sweep-level view.

    Fed from two callbacks of the resilient sweep: ``seed_done`` per
    completed seed (payload merge + verdict/round accounting) and
    ``failure`` per failed attempt (retry/timeout accounting).  ``repro
    serve`` feeds its ``/metrics`` aggregate through the same
    ``seed_done``.  All fields are parent-process state; nothing here
    is shared with workers.
    """

    def __init__(self, total_seeds: int = 0) -> None:
        self.total_seeds = total_seeds
        self.done = 0
        self.resumed = 0
        self.retries = 0
        self.timeouts = 0
        #: Rounds of seeds that ran (and shipped a payload) here; a
        #: resumed seed's rounds ran in an earlier session, so they are
        #: kept apart, out of the rate and of ``by_class``'s total.
        self.rounds = 0
        self.resumed_rounds = 0
        self.verdicts: Dict[str, int] = {}
        self.workers: set = set()
        self.counters: Dict[str, int] = {}
        self.stats: Dict[str, dict] = {}
        self.hists: Dict[str, Histogram] = {}
        self.span_count = 0
        self.started = time.monotonic()

    # -- feeding -----------------------------------------------------------

    def seed_done(self, result, prefix: str = "") -> None:
        """Account one completed seed (journal-resumed or fresh).

        A fresh result carries its obs payload: a scalar seed's own
        delta, or, for a batched chunk, the chunk's whole delta on its
        first result and a pid-only empty one on the others.  ``prefix``
        (``repro serve``'s endpoint namespace) renames every metric of
        the delta (:func:`namespace_delta`).
        """
        self.done += 1
        self.verdicts[result.verdict] = (
            self.verdicts.get(result.verdict, 0) + 1
        )
        payload = getattr(result, "obs", None)
        if payload is None:
            # A journal-resumed seed (or an obs-disabled worker): its
            # result counts, but it carries no registry contribution.
            self.resumed += 1
            self.resumed_rounds += result.rounds
            return
        self.rounds += result.rounds
        self.workers.add(payload.get("pid"))
        self.span_count += len(payload.get("spans", ()))
        delta = payload.get("metrics", {})
        if prefix:
            delta = namespace_delta(delta, prefix)
        self.add_metrics(delta)

    def failure(self, key: str, exc: BaseException, strike: bool) -> None:
        """Account one failed attempt (the item will be retried unless
        its budget is exhausted)."""
        self.retries += 1
        if isinstance(exc, SeedTimeoutError):
            self.timeouts += 1

    def add_metrics(self, delta: dict) -> None:
        """Merge one registry delta (associative, commutative)."""
        for name, value in delta.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, stat in delta.get("stats", {}).items():
            into = self.stats.get(name)
            if into is None:
                self.stats[name] = dict(stat)
            else:
                into["count"] += stat["count"]
                into["total"] += stat["total"]
                into["min"] = min(into["min"], stat["min"])
                into["max"] = max(into["max"], stat["max"])
        for name, data in delta.get("hists", {}).items():
            hist = Histogram.from_dict(data)
            into = self.hists.get(name)
            if into is None:
                self.hists[name] = hist
            else:
                into.merge(hist)

    # -- reading -----------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def rounds_per_second(self) -> float:
        elapsed = self.elapsed()
        return self.rounds / elapsed if elapsed > 0 else 0.0

    def class_rounds(self) -> Dict[str, int]:
        """Per-configuration-class round counts from merged counters."""
        return {
            name.rsplit(".", 1)[-1]: value
            for name, value in sorted(self.counters.items())
            if name.startswith("rounds.class.")
        }

    def eta_seconds(self) -> Optional[float]:
        """Naive remaining-time estimate from the per-seed pace."""
        if not self.done or not self.total_seeds:
            return None
        remaining = self.total_seeds - self.done
        if remaining <= 0:
            return 0.0
        return self.elapsed() / self.done * remaining

    def to_dict(self) -> dict:
        """The JSON-ready ``repro-sweep-metrics-v1`` document."""
        hists = {}
        for name, hist in self.hists.items():
            data = hist.to_dict()
            data["mean"] = hist.mean
            data["p50"] = hist.quantile(0.5)
            data["p90"] = hist.quantile(0.9)
            data["p99"] = hist.quantile(0.99)
            hists[name] = data
        stats = {}
        for name, stat in sorted(self.stats.items()):
            entry = dict(stat)
            entry["mean"] = (
                entry["total"] / entry["count"] if entry["count"] else 0.0
            )
            stats[name] = entry
        return {
            "schema": SWEEP_METRICS_SCHEMA,
            "seeds": {
                "total": self.total_seeds,
                "done": self.done,
                "resumed": self.resumed,
                "retried": self.retries,
                "timed_out": self.timeouts,
            },
            "rounds": {
                "total": self.rounds,
                "resumed": self.resumed_rounds,
                "per_second": self.rounds_per_second(),
                "by_class": self.class_rounds(),
            },
            "verdicts": dict(sorted(self.verdicts.items())),
            "workers": sorted(pid for pid in self.workers if pid is not None),
            "span_count": self.span_count,
            "elapsed_s": self.elapsed(),
            "counters": dict(sorted(self.counters.items())),
            "stats": stats,
            "hists": hists,
        }


def write_sweep_metrics(aggregator: Aggregator, path: str) -> None:
    """Persist the aggregate atomically (temp + fsync + rename), so a
    killed sweep leaves either the previous document or the new one —
    never a truncated JSON."""
    atomic_write(
        path, json.dumps(aggregator.to_dict(), indent=2, sort_keys=False) + "\n"
    )
