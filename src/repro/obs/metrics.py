"""Process-wide counters and timers for the observability layer.

One :class:`Metrics` registry per process (:data:`metrics`), holding

* **counters** — monotonically increasing integers (`inc`), e.g.
  ``rounds.class.A`` or ``runs.verdict.gathered``;
* **stats** — running aggregates of observed values (`observe`):
  count / total / min / max, e.g. ``weber.iterations``,
  ``runner.run_seconds`` or ``geometry.kernels.distance_sums`` (seconds
  per call of a batched-engine kernel);
* **histograms** — fixed log-spaced latency distributions (`observe_hist`),
  e.g. ``round_seconds`` and ``kernel_seconds``.  Because every process
  bins into the same boundaries (:mod:`repro.obs.histogram`), the
  sweep-level aggregator merges worker histograms by plain addition.

Everything is plain dictionaries updated in-line: recording one value is
a couple of dict operations, cheap enough to sit inside instrumented
kernels.  A timing is an ordinary stat (seconds per call), so the sweep
aggregate merges it like any other.  The registry is process-local by
design — worker processes of a parallel sweep each accumulate their own
view, and the runner folds what matters (per-worker throughput) into
result-independent summaries.
"""

from __future__ import annotations

from typing import Dict

from .histogram import Histogram

__all__ = ["Stat", "Metrics", "metrics"]


class Stat:
    """Running aggregate of a stream of observations."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class Metrics:
    """A registry of counters, stats and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._stats: Dict[str, Stat] = {}
        self._hists: Dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Bump counter ``name`` by ``value``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the running aggregate ``name``."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = Stat()
        stat.add(value)

    def observe_hist(self, name: str, value: float) -> None:
        """Bin ``value`` into the fixed log-spaced histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.add(value)

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """Copy of all counters (stable for iteration while recording)."""
        return dict(self._counters)

    def stats(self) -> Dict[str, Stat]:
        return dict(self._stats)

    def hists(self) -> Dict[str, Histogram]:
        return dict(self._hists)

    def snapshot(self) -> dict:
        """One JSON-ready dict of everything recorded so far."""
        return {
            "counters": dict(self._counters),
            "stats": {name: s.to_dict() for name, s in self._stats.items()},
            "hists": {name: h.to_dict() for name, h in self._hists.items()},
        }

    def reset(self) -> None:
        """Drop everything (profiling sessions start from zero)."""
        self._counters.clear()
        self._stats.clear()
        self._hists.clear()


#: The process-wide registry all instrumentation records into.
metrics = Metrics()
