"""Progress measures over time — the paper's potentials, plotted.

The correctness proofs rest on progress measures: the maximum
multiplicity never decreases (Lemma 5.3), the phi pair improves in ``A``
(Lemma 5.6 C2), distances to the invariant Weber point shrink (Lemmas
5.4/5.5).  :class:`ProgressTracker` records all of them per round, so
experiment E13 can print the measure-vs-round series a systems paper
would plot as figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core import ConfigClass
from ..sim.metrics import spread
from ..sim.trace import RoundRecord
from .invariants import phi

__all__ = ["ProgressSample", "ProgressTracker"]


@dataclass(frozen=True)
class ProgressSample:
    """One row of the progress series."""

    round_index: int
    config_class: ConfigClass
    max_multiplicity: int
    distinct_locations: int
    spread: float
    phi_mult: int
    phi_distance_sum: float


@dataclass
class ProgressTracker:
    """Engine observer accumulating the per-round progress series.

    Attach with ``sim.add_observer(tracker)``; read :attr:`samples`
    afterwards.  ``downsample(k)`` returns at most ``k`` evenly spaced
    samples (always keeping the first and last) for compact tables.
    """

    samples: List[ProgressSample] = field(default_factory=list)

    def __call__(self, record: RoundRecord) -> None:
        config = record.config_before
        phi_mult, neg_sum = phi(config)
        self.samples.append(
            ProgressSample(
                round_index=record.round_index,
                config_class=record.config_class,
                max_multiplicity=config.max_multiplicity(),
                distinct_locations=len(config.support),
                spread=spread(config.support),
                phi_mult=phi_mult,
                phi_distance_sum=-neg_sum,
            )
        )

    def downsample(self, k: int) -> List[ProgressSample]:
        if k <= 0:
            raise ValueError("need a positive sample budget")
        n = len(self.samples)
        if n <= k:
            return list(self.samples)
        step = (n - 1) / (k - 1)
        indexes = sorted({round(i * step) for i in range(k)})
        return [self.samples[i] for i in indexes]

    def max_multiplicity_monotone(self) -> bool:
        """Lemma 5.3's never-decreasing maximum, as a predicate.

        Only claimed while the configuration is in class ``M``; across
        class boundaries the maximum may legitimately reset (e.g. an
        ``A`` election merging onto a fresh point).
        """
        last: Optional[int] = None
        for sample in self.samples:
            if sample.config_class is not ConfigClass.MULTIPLE:
                last = None
                continue
            if last is not None and sample.max_multiplicity < last:
                return False
            last = sample.max_multiplicity
        return True
