"""The five-way partition of configurations (Section IV).

Every configuration of ``n`` robots belongs to exactly one of:

* ``B``   — *bivalent*: two locations, ``n/2`` robots each.  Gathering is
  deterministically impossible from here (Lemma 5.2).
* ``M``   — *multiple*: a unique location of maximum multiplicity.
* ``L1W`` — *collinear* with a unique Weber point (single median).
* ``L2W`` — *collinear* with a non-degenerate interval of Weber points.
* ``QR``  — *quasi-regular* (and none of the above).
* ``A``   — *asymmetric* (and none of the above); here ``sym(C) = 1`` so
  every occupied position has a unique view and a leader can be elected.

The paper proves the classes are mutually disjoint and cover everything;
:func:`classify` realizes the partition by testing in the order above, and
the test suite checks the claimed exhaustiveness/disjointness properties
(including Lemma 4.1) on generated workloads.
"""

from __future__ import annotations

import enum

from .configuration import Configuration
from .quasi_regularity import quasi_regularity
from .weber_point import has_unique_linear_weber_point

__all__ = ["ConfigClass", "classify"]


class ConfigClass(enum.Enum):
    """The five classes of Section IV (collinear split into L1W/L2W)."""

    BIVALENT = "B"
    MULTIPLE = "M"
    LINEAR_UNIQUE_WEBER = "L1W"
    LINEAR_MANY_WEBER = "L2W"
    QUASI_REGULAR = "QR"
    ASYMMETRIC = "A"

    def __str__(self) -> str:  # compact rendering in traces and tables
        return self.value


def _is_bivalent(config: Configuration) -> bool:
    support = config.support
    if len(support) != 2:
        return False
    mults = [config.mult(p) for p in support]
    return mults[0] == mults[1]


def _has_unique_max_multiplicity(config: Configuration) -> bool:
    return len(config.max_multiplicity_points()) == 1


def classify(config: Configuration) -> ConfigClass:
    """Assign ``config`` to its class of the Section IV partition.

    The result is memoized on the configuration.  Note the test order
    mirrors the set definitions: each class explicitly excludes the
    previous ones, so the first match is the unique class.
    """

    def compute() -> ConfigClass:
        if _is_bivalent(config):
            return ConfigClass.BIVALENT
        if _has_unique_max_multiplicity(config):
            # Includes the gathered configuration (a single location).
            return ConfigClass.MULTIPLE
        if config.is_linear():
            if has_unique_linear_weber_point(config):
                return ConfigClass.LINEAR_UNIQUE_WEBER
            return ConfigClass.LINEAR_MANY_WEBER
        if quasi_regularity(config).is_quasi_regular:
            return ConfigClass.QUASI_REGULAR
        # Non-linear, no unique max multiplicity, not quasi-regular.
        # The paper shows such configurations are asymmetric; we assert
        # the claim in tests (every symmetric configuration is regular,
        # hence quasi-regular).
        return ConfigClass.ASYMMETRIC

    return config.memo("class", compute)


def is_gathering_possible(config: Configuration) -> bool:
    """Lemma 5.2 and Theorem 5.1 combined: solvable iff not bivalent."""
    return classify(config) is not ConfigClass.BIVALENT


__all__.append("is_gathering_possible")
