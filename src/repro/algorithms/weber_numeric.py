"""Numerical move-to-Weber-point baseline.

If the Weber point were computable, gathering would be trivial: everyone
walks towards it and Lemma 3.2 keeps it fixed while they do.  The paper's
whole difficulty is that no finite algorithm computes the Weber point of
an *arbitrary* configuration.  This baseline "cheats" with a numerical
geometric-median solver (Weiszfeld, stopping once a step moves at most
``eps_solver = 1e-13``), which a real oblivious robot cannot do exactly —
but in simulation it provides:

* an upper-bound reference for convergence speed (experiment E4), and
* ground truth for validating the exact quasi-regular Weber computation
  (experiment E7).

Degenerate cases are inherited from the mathematics: for a linear
configuration with a median *interval* the chosen point (the interval
midpoint) is **not** invariant under partial moves, and from a bivalent
configuration the baseline oscillates — both failures are measured, and
both are exactly the cases the paper handles specially.
"""

from __future__ import annotations

from ..core import Configuration, numeric_weber_point
from ..geometry import Point

__all__ = ["NumericalWeberGather"]


class NumericalWeberGather:
    """Move towards the numerically computed geometric median."""

    name = "weber-numeric"

    def compute(self, config: Configuration, me: Point) -> Point:
        target = numeric_weber_point(config)
        if target is None:
            # Uncertified solve (numerically pathological input): the
            # robot has no better idea than staying put this cycle.
            return me
        return target
