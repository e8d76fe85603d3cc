"""Tolerance model shared by every geometric predicate in the library.

The paper models robots as points on the real plane and its case analysis
relies on *combinatorial* predicates: "are these two points equal?", "are
these three points collinear?", "are these two angles equal?".  A floating
point simulation cannot answer those questions exactly, so every predicate
in :mod:`repro.geometry` and :mod:`repro.core` funnels through a single
:class:`Tolerance` object.  This guarantees that the whole stack quantizes
the plane consistently: if two points are "equal" for multiplicity
detection they are also "equal" for collinearity, views, and the string of
angles.

Design rules (see DESIGN.md section 4):

* ``eps_dist`` — two points closer than this are the same point.
* ``eps_angle`` — two angles closer than this (in radians) are equal.
* Numerical root finders used internally (e.g. Weiszfeld iteration) must
  converge at least two orders of magnitude below these thresholds.

A module-level :data:`DEFAULT_TOLERANCE` is used wherever the caller does
not supply one; it is deliberately loose enough to absorb accumulated
``float64`` rounding over thousands of simulation rounds, and tight enough
to distinguish any two points a workload generator ever produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Tolerance", "DEFAULT_TOLERANCE"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Tolerance:
    """Bundle of the epsilons used by all tolerant geometric predicates.

    Instances are immutable; build a variant with
    :meth:`dataclasses.replace` when an experiment needs a different
    quantization (e.g. the delta-sensitivity sweep of experiment E8).
    """

    #: Distance below which two points are considered identical.
    eps_dist: float = 1e-9

    #: Angular difference (radians) below which two angles are equal.
    eps_angle: float = 1e-9

    #: Convergence threshold for internal fixed-point iterations
    #: (Weiszfeld).  Must be well below ``eps_dist``.
    eps_solver: float = 1e-13

    def __post_init__(self) -> None:
        if self.eps_dist <= 0 or self.eps_angle <= 0 or self.eps_solver <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.eps_solver >= self.eps_dist:
            raise ValueError(
                "solver tolerance must be below the distance tolerance "
                f"(got eps_solver={self.eps_solver!r} >= eps_dist={self.eps_dist!r})"
            )

    # -- scalar predicates -------------------------------------------------

    def same_length(self, a: float, b: float) -> bool:
        """True when two lengths are indistinguishable."""
        return abs(a - b) <= self.eps_dist

    def is_zero_angle(self, value: float) -> bool:
        """True when ``value`` is indistinguishable from zero as an angle.

        Angles that differ from a full turn by less than ``eps_angle`` are
        also zero: the callers always normalize into ``[0, 2*pi)`` and a
        value just below ``2*pi`` is the same direction as ``0``.
        """
        v = math.fmod(abs(value), _TWO_PI)
        return v <= self.eps_angle or (_TWO_PI - v) <= self.eps_angle

    # -- quantization helpers ----------------------------------------------

    def quantize_length(self, value: float) -> float:
        """Snap a length onto the ``eps_dist`` grid.

        Quantization makes derived hash keys and lexicographic
        comparisons deterministic: two lengths that compare equal under
        :meth:`same_length` *usually* quantize to the same grid cell.  The
        residual risk of straddling a cell boundary is why all semantic
        decisions use the predicates above and quantization is reserved
        for canonical serialization (views, hashing).
        """
        return round(value / self.eps_dist) * self.eps_dist

    def quantize_angle(self, value: float) -> float:
        """Snap an angle onto the ``eps_angle`` grid (see above)."""
        return round(value / self.eps_angle) * self.eps_angle


#: Shared default used when a caller does not provide a tolerance.
DEFAULT_TOLERANCE = Tolerance()
