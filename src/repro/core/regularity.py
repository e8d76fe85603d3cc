"""Regularity of configurations (Definition 5).

A configuration is *regular* when the string of angles around some center
``c`` is periodic with period count ``m > 1``.  For a **non-linear**
configuration the center is forced: the angular period makes the multiset
of unit vectors towards the robots invariant under rotation by
``2*pi/m``, so their sum vanishes, so ``c`` satisfies the Weber
subgradient condition — and non-linear configurations have a unique Weber
point.  Detection therefore tests a single candidate, the (certified)
Weber point, instead of searching the plane.  This reasoning is the
engine behind Lemma 3.3 and is validated by the test suite.

Linear configurations can be angle-periodic around many points (two
opposite rays give the string ``(pi, pi)``); the classification of
Section IV never consults regularity for them, and :func:`regularity`
reports them as not regular by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..geometry import Point
from .configuration import Configuration
from .successor import angular_resolution, periodicity, string_of_angles
from .weber_point import numeric_weber_point

__all__ = ["RegularityResult", "regularity"]


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of regularity detection.

    ``m == 1`` means *not regular*; then ``center`` is ``None``.
    ``m > 1`` is the paper's ``reg(C)`` and ``center`` is ``CR(C)``.
    """

    m: int
    center: Optional[Point]

    @property
    def is_regular(self) -> bool:
        return self.m > 1


_NOT_REGULAR = RegularityResult(1, None)


def regularity(config: Configuration) -> RegularityResult:
    """Compute ``reg(C)`` and the center of regularity ``CR(C)``.

    Only meaningful (and only claimed sound/complete) for non-linear
    configurations; linear and gathered configurations report ``m = 1``.
    """

    def compute() -> RegularityResult:
        if config.is_gathered() or config.is_linear():
            return _NOT_REGULAR
        center = numeric_weber_point(config)
        if center is None:
            # The solver failed to certify — conservatively not regular.
            # (Never observed in practice; the fallback exists so the
            # classifier's partition stays total.)
            return _NOT_REGULAR
        sa = string_of_angles(config, center)
        band = 2.0 * angular_resolution(config, center)
        m = periodicity(sa, config.tol, band=band)
        if m <= 1:
            return _NOT_REGULAR
        return RegularityResult(m, center)

    return config.memo("regularity", compute)
