"""Quasi-regularity detection (Definitions 6–7, Lemmas 3.3–3.4, Thm 3.1).

A configuration ``C`` is *quasi-regular* with center ``c`` when a regular
configuration ``C'`` with center of regularity ``c`` can be obtained from
``C`` by relocating only robots that sit **at** ``c``.  Intuitively: the
robots stacked on the center are wildcards that may be dealt out onto
rays to complete the angular periodicity.

Detection, following the paper:

* For a non-linear ``C`` the only possible center is the Weber point
  (Lemma 3.3; see :mod:`repro.core.regularity` for why).  We obtain it
  exactly when occupied, or certified-numerically when not.
* If the center is **unoccupied** there are no wildcards, so ``C`` must
  already be regular around it: test ``per(SA(c)) > 1``.
* If the center is an occupied position ``p``, apply the combinatorial
  criterion of Lemma 3.4: group the occupied rays from ``p`` into orbits
  under rotation by ``2*pi/m``; every orbit has ``m`` angular slots and
  each slot must be topped up to the orbit's maximum robot count using
  robots taken from ``p``.  ``C`` is quasi-regular with period ``m`` iff

      mult(p) >= sum over slots (orbit_max - slot_count).

  (The source text of Definition 7 is OCR-damaged; DESIGN.md section 6
  documents this reconstruction, which matches Lemma 3.4's statement.)

``qreg(C)`` is reported as the largest ``m`` accepted by the criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..geometry import TWO_PI, Point
from .configuration import Configuration
from .regularity import regularity
from .successor import (
    Ray,
    angular_resolution,
    ray_structure,
)
from .weber_point import numeric_weber_point

__all__ = [
    "QuasiRegularityResult",
    "quasi_regularity",
    "topping_deficiency",
    "satisfies_lemma_3_4",
]


@dataclass(frozen=True)
class QuasiRegularityResult:
    """Outcome of quasi-regularity detection.

    ``m == 1`` means *not quasi-regular* (then ``center is None``);
    otherwise ``m = qreg(C)`` and ``center = CQR(C)``, which for
    non-linear configurations is also the Weber point (Lemma 3.3).
    """

    m: int
    center: Optional[Point]

    @property
    def is_quasi_regular(self) -> bool:
        return self.m > 1


_NOT_QR = QuasiRegularityResult(1, None)


def _orbit_slots(
    rays: List[Ray], m: int, eps_angle: float
) -> List[List[int]]:
    """Robot counts per angular slot, grouped into rotation orbits.

    The rotation by ``2*pi/m`` partitions ray directions by their residue
    modulo ``w = 2*pi/m``.  Each residue class spans ``m`` slots (one per
    multiple of ``w``); occupied slots carry their ray's robot count and
    the remaining slots are empty (count 0).  Residues are clustered with
    the angular tolerance, including the wrap-around at ``0 / w``.
    """
    w = TWO_PI / m
    tagged: List[Tuple[float, int, int]] = []  # (residue, slot index, count)
    for ray in rays:
        residue = ray.angle % w
        slot = int(round((ray.angle - residue) / w)) % m
        tagged.append((residue, slot, ray.count))
    tagged.sort(key=lambda t: t[0])

    groups: List[List[Tuple[float, int, int]]] = [[tagged[0]]]
    for t in tagged[1:]:
        if t[0] - groups[-1][-1][0] <= eps_angle:
            groups[-1].append(t)
        else:
            groups.append([t])
    # Wrap-around: residue ~0 and residue ~w are the same direction class
    # (they differ by one slot rotation).
    if len(groups) > 1:
        first, last = groups[0], groups[-1]
        if (first[0][0] + w) - last[-1][0] <= eps_angle:
            # Members of `last` are one slot behind when folded onto the
            # residue of `first`.
            folded = [(r - w, (s + 1) % m, c) for (r, s, c) in last]
            groups[0] = folded + first
            groups.pop()

    orbits: List[List[int]] = []
    for group in groups:
        slots = [0] * m
        for _, slot, count in group:
            # Two rays can only share (residue class, slot) through the
            # angular clustering of near-identical directions; merge.
            slots[slot] += count
        orbits.append(slots)
    return orbits


def topping_deficiency(config: Configuration, p: Point, m: int) -> Optional[int]:
    """Robots needed at ``p`` to complete ``C`` to an ``m``-regular config.

    Returns ``None`` when completion is impossible regardless of
    multiplicity (no robots off the center), otherwise the total
    deficiency ``sum over slots (orbit_max - slot_count)`` of Lemma 3.4.
    """
    if m < 2:
        raise ValueError("regularity period must be at least 2")
    rays = ray_structure(config, p)
    if not rays:
        return None  # everyone at p: gathered, not a quasi-regular case
    orbits = _orbit_slots(rays, m, angular_resolution(config, p))
    deficiency = 0
    for slots in orbits:
        top = max(slots)
        deficiency += sum(top - s for s in slots)
    return deficiency


def satisfies_lemma_3_4(config: Configuration, p: Point, m: int) -> bool:
    """Lemma 3.4 criterion: is ``C`` quasi-regular with center ``p``, period ``m``?"""
    deficiency = topping_deficiency(config, p, m)
    if deficiency is None:
        return False
    return config.mult(p) >= deficiency


def quasi_regularity(config: Configuration) -> QuasiRegularityResult:
    """Compute ``qreg(C)`` and ``CQR(C)`` (Theorem 3.1's detector).

    Only sound/complete for non-linear configurations; linear and
    gathered configurations report ``m = 1`` by design (the Section IV
    classification never consults quasi-regularity for them).
    """

    def compute() -> QuasiRegularityResult:
        if config.is_gathered() or config.is_linear():
            return _NOT_QR
        center = numeric_weber_point(config)
        if center is None:
            return _NOT_QR
        occupied = config.locate(center)
        if occupied is None:
            # No wildcards available: C itself must be regular.
            reg = regularity(config)
            if reg.is_regular:
                return QuasiRegularityResult(reg.m, reg.center)
            return _NOT_QR
        # Occupied center: largest period accepted by Lemma 3.4.
        for m in range(config.n, 1, -1):
            if satisfies_lemma_3_4(config, occupied, m):
                return QuasiRegularityResult(m, occupied)
        return _NOT_QR

    return config.memo("quasi_regularity", compute)
