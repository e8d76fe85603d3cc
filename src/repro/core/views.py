"""Views of robot positions and rotational symmetry (Definitions 2–3).

The *view* of an occupied position ``p`` is the whole configuration
re-expressed in a polar coordinate system that every robot can construct
locally: origin at ``p``, reference direction towards the center ``c`` of
the smallest enclosing circle of ``U(C)``, unit distance ``|p, c|``, and
angles measured **clockwise** (chirality).  Two positions are equivalent
(``~_r``) when their views are equal; the size of the largest equivalence
class is the configuration's rotational symmetry ``sym(C)``.

When ``p`` coincides with ``c`` the reference direction is taken towards
an occupied position maximizing its own view (the paper notes the
reference is then not unique, but the resulting view is — all maximizers
are rotationally equivalent).

Canonical form
--------------
A view is serialized as a sorted tuple of quantized ``(r, theta)`` pairs,
one per robot (multiplicities expanded, strong multiplicity detection).
Co-located robots appear as ``(0.0, 0.0)``.  The tuple ordering provides
the total order on views that the election rule of the algorithm needs;
tolerant equality is used when grouping views into equivalence classes so
that quantization boundaries cannot split a symmetric orbit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..geometry import (
    TWO_PI,
    Point,
    Tolerance,
    clockwise_angle,
)
from .configuration import Configuration

__all__ = [
    "View",
    "view_of",
    "view_table",
    "equivalence_classes",
    "symmetry",
    "views_equal",
]

#: A canonical view: sorted tuple of quantized (r, theta) pairs.
View = Tuple[Tuple[float, float], ...]


def _polar_view(
    config: Configuration, origin: Point, reference: Point
) -> View:
    """Polar serialization of the whole multiset as seen from ``origin``.

    ``reference`` fixes both the zero direction and the unit distance
    (``|origin, reference| = 1``), per Definition 2.
    """
    tol = config.tol
    unit = origin.distance_to(reference)
    if unit <= tol.eps_dist:
        raise ValueError("view reference must be distinct from the origin")
    entries: List[Tuple[float, float]] = []
    for q in config.points:
        d = origin.distance_to(q)
        if d <= tol.eps_dist:
            entries.append((0.0, 0.0))
            continue
        theta = clockwise_angle(q, origin, reference)
        # Directions indistinguishable from the reference direction are
        # exactly zero so quantization cannot wrap them to ~2*pi.
        if tol.is_zero_angle(theta):
            theta = 0.0
        entries.append(
            (tol.quantize_length(d / unit), tol.quantize_angle(theta))
        )
    return tuple(sorted(entries))


def view_of(config: Configuration, p: Point) -> View:
    """The view ``V(p)`` of an occupied position ``p`` (Definition 2)."""
    table = view_table(config)
    located = config.locate(p)
    if located is None:
        raise ValueError(f"{p!r} is not an occupied position of {config!r}")
    return table[located]


def view_table(config: Configuration) -> Dict[Point, View]:
    """Views of all occupied positions, memoized per configuration."""
    return config.memo("views", lambda: _compute_view_table(config))


def _compute_view_table(config: Configuration) -> Dict[Point, View]:
    tol = config.tol
    support = config.support
    if len(support) == 1:
        # Gathered configuration: every robot sees only the origin.
        only = support[0]
        return {only: tuple(((0.0, 0.0),) * config.n)}

    c = config.sec_center()
    table: Dict[Point, View] = {}
    center_points: List[Point] = []
    outer: List[Point] = []
    for p in support:
        if p.close_to(c, tol):
            # With exact sensing at most one support point coincides
            # with the SEC center, but at coarse (sensor-limited)
            # resolutions several may fall inside the band.
            center_points.append(p)
        else:
            outer.append(p)
    for p in outer:
        table[p] = _polar_view(config, p, c)

    if center_points:
        # Reference for a central position: an occupied position with
        # maximal view.  All maximizers give the same view of the center
        # when the configuration is rotationally symmetric; for the
        # asymmetric case the maximizer is unique.
        best = max(table, key=table.get) if table else None
        for cp in center_points:
            ref = best
            if ref is None or cp.distance_to(ref) <= tol.eps_dist:
                # Degenerate blob: everything sits within resolution of
                # the center.  No direction is measurable from here;
                # the view collapses to "n robots at my own location",
                # which is the honest reading at this resolution.
                table[cp] = tuple(((0.0, 0.0),) * config.n)
                continue
            table[cp] = _polar_view(config, cp, ref)
    return table


def views_equal(a: View, b: View, tol: Tolerance) -> bool:
    """Tolerant equality of two canonical views.

    Views are sorted tuples of quantized pairs; two views of genuinely
    equivalent positions can still differ by one quantization step per
    coordinate, so equality is checked pairwise with a two-step band.
    Positional comparison after sorting is sound because a mismatch in
    sort order between nearly-equal multisets implies some pair differs
    by less than the band anyway.
    """
    if len(a) != len(b):
        return False
    band_r = 2.0 * tol.eps_dist
    band_t = 2.0 * tol.eps_angle
    for (ra, ta), (rb, tb) in zip(a, b):
        if abs(ra - rb) > band_r:
            return False
        dt = abs(ta - tb) % TWO_PI
        if min(dt, TWO_PI - dt) > band_t:
            return False
    return True


def equivalence_classes(config: Configuration) -> List[List[Point]]:
    """Partition of ``U(C)`` by view equality (the relation ``~_r``)."""

    def compute() -> List[List[Point]]:
        table = view_table(config)
        tol = config.tol
        classes: List[List[Point]] = []
        for p in config.support:
            for cls in classes:
                if views_equal(table[p], table[cls[0]], tol):
                    cls.append(p)
                    break
            else:
                classes.append([p])
        return classes

    return config.memo("view_classes", compute)


def symmetry(config: Configuration) -> int:
    """``sym(C)``: size of the largest ``~_r`` equivalence class (Def. 3)."""
    return max(len(cls) for cls in equivalence_classes(config))
