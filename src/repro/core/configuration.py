"""Configurations of robots — the multiset ``C = {p_1, ..., p_n}``.

A :class:`Configuration` is the snapshot a robot receives during its LOOK
phase: the multiset of all robot positions.  It implements the paper's
**strong multiplicity detection**: for every occupied location the exact
number of co-located robots is available (``mult``), and the de-duplicated
support ``U(C)`` is exposed.

Tolerant clustering
-------------------
Real robots (and ``float64`` simulations) never observe two positions as
bit-identical; the constructor therefore *merges* points closer than
``tol.eps_dist`` into a single location, using a union-find over the
near-pairs.  The representative of each cluster is its lexicographically
smallest member, which makes the merged configuration deterministic in the
input multiset (and independent of input order).  All higher layers (views,
classification, the algorithm itself) operate on the merged support, so
the whole stack quantizes the plane once, here.

Instances are immutable and cached: classification, views and Weber-point
computations memoize per configuration, which matters because in every
round all active robots classify the same configuration.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..geometry import (
    DEFAULT_TOLERANCE,
    Circle,
    Point,
    Tolerance,
    all_collinear,
    smallest_enclosing_circle,
)

__all__ = ["Configuration"]


def _merge_clusters(points: Sequence[Point], tol: Tolerance) -> Dict[Point, Point]:
    """Map each input point to its cluster representative.

    Clusters are the connected components of "closer than ``eps_dist``";
    the representative is the lexicographic minimum of the cluster (the
    first input point at that position), which makes the merge
    independent of the order near-pairs are discovered in.  Equal points
    share one entry of the returned map first.  The distinct positions
    are then swept in x order (positions are finite), and a pair is
    skipped only once its x gap exceeds ``2 * eps_dist``, so the exact
    ``hypot`` test still decides every pair that could merge.
    """
    # Each distinct point starts as its own representative.
    mapping: Dict[Point, Point] = {}
    first = mapping.setdefault
    for p in points:
        first(p, p)
    firsts = list(mapping)
    m = len(firsts)
    xs = [p.x for p in firsts]
    ys = [p.y for p in firsts]
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    eps = tol.eps_dist
    reach = 2.0 * eps
    hypot = math.hypot
    order = sorted(range(m), key=xs.__getitem__)
    merged = False
    for k, i in enumerate(order):
        xi = xs[i]
        yi = ys[i]
        for j in order[k + 1 :]:
            xj = xs[j]
            if xj - xi > reach:
                break
            if hypot(xi - xj, yi - ys[j]) <= eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
                    merged = True
    if merged:
        rep_of_root: Dict[int, Point] = {}
        for i, p in enumerate(firsts):
            root = find(i)
            cur = rep_of_root.get(root)
            if cur is None or p < cur:
                rep_of_root[root] = p
        for i, p in enumerate(firsts):
            rep = rep_of_root[find(i)]
            if rep is not p:
                mapping[p] = rep
    return mapping


class Configuration:
    """An immutable multiset of robot positions with multiplicity counting.

    Parameters
    ----------
    points:
        One entry per robot.  Order is preserved in :attr:`points` so the
        simulator can correlate robots with entries, but all multiset
        semantics ignore order.
    tol:
        Tolerance used to merge indistinguishable positions and by all
        predicates derived from this configuration.
    """

    __slots__ = (
        "_points",
        "_tol",
        "_support",
        "_mult",
        "_rep_of_input",
        "_sec",
        "_max_points",
        "_is_linear",
        "_sorted",
        "_hash",
        "_cache",
    )

    def __init__(
        self,
        points: Iterable[Point],
        tol: Tolerance = DEFAULT_TOLERANCE,
    ) -> None:
        raw: Tuple[Point, ...] = tuple(points)
        if not raw:
            raise ValueError("a configuration needs at least one robot")
        # Number the distinct positions in first-appearance order, keyed
        # by coordinate pair (a C-level tuple hash, not ``Point``'s), and
        # count robots per number: from here on each distinct position
        # is hashed as a ``Point`` once per dict it keys.
        slot_of: Dict[Tuple[float, float], int] = {}
        firsts: List[Point] = []
        counts: List[int] = []
        slots: List[int] = []
        for p in raw:
            key = (p.x, p.y)
            i = slot_of.get(key)
            if i is None:
                slot_of[key] = i = len(firsts)
                firsts.append(p)
                counts.append(1)
            else:
                counts[i] += 1
            slots.append(i)
        mapping = _merge_clusters(firsts, tol)
        # The map keeps the order of its distinct input positions.
        reps = list(mapping.values())
        merged = tuple([reps[i] for i in slots])
        # Merged positions share a representative: sum their counts,
        # keyed in the order representatives first appear in ``merged``
        # (the tolerant fallback of ``mult`` walks it).
        mult: Dict[Point, int] = {}
        for rep, count in zip(reps, counts):
            mult[rep] = mult.get(rep, 0) + count
        self._points: Tuple[Point, ...] = merged
        # Input point -> cluster representative.  Union-find chains can
        # span more than eps_dist end to end, so a raw input point is
        # not always within tolerance of its own representative; this
        # map lets locate() resolve exact input points regardless.
        self._rep_of_input: Dict[Point, Point] = mapping
        self._tol = tol
        # Deterministic support order: lexicographic.
        self._support: Tuple[Point, ...] = tuple(sorted(mult))
        self._mult: Dict[Point, int] = mult
        self._sec: Optional[Circle] = None
        # Asked once per robot in an M-case round (the move target).
        self._max_points: Optional[Tuple[Point, ...]] = None
        self._is_linear: Optional[bool] = None
        # Sorted multiset and its hash, computed lazily: __eq__/__hash__
        # are hit by trace dedup and memo keys, and re-sorting the full
        # multiset on every call dominated those paths.
        self._sorted: Optional[Tuple[Point, ...]] = None
        self._hash: Optional[int] = None
        # Free-form memo used by the higher layers (views, classification,
        # quasi-regularity); keyed by strings private to each module.
        self._cache: Dict[str, object] = {}

    # -- basic multiset interface -------------------------------------------

    @property
    def tol(self) -> Tolerance:
        """Tolerance this configuration was quantized with."""
        return self._tol

    @property
    def points(self) -> Tuple[Point, ...]:
        """All robot positions (multiplicities expanded, input order)."""
        return self._points

    @property
    def n(self) -> int:
        """Number of robots, ``n``."""
        return len(self._points)

    @property
    def support(self) -> Tuple[Point, ...]:
        """The paper's ``U(C)``: distinct occupied locations (sorted)."""
        return self._support

    def mult(self, p: Point) -> int:
        """Strong multiplicity detection: robots located at ``p``.

        ``p`` must be (tolerantly) an occupied location; unoccupied points
        have multiplicity 0.
        """
        exact = self._mult.get(p)
        if exact is not None:
            return exact
        for q, m in self._mult.items():
            if p.close_to(q, self._tol):
                return m
        return 0

    def locate(self, p: Point) -> Optional[Point]:
        """The support point ``p`` belongs to, or ``None``.

        Exact input points resolve through the merge map (their cluster
        may be wider than the tolerance); other points resolve by
        tolerant distance to a support point.
        """
        rep = self._rep_of_input.get(p)
        if rep is not None:
            return rep
        if p in self._mult:
            return p
        for q in self._support:
            if p.close_to(q, self._tol):
                return q
        return None

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def _sorted_points(self) -> Tuple[Point, ...]:
        """The multiset in sorted order, cached after the first use."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._points))
        return self._sorted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._sorted_points() == other._sorted_points()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._sorted_points())
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{p.as_tuple()}x{m}" for p, m in sorted(self._mult.items())
        )
        return f"Configuration[n={self.n}]({parts})"

    # -- derived geometry ----------------------------------------------------

    def multiplicities(self) -> Dict[Point, int]:
        """Copy of the ``support point -> multiplicity`` map."""
        return dict(self._mult)

    def max_multiplicity(self) -> int:
        """Largest multiplicity over the support."""
        return max(self._mult.values())

    def max_multiplicity_points(self) -> List[Point]:
        """All support points achieving the maximum multiplicity."""
        if self._max_points is None:
            top = self.max_multiplicity()
            self._max_points = tuple(
                p for p in self._support if self._mult[p] == top
            )
        return list(self._max_points)

    def is_gathered(self) -> bool:
        """True when all robots occupy one location."""
        return len(self._support) == 1

    def is_linear(self) -> bool:
        """The paper's *linear* predicate: all robots on one line."""
        if self._is_linear is None:
            self._is_linear = all_collinear(self._support, self._tol)
        return self._is_linear

    def sec(self) -> Circle:
        """``sec(C)``: smallest circle enclosing the support ``U(C)``."""
        if self._sec is None:
            self._sec = smallest_enclosing_circle(self._support)
        return self._sec

    def sec_center(self) -> Point:
        """``center(sec(U(C)))`` — the views' reference point."""
        return self.sec().center

    # -- memoization hook ----------------------------------------------------

    def memo(self, key: str, compute):
        """Memoize ``compute()`` under ``key`` for this configuration.

        The higher layers use this to cache views, classification and
        Weber points: every active robot in a round analyses the same
        configuration, and re-deriving the full tower per robot would
        dominate the simulation time.
        """
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def memo_get(self, key: str, default=None):
        """Peek at a memoized value without computing it.

        Lets batch pre-seeding (the batched engine warms several
        configurations' towers with one vectorized kernel call) skip
        configurations whose value already exists.
        """
        return self._cache.get(key, default)

    def _validate_cache_backend(self) -> None:
        """No-op kept for ``perfbench/layers.py::_memo_counter``.

        That benchmark calls it before it peeks at ``_cache`` on every
        traced run.  Memos do not depend on any kernel backend, so there
        is nothing to drop.
        """

    # -- construction helpers -------------------------------------------------

    def moved(self, moves: Dict[int, Point]) -> "Configuration":
        """New configuration with robots at the given indices relocated."""
        pts = list(self._points)
        for index, destination in moves.items():
            pts[index] = destination
        return Configuration(pts, self._tol)
