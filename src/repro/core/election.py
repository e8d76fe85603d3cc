"""Leader election among occupied positions (algorithm line 17).

In an asymmetric configuration every occupied position has a unique view,
so ordering positions by any view-involving key is a total order that all
robots compute identically in their own frames.  The paper's key, in
lexicographic priority:

1. **maximize** multiplicity ``mult(p)``,
2. **minimize** the sum of distances ``sum_q |p, q|`` over all robots,
3. **maximize** the view ``V(p)``.

The view only breaks ties of the first two, so :func:`elect` ranks the
candidates by ``(mult, -distance sum)`` and builds views only when two
of them tie on both; it picks the same winner as the first maximum under
the full :func:`election_key`.  On the perfbench sweep and simulate
pools no election ties, so class-A rounds build no view table.

The elected position serves as the common gathering target; restricting
candidates to *safe points* is the caller's job (the ``A`` case does,
the ablation baseline deliberately does not — experiment E9).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..geometry import Point, sum_of_distances
from .configuration import Configuration
from .views import View, view_of

__all__ = ["election_key", "elect"]


def _rank(config: Configuration, p: Point) -> Tuple[int, float]:
    """The view-free head of :func:`election_key`: ``(mult, -sum)``."""
    dist_sum = sum_of_distances(p, config.points)
    return config.mult(p), -config.tol.quantize_length(dist_sum)


def election_key(config: Configuration, p: Point) -> Tuple[int, float, View]:
    """Sort key realizing the paper's (mult, -sum of distances, view) order.

    Built so that *larger is better* under tuple comparison: multiplicity
    ascending, negated distance sum ascending (i.e. distance sum
    descending... note the negation), view ascending.  The distance sum
    is quantized so that robots computing it in different frames (after
    normalization) agree bitwise-stably.
    """
    return _rank(config, p) + (view_of(config, p),)


def elect(config: Configuration, candidates: Iterable[Point]) -> Point:
    """The first maximum of ``candidates`` under :func:`election_key`.

    Views are read only when several candidates share the best
    ``(mult, -sum)`` rank; ``max`` then keeps the first of equal views,
    as a left-to-right scan under the full key does.  Raises
    :class:`ValueError` on an empty candidate set (the ``A`` case never
    hits this: Lemma 4.2 guarantees a safe point exists).
    """
    ranked = [(_rank(config, p), p) for p in candidates]
    if not ranked:
        raise ValueError("election requires at least one candidate")
    top = max(rank for rank, _ in ranked)
    leaders = [p for rank, p in ranked if rank == top]
    if len(leaders) == 1:
        return leaders[0]
    return max(leaders, key=lambda p: view_of(config, p))
