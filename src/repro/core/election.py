"""Leader election among occupied positions (algorithm line 17).

In an asymmetric configuration every occupied position has a unique view,
so ordering positions by any view-involving key is a total order that all
robots compute identically in their own frames.  The paper's key, in
lexicographic priority:

1. **maximize** multiplicity ``mult(p)``,
2. **minimize** the sum of distances ``sum_q |p, q|`` over all robots,
3. **maximize** the view ``V(p)``.

The elected position serves as the common gathering target; restricting
candidates to *safe points* is the caller's job (the ``A`` case does,
the ablation baseline deliberately does not — experiment E9).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..geometry import Point, sum_of_distances
from .configuration import Configuration
from .views import View, view_of

__all__ = ["election_key", "elect"]


def election_key(config: Configuration, p: Point) -> Tuple[int, float, View]:
    """Sort key realizing the paper's (mult, -sum of distances, view) order.

    Built so that *larger is better* under tuple comparison: multiplicity
    ascending, negated distance sum ascending (i.e. distance sum
    descending... note the negation), view ascending.  The distance sum
    is quantized so that robots computing it in different frames (after
    normalization) agree bitwise-stably.
    """
    dist_sum = sum_of_distances(p, config.points)
    return (
        config.mult(p),
        -config.tol.quantize_length(dist_sum),
        view_of(config, p),
    )


def elect(config: Configuration, candidates: Iterable[Point]) -> Point:
    """The maximum of ``candidates`` under :func:`election_key`.

    Raises :class:`ValueError` on an empty candidate set (the ``A`` case
    never hits this: Lemma 4.2 guarantees a safe point exists).
    """
    best: Point = None  # type: ignore[assignment]
    best_key = None
    for p in candidates:
        key = election_key(config, p)
        if best_key is None or key > best_key:
            best, best_key = p, key
    if best_key is None:
        raise ValueError("election requires at least one candidate")
    return best
