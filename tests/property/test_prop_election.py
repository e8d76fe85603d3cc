"""``elect`` == the first maximum under the full ``election_key``.

``elect`` ranks candidates by ``(mult, -distance sum)`` and reads views
only when candidates tie on both.  These properties compare it with a
left-to-right scan under the full key (``max``, which keeps the first
of equal keys) on generated clouds with multiplicities, and on
mirror-symmetric configurations built so that a mirror pair ties on
multiplicity and distance sum — the case where the view decides.
Robots share chirality, so a mirror image is a different position to
them and the configuration can be class A.  ``--hypothesis-profile=
repro-deep`` runs them at about 2,000 examples.
"""

from unittest import mock

from hypothesis import event, given
from hypothesis import strategies as st

from repro.core import Configuration, elect, election_key
from repro.core import election as _election
from repro.geometry import Point

coords = st.floats(min_value=-50.0, max_value=50.0)
points = st.builds(Point, coords, coords)


def _reference(config, candidates):
    return max(candidates, key=lambda p: election_key(config, p))


def _elect_counting_views(config, candidates):
    with mock.patch.object(
        _election, "view_of", wraps=_election.view_of
    ) as view_of:
        winner = elect(config, candidates)
    return winner, view_of.call_count


@given(
    st.lists(points, min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
    st.randoms(use_true_random=False),
)
def test_elect_is_the_first_maximum_of_election_key(pts, copies, rng):
    pts = list(pts)
    for src, dst in copies:
        if src < len(pts) and dst < len(pts):
            pts[dst] = pts[src]
    config = Configuration(pts)
    candidates = list(config.support)
    rng.shuffle(candidates)
    candidates = candidates[: rng.randint(1, len(candidates))]
    winner, views = _elect_counting_views(config, candidates)
    assert winner == _reference(config, candidates)
    event(f"views read: {views > 0}")


@given(
    st.lists(
        st.builds(
            Point,
            st.floats(min_value=0.125, max_value=50.0),
            coords,
        ),
        min_size=2,
        max_size=6,
        unique=True,
    ),
    st.lists(st.floats(min_value=-50.0, max_value=50.0), max_size=2),
    st.integers(0, 5),
)
def test_a_mirror_tie_is_broken_by_views(half, on_axis, doubled):
    """Mirror across the y axis (exact negation): a robot and its image
    have bitwise-equal distance multisets.  Doubling one pair gives it
    the top multiplicity, so the pair ties and the views decide."""
    pair = half[doubled % len(half)]
    mirrored = half + [Point(-p.x, p.y) for p in half]
    mirrored += [pair, Point(-pair.x, pair.y)]
    mirrored += [Point(0.0, y) for y in on_axis]
    config = Configuration(mirrored)
    candidates = list(config.support)
    winner, views = _elect_counting_views(config, candidates)
    assert winner == _reference(config, candidates)
    tied = [p for p in candidates if config.mult(p) == 2]
    if len(tied) == 2:
        # The pair survived merging: its tie is what the views broke.
        assert views == 2
        assert winner in tied
    event(f"views read: {views > 0}")
