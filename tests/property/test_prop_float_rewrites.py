"""The float-pair hot loops == the Point-method bodies they replaced.

``point_on_segment`` / ``point_strictly_between``,
``smallest_enclosing_circle``, ``Configuration``'s cluster merge and
multiplicity count, and the stacked ``batched_weiszfeld`` were rewritten
for speed with every arithmetic operation kept, operands and order
included.  Each reference below is the earlier body, kept verbatim as
the definition the rewrite must reproduce: booleans equal, floats equal
in ``float.hex``, merge maps equal key for key and object for object
(so the representative of a ``0.0`` / ``-0.0`` tie is the same input
point).

The strategies lean on the boundaries where a reordered operation
would show: distances of exactly ``eps_dist`` and one ulp either side,
points at the edge of ``orientation``'s collinearity band, segments
shorter than ``eps_dist``, duplicate points, merge chains longer than
``eps_dist`` end to end, cocircular and regular-polygon SEC inputs, and
inputs of one to three points.
"""

import math
import random
from typing import Dict, List, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration, _merge_clusters
from repro.geometry import (
    DEFAULT_TOLERANCE,
    Circle,
    Point,
    Tolerance,
    are_collinear,
    kernels,
    point_on_segment,
    point_strictly_between,
    project_parameter,
    smallest_enclosing_circle,
)

# -- references: the bodies the float rewrites replaced -----------------------


def ref_point_on_segment(a, b, p, tol):
    if p.close_to(a, tol) or p.close_to(b, tol):
        return True
    if a.close_to(b, tol):
        return p.close_to(a, tol)
    if not are_collinear(a, b, p, tol):
        return False
    t = project_parameter(a, b, p)
    span = a.distance_to(b)
    slack = tol.eps_dist / span
    return -slack <= t <= 1.0 + slack


def ref_point_strictly_between(a, b, p, tol):
    if p.close_to(a, tol) or p.close_to(b, tol):
        return False
    return ref_point_on_segment(a, b, p, tol)


def ref_circumcircle(a, b, c):
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if d == 0.0:
        return None
    a2, b2, c2 = a.norm_sq(), b.norm_sq(), c.norm_sq()
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    center = Point(ux, uy)
    radius = max(center.distance_to(p) for p in (a, b, c))
    return Circle(center, radius)


def _ref_circle_two(a, b):
    center = (a + b) / 2.0
    return Circle(center, max(center.distance_to(a), center.distance_to(b)))


def _ref_in_circle(circle, p):
    if circle is None:
        return False
    slack = 1e-12 * max(1.0, circle.radius)
    return circle.center.distance_to(p) <= circle.radius + slack


def _ref_sec_one_boundary(points, p):
    circle = Circle(p, 0.0)
    for i, q in enumerate(points):
        if not _ref_in_circle(circle, q):
            if circle.radius == 0.0 and circle.center == p:
                circle = _ref_circle_two(p, q)
            else:
                circle = _ref_sec_two_boundary(points[:i], p, q)
    return circle


def _ref_sec_two_boundary(points, p, q):
    circ = _ref_circle_two(p, q)
    left = None
    right = None
    pq = q - p
    for r in points:
        if _ref_in_circle(circ, r):
            continue
        cross = pq.cross(r - p)
        c = ref_circumcircle(p, q, r)
        if c is None:
            continue
        if cross > 0.0 and (
            left is None or pq.cross(c.center - p) > pq.cross(left.center - p)
        ):
            left = c
        elif cross < 0.0 and (
            right is None or pq.cross(c.center - p) < pq.cross(right.center - p)
        ):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def ref_smallest_enclosing_circle(points):
    pts = list(points)
    rng = random.Random(0x5EC)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    circle = None
    for i, p in enumerate(shuffled):
        if circle is None or not _ref_in_circle(circle, p):
            circle = _ref_sec_one_boundary(shuffled[:i], p)
    radius = max((circle.center.distance_to(p) for p in pts), default=0.0)
    return Circle(circle.center, radius)


def ref_merge_clusters(points: Sequence[Point], tol) -> Dict[Point, Point]:
    pts = list(points)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].distance_to(pts[j]) <= tol.eps_dist:
                union(i, j)

    rep_of_root: Dict[int, Point] = {}
    for i, p in enumerate(pts):
        root = find(i)
        cur = rep_of_root.get(root)
        if cur is None or p < cur:
            rep_of_root[root] = p
    return {p: rep_of_root[find(i)] for i, p in enumerate(pts)}


def ref_batched_weiszfeld(np, points, starts, eps_solver, max_iterations):
    pts = np.asarray(points, dtype=np.float64)
    st_ = np.asarray(starts, dtype=np.float64)
    s_count = pts.shape[0]
    out_x = st_[:, 0].copy()
    out_y = st_[:, 1].copy()
    iters = np.full(s_count, max_iterations, dtype=np.int64)
    rows = np.arange(s_count)
    px = np.ascontiguousarray(pts[:, :, 0])
    py = np.ascontiguousarray(pts[:, :, 1])
    x = out_x.copy()
    y = out_y.copy()
    for step in range(1, max_iterations + 1):
        dx = px - x[:, None]
        dy = py - y[:, None]
        d = np.hypot(dx, dy)
        mask = d > eps_solver
        if mask.all():
            w = 1.0 / d
            wsum = w.sum(axis=1)
            nx = (px * w).sum(axis=1) / wsum
            ny = (py * w).sum(axis=1) / wsum
            stop = np.hypot(nx - x, ny - y) <= eps_solver
        else:
            w = np.divide(1.0, d, out=np.zeros_like(d), where=mask)
            far = mask.sum(axis=1)
            hold = far == 0
            safe_wsum = np.where(hold, 1.0, w.sum(axis=1))
            tx = (px * w).sum(axis=1) / safe_wsum
            ty = (py * w).sum(axis=1) / safe_wsum
            at_x = px.shape[1] - far
            pulled = at_x > 0
            rx = (dx * w).sum(axis=1)
            ry = (dy * w).sum(axis=1)
            r_norm = np.hypot(rx, ry)
            hold |= pulled & (r_norm == 0.0)
            beta = np.minimum(1.0, at_x / np.where(r_norm > 0.0, r_norm, 1.0))
            nx = np.where(pulled, x + (1.0 - beta) * (tx - x), tx)
            ny = np.where(pulled, y + (1.0 - beta) * (ty - y), ty)
            nx = np.where(hold, x, nx)
            ny = np.where(hold, y, ny)
            stop = hold | (np.hypot(nx - x, ny - y) <= eps_solver)
        x = nx
        y = ny
        if stop.any():
            done = rows[stop]
            out_x[done] = x[stop]
            out_y[done] = y[stop]
            iters[done] = step
            keep = ~stop
            rows = rows[keep]
            px = px[keep]
            py = py[keep]
            x = x[keep]
            y = y[keep]
            if rows.size == 0:
                break
    out_x[rows] = x
    out_y[rows] = y
    return list(zip(out_x.tolist(), out_y.tolist(), iters.tolist()))


# -- strategies ---------------------------------------------------------------

TOLERANCES = [
    DEFAULT_TOLERANCE,
    Tolerance(eps_dist=1e-6, eps_angle=1e-6),
    Tolerance(eps_dist=0.25, eps_angle=1e-3, eps_solver=1e-4),
]

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
#: Coordinates: round values (exact sums with small offsets) or any float.
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e3, 3.0e-9]), finite
)
base_points = st.builds(Point, coords, coords)
#: Direction angles: axis-aligned (exact offsets) or any.
headings = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, math.pi / 4]),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)


def _ulps(value: float, steps: int) -> float:
    toward = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def boundary_lengths(draw, eps: float) -> float:
    """``eps`` or ``2 * eps``, a few ulps either side, or a fraction."""
    base = draw(st.sampled_from([eps, 2.0 * eps, eps / 2.0, 0.0]))
    return _ulps(base, draw(st.integers(min_value=-2, max_value=2)))


def _offset(p: Point, length: float, heading: float) -> Point:
    return Point(p.x + length * math.cos(heading), p.y + length * math.sin(heading))


@st.composite
def segment_cases(draw):
    tol = draw(st.sampled_from(TOLERANCES))
    eps = tol.eps_dist
    a = draw(base_points)
    if draw(st.booleans()):
        # A segment shorter than (or about) eps.
        b = _offset(a, draw(boundary_lengths(eps)), draw(headings))
    else:
        length = st.one_of(
            st.sampled_from([1.0, 0.5, 4.0]),
            st.floats(min_value=1e-6, max_value=100.0),
        )
        b = _offset(a, draw(length), draw(headings))
    kind = draw(st.sampled_from(["endpoint", "band", "line", "dup", "any"]))
    if kind == "endpoint":
        # eps (and one ulp either side) from an endpoint.
        end = draw(st.sampled_from([a, b]))
        p = _offset(end, draw(boundary_lengths(eps)), draw(headings))
    elif kind in ("band", "line"):
        # On the line through a and b, or at the edge of orientation's
        # band eps * max(|ab|, |ap|, 1) around it.
        ab = a.distance_to(b)
        if ab == 0.0:
            p = _offset(a, draw(boundary_lengths(eps)), draw(headings))
        else:
            slack = eps / ab
            t = draw(
                st.one_of(
                    st.sampled_from(
                        [0.0, 0.5, 1.0, -slack, 1.0 + slack,
                         _ulps(-slack, -1), _ulps(1.0 + slack, 1)]
                    ),
                    st.floats(min_value=-0.5, max_value=1.5),
                )
            )
            on = a + (b - a) * t
            h = 0.0
            if kind == "band":
                scale = max(ab, a.distance_to(on), 1.0)
                factor = draw(
                    st.one_of(
                        st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 2.0]),
                        st.floats(min_value=0.9, max_value=1.1),
                    )
                )
                h = factor * eps * scale / ab * draw(st.sampled_from([1.0, -1.0]))
            normal = Point(-(b.y - a.y) / ab, (b.x - a.x) / ab)
            p = on + normal * h
    elif kind == "dup":
        p = Point(*draw(st.sampled_from([a, b])))
    else:
        p = draw(base_points)
    return a, b, p, tol


# Projections exactly at -slack and 1 + slack, off the line but inside
# the band and more than eps from either endpoint.
@example((Point(0.0, 0.0), Point(1.0, 0.0), Point(-1e-9, 5e-10), DEFAULT_TOLERANCE))
@example((Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0 + 1e-9, 5e-10), DEFAULT_TOLERANCE))
@given(segment_cases())
@settings(max_examples=600)
def test_segment_predicates_match_reference(case):
    a, b, p, tol = case
    assert point_on_segment(a, b, p, tol) is ref_point_on_segment(a, b, p, tol)
    assert point_strictly_between(a, b, p, tol) is ref_point_strictly_between(
        a, b, p, tol
    )
    # Either endpoint order: the rewrite must not favour one side.
    assert point_on_segment(b, a, p, tol) is ref_point_on_segment(b, a, p, tol)


@st.composite
def merge_cases(draw):
    """Clumps of points eps (plus or minus ulps) apart, chains longer
    than eps end to end, exact duplicates, signed zeros, far points."""
    tol = draw(st.sampled_from(TOLERANCES))
    eps = tol.eps_dist
    anchors = draw(st.lists(base_points, min_size=1, max_size=3))
    pts: List[Point] = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        kind = draw(st.sampled_from(["chain", "near", "dup", "zero", "far"]))
        anchor = draw(st.sampled_from(anchors))
        if kind == "chain":
            step = draw(boundary_lengths(eps))
            k = draw(st.integers(min_value=0, max_value=6))
            pts.append(_offset(anchor, k * step, draw(headings)))
        elif kind == "near":
            pts.append(_offset(anchor, draw(boundary_lengths(eps)), draw(headings)))
        elif kind == "dup" and pts:
            pts.append(Point(*draw(st.sampled_from(pts))))
        elif kind == "zero":
            pts.append(Point(draw(st.sampled_from([0.0, -0.0])), anchor.y))
        else:
            pts.append(draw(base_points))
    if not pts:
        pts.append(anchors[0])
    return draw(st.permutations(pts)), tol


@given(merge_cases())
@settings(max_examples=400)
def test_merge_clusters_matches_reference(case):
    pts, tol = case
    got = _merge_clusters(tuple(pts), tol)
    ref = ref_merge_clusters(pts, tol)
    assert [(id(k), id(v)) for k, v in got.items()] == [
        (id(k), id(v)) for k, v in ref.items()
    ]


def ref_configuration_fields(points, tol):
    """The ``Configuration.__init__`` body that counted robots per input
    point (four ``Point`` hashes each) before it counted per merge slot."""
    raw = tuple(points)
    mapping = ref_merge_clusters(raw, tol)
    merged = tuple(mapping[p] for p in raw)
    mult: Dict[Point, int] = {}
    for p in merged:
        mult[p] = mult.get(p, 0) + 1
    return merged, tuple(sorted(mult)), mapping, mult


@given(merge_cases())
@settings(max_examples=400)
def test_configuration_fields_match_reference(case):
    """Same objects in the same order: the merged points, the support,
    the input-to-representative map and the multiplicity map (whose
    order the tolerant fallback of ``mult`` walks)."""
    pts, tol = case
    config = Configuration(pts, tol)
    merged, support, mapping, mult = ref_configuration_fields(pts, tol)
    assert [id(p) for p in config._points] == [id(p) for p in merged]
    assert [id(p) for p in config._support] == [id(p) for p in support]
    assert [(id(k), id(v)) for k, v in config._rep_of_input.items()] == [
        (id(k), id(v)) for k, v in mapping.items()
    ]
    assert [(id(k), m) for k, m in config._mult.items()] == [
        (id(k), m) for k, m in mult.items()
    ]


def test_merge_chain_longer_than_eps_is_one_cluster():
    step = 0.9 * DEFAULT_TOLERANCE.eps_dist  # 6.3 eps end to end
    chain = [Point(k * step, 0.0) for k in range(8)] + [Point(1.0, 1.0)]
    random.Random(5).shuffle(chain)
    got = _merge_clusters(tuple(chain), DEFAULT_TOLERANCE)
    assert got == ref_merge_clusters(chain, DEFAULT_TOLERANCE)
    assert set(got.values()) == {Point(0.0, 0.0), Point(1.0, 1.0)}


@st.composite
def sec_cases(draw):
    kind = draw(st.sampled_from(["polygon", "cocircular", "few", "line", "any"]))
    center = draw(base_points)
    radius = draw(st.floats(min_value=1e-6, max_value=500.0))
    if kind == "polygon":
        k = draw(st.integers(min_value=3, max_value=16))
        phase = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
        pts = [_offset(center, radius, phase + 2 * math.pi * i / k) for i in range(k)]
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))  # duplicates
        if draw(st.booleans()):
            pts.append(center)  # an interior point
    elif kind == "cocircular":
        angles = draw(
            st.lists(st.floats(min_value=0.0, max_value=2 * math.pi),
                     min_size=2, max_size=10)
        )
        # On the circle, or just outside it by about the relative slack
        # (1e-12) that decides "inside" during the Welzl passes.
        bulge = st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 2e-12, 3e-12])
        pts = [
            _offset(center, radius * (1.0 + draw(bulge)), t) for t in angles
        ]
    elif kind == "few":
        pts = draw(st.lists(base_points, min_size=1, max_size=3))
        pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    elif kind == "line":
        heading = draw(headings)
        ts = draw(st.lists(st.floats(min_value=-50, max_value=50),
                           min_size=1, max_size=8))
        pts = [_offset(center, t, heading) for t in ts]
    else:
        pts = draw(st.lists(base_points, min_size=1, max_size=12))
    return draw(st.permutations(pts))


def _circle_bits(circle):
    return (circle.center.x.hex(), circle.center.y.hex(), circle.radius.hex())


@given(sec_cases())
@settings(max_examples=400)
def test_smallest_enclosing_circle_matches_reference(pts):
    assert _circle_bits(smallest_enclosing_circle(pts)) == _circle_bits(
        ref_smallest_enclosing_circle(pts)
    )


@given(sec_cases(), st.randoms(use_true_random=False))
def test_configuration_sec_is_bit_identical_across_input_orders(pts, rnd):
    # The SEC itself depends on input order in its last bits; a
    # Configuration passes its sorted support, so any order of one
    # multiset gives the same circle to the bit.
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert _circle_bits(Configuration(pts).sec()) == _circle_bits(
        Configuration(shuffled).sec()
    )


def test_smallest_enclosing_circle_depends_on_input_order():
    # Why Configuration.sec() sorts: a permutation of these points moves
    # the last bits of the circle (found among captured sweep inputs).
    rng = random.Random(11)
    for _ in range(200):
        pts = [Point(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(7)]
        shuffled = pts[::-1]
        if _circle_bits(smallest_enclosing_circle(pts)) != _circle_bits(
            smallest_enclosing_circle(shuffled)
        ):
            return
    pytest.fail("no order-dependent SEC input among 200 random sets")


# -- stacked batched Weiszfeld --------------------------------------------------


@st.composite
def weiszfeld_batches(draw):
    """Mixed batches of same-size sims; some start on an input point (the
    Vardi-Zhang branch), some on co-located mass, some anywhere."""
    n = draw(st.sampled_from([3, 8, 16]))
    grid = st.integers(min_value=-4, max_value=4).map(float)
    sims = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["centroid", "on_point", "stacked", "any"]))
        coord = grid if kind == "on_point" else finite
        pts = [(draw(coord), draw(coord)) for _ in range(n)]
        if kind == "stacked":
            pts[1] = pts[0]
        if kind in ("on_point", "stacked"):
            start = pts[draw(st.integers(min_value=0, max_value=n - 1))]
        elif kind == "centroid":
            start = (sum(x for x, _ in pts) / n, sum(y for _, y in pts) / n)
        else:
            start = (draw(finite), draw(finite))
        sims.append((pts, start))
    return sims, draw(st.sampled_from([1, 3, 25, 10_000]))


def _bits(results):
    # The reference predates the kernel's ``stopped`` flag.
    return [(x.hex(), y.hex(), its) for x, y, its, *_ in results]


@given(weiszfeld_batches())
@settings(max_examples=120)
def test_batched_weiszfeld_matches_unstacked_reference(case):
    np = pytest.importorskip("numpy")
    sims, max_iterations = case
    points = [pts for pts, _ in sims]
    starts = [start for _, start in sims]
    eps = DEFAULT_TOLERANCE.eps_solver
    assert _bits(
        kernels.batched_weiszfeld(points, starts, eps, max_iterations)
    ) == _bits(ref_batched_weiszfeld(np, points, starts, eps, max_iterations))


def test_batched_weiszfeld_reaches_vardi_zhang_like_reference():
    np = pytest.importorskip("numpy")
    # Iterates that sit on an input point: a start on one, a start on
    # co-located mass, and a symmetric ring whose center holds.
    ring = [(math.cos(2 * math.pi * i / 7), math.sin(2 * math.pi * i / 7))
            for i in range(7)]
    sims = [
        ([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (-2.0, -1.0)] * 2, (0.0, 0.0)),
        ([(1.0, 1.0), (1.0, 1.0), (5.0, 2.0), (-3.0, 4.0)] * 2, (1.0, 1.0)),
        (ring + [(0.0, 0.0)], (0.0, 0.0)),
        ([(2.0, 3.0), (7.0, -1.0), (-4.0, 0.5), (0.25, 9.0)] * 2, (1.0, 2.0)),
    ]
    points = [pts for pts, _ in sims]
    starts = [start for _, start in sims]
    eps = DEFAULT_TOLERANCE.eps_solver
    got = kernels.batched_weiszfeld(points, starts, eps, 10_000)
    assert _bits(got) == _bits(
        ref_batched_weiszfeld(np, points, starts, eps, 10_000)
    )
